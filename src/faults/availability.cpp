#include "faults/availability.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace_span.h"

namespace wdm {

std::string AvailabilityStats::to_string() const {
  std::ostringstream os;
  os << "availability=" << capacity_availability()
     << " survival=" << session_survival() << " P(block)="
     << traffic.blocking_probability() << " failures=" << failure_events
     << " repairs=" << repair_events << " dropped=" << sessions_dropped
     << " restored=" << sessions_restored << " min_margin="
     << min_theorem_margin;
  return os.str();
}

namespace {

struct AvailabilityMetrics {
  Counter& failures = metrics().counter("faults.failures_injected");
  Counter& repairs = metrics().counter("faults.repairs_applied");
  Histogram& restored_per_event =
      metrics().histogram("faults.restored_per_event");

  static AvailabilityMetrics& get() {
    static AvailabilityMetrics instance;
    return instance;
  }
};

}  // namespace

AvailabilityStats run_availability_sim(MultistageSwitch& sw, FaultModel& faults,
                                       const AvailabilityConfig& config) {
  const ErlangConfig& traffic = config.traffic;
  if (traffic.arrival_rate <= 0 || traffic.mean_holding <= 0 ||
      traffic.duration <= 0) {
    throw std::invalid_argument(
        "run_availability_sim: rates and duration must be > 0");
  }
  ThreeStageNetwork& network = sw.network();
  const FaultModel* previous = network.fault_model();
  network.attach_fault_model(&faults);

  Rng rng(traffic.seed);
  const ZipfSampler popularity(sw.port_count(),
                               std::max(0.0, traffic.zipf_exponent));
  const ZipfSampler* skew = traffic.zipf_exponent > 0.0 ? &popularity : nullptr;
  const std::vector<FaultEvent> timeline =
      generate_fault_timeline(network.params(), config.faults, traffic.duration);
  AvailabilityMetrics& counters = AvailabilityMetrics::get();

  AvailabilityStats stats;
  stats.duration = traffic.duration;
  stats.traffic.duration = traffic.duration;
  stats.min_theorem_margin = degraded_capacity(network, faults).margin;
  const double m = static_cast<double>(network.params().m);

  std::multimap<double, ConnectionId> departures;
  double now = 0.0;
  double next_arrival = exponential(rng, 1.0 / traffic.arrival_rate);
  std::size_t live = 0;
  std::size_t fault_index = 0;

  auto advance_to = [&](double t) {
    const double healthy =
        (m - static_cast<double>(faults.failed_middle_count())) / m;
    stats.time_weighted_capacity += healthy * (t - now);
    stats.traffic.time_weighted_sessions += static_cast<double>(live) * (t - now);
    now = t;
  };

  while (true) {
    const double next_departure =
        departures.empty() ? std::numeric_limits<double>::infinity()
                           : departures.begin()->first;
    const double next_fault = fault_index < timeline.size()
                                  ? timeline[fault_index].time
                                  : std::numeric_limits<double>::infinity();
    const double next_event =
        std::min({next_arrival, next_departure, next_fault});
    if (next_event > traffic.duration) {
      advance_to(traffic.duration);
      break;
    }
    advance_to(next_event);

    if (next_fault <= next_arrival && next_fault <= next_departure) {
      const FaultEvent& event = timeline[fault_index++];
      TraceSpan span("faults.inject");
      span.arg("fail", event.fail ? 1 : 0);
      apply_fault_event(faults, event);
      if (!event.fail) {
        ++stats.repair_events;
        counters.repairs.add();
        continue;
      }
      ++stats.failure_events;
      counters.failures.add();
      const RestorationReport report = restore_connections(sw);
      ++stats.restore_passes;
      stats.sessions_affected += report.affected;
      stats.sessions_restored += report.restored.size();
      stats.sessions_dropped += report.dropped.size();
      counters.restored_per_event.record(report.restored.size());
      if (!report.restored.empty() || !report.dropped.empty()) {
        // Rewrite the departure calendar: restored sessions keep their
        // departure times under their new ids, dropped sessions leave.
        std::map<ConnectionId, ConnectionId> remap(report.restored.begin(),
                                                   report.restored.end());
        std::set<ConnectionId> gone;
        for (const auto& [id, request] : report.dropped) gone.insert(id);
        std::multimap<double, ConnectionId> rebuilt;
        for (const auto& [when, id] : departures) {
          if (gone.contains(id)) continue;
          const auto hit = remap.find(id);
          rebuilt.emplace(when, hit == remap.end() ? id : hit->second);
        }
        live -= std::min(live, gone.size());
        departures = std::move(rebuilt);
      }
      stats.min_theorem_margin = std::min(
          stats.min_theorem_margin, degraded_capacity(network, faults).margin);
      continue;
    }

    if (next_arrival <= next_departure) {
      next_arrival = now + exponential(rng, 1.0 / traffic.arrival_rate);
      const auto request =
          skewed_admissible_request(rng, network, traffic.fanout, skew);
      if (!request) {
        ++stats.traffic.abandoned;
        continue;
      }
      ++stats.traffic.arrivals;
      if (const auto id = sw.try_connect(*request)) {
        ++stats.traffic.admitted;
        ++live;
        departures.emplace(now + exponential(rng, traffic.mean_holding), *id);
      } else {
        ++stats.traffic.blocked;
      }
    } else {
      sw.disconnect(departures.begin()->second);
      departures.erase(departures.begin());
      --live;
    }
  }

  network.attach_fault_model(previous);
  return stats;
}

}  // namespace wdm
