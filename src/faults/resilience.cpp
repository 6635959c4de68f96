#include "faults/resilience.h"

#include <sstream>

#include "repack/repack.h"
#include "util/metrics.h"
#include "util/trace_span.h"

namespace wdm {

std::string RestorationReport::to_string() const {
  std::ostringstream os;
  os << "Restoration[affected=" << affected << " restored=" << restored.size()
     << " dropped=" << dropped.size() << ']';
  return os.str();
}

bool route_uses_faults(const ThreeStageNetwork& network,
                       const ThreeStageNetwork::RecordView& connection,
                       const FaultModel& faults) {
  if (!faults.any()) return false;
  const std::size_t in_module = network.input_module_of(connection.input().port);
  bool uses = false;
  connection.walk(
      [&](std::size_t j, Wavelength lane, const auto& legs) {
        uses = uses || faults.middle_failed(j) || !faults.link12_usable(in_module, j, lane);
        for (const ModulePortLane leg : legs) {
          uses = uses || !faults.link23_usable(j, leg.port, leg.lane);
        }
      },
      [](auto&&...) {});
  return uses;
}

namespace {

struct RestoreMetrics {
  Counter& passes = metrics().counter("faults.restore_passes");
  Counter& affected = metrics().counter("faults.sessions_affected");
  Counter& restored = metrics().counter("faults.sessions_restored");
  Counter& dropped = metrics().counter("faults.sessions_dropped");
  TimerStat& restore = metrics().timer("faults.restore_connections");
  Histogram& affected_per_pass =
      metrics().histogram("faults.affected_per_restore");

  static RestoreMetrics& get() {
    static RestoreMetrics instance;
    return instance;
  }
};

}  // namespace

RestorationReport restore_connections(MultistageSwitch& sw) {
  RestorationReport report;
  ThreeStageNetwork& network = sw.network();
  const FaultModel* faults = network.active_fault_model();
  if (faults == nullptr) return report;

  RestoreMetrics& counters = RestoreMetrics::get();
  counters.passes.add();
  ScopedTimer timer(counters.restore);
  TraceSpan span("faults.restore");

  // Collect first: releasing while iterating would invalidate the map walk,
  // and tearing everything down before re-routing lets stranded connections
  // reuse each other's healthy capacity.
  std::vector<ConnectionId> stranded;
  for (const auto& [id, view] : network.connections()) {
    if (route_uses_faults(network, view, *faults)) {
      stranded.push_back(id);
    }
  }
  report.affected = stranded.size();
  counters.affected.add(stranded.size());
  counters.affected_per_pass.record(stranded.size());

  // Restoration is repacking under failure: the repack executor's
  // break-before-make core (release all, then re-route in release order)
  // reproduces the legacy pass op for op -- stranded was collected in
  // insertion order, i.e. ascending id, so the re-route order and therefore
  // the RestorationReport are identical (pinned by tests/repack_test.cpp).
  // kAllowDrops because the failed hardware may leave no route: keep every
  // success, return the rest for retry after a repair.
  repack::RepackExecutor executor(sw.router());
  executor.begin();
  for (const ConnectionId id : stranded) executor.release(id);
  const repack::MigrationOutcome& outcome =
      executor.reroute_released(repack::DropPolicy::kAllowDrops);
  report.restored = outcome.restored;
  report.dropped = outcome.dropped;
  executor.commit();

  counters.restored.add(report.restored.size());
  counters.dropped.add(report.dropped.size());
  span.arg("affected", static_cast<std::int64_t>(report.affected));
  span.arg("restored", static_cast<std::int64_t>(report.restored.size()));
  return report;
}

std::string DegradedCapacity::to_string() const {
  std::ostringstream os;
  os << "DegradedCapacity[m=" << provisioned_m << " failed=" << failed_middles
     << " effective=" << effective_m << " bound=" << bound.m
     << " margin=" << margin << (nonblocking ? " nonblocking" : " BELOW BOUND")
     << " budget=" << faults_to_bound << ']';
  return os.str();
}

DegradedCapacity degraded_capacity(const ClosParams& params,
                                   Construction construction,
                                   std::size_t failed_middles) {
  DegradedCapacity result;
  result.provisioned_m = params.m;
  result.failed_middles = failed_middles;
  result.effective_m =
      failed_middles >= params.m ? 0 : params.m - failed_middles;
  result.bound = construction == Construction::kMswDominant
                     ? theorem1_min_m(params.n, params.r)
                     : theorem2_min_m(params.n, params.r, params.k);
  result.margin = static_cast<std::ptrdiff_t>(result.effective_m) -
                  static_cast<std::ptrdiff_t>(result.bound.m);
  result.nonblocking = result.margin >= 0;
  result.faults_to_bound =
      result.margin > 0 ? static_cast<std::size_t>(result.margin) : 0;
  return result;
}

DegradedCapacity degraded_capacity(const ThreeStageNetwork& network,
                                   const FaultModel& faults) {
  return degraded_capacity(network.params(), network.construction(),
                           faults.failed_middle_count());
}

}  // namespace wdm
