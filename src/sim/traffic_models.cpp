#include "sim/traffic_models.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace wdm {

std::string ErlangStats::to_string() const {
  std::ostringstream os;
  os << "arrivals=" << arrivals << " blocked=" << blocked
     << " P(block)=" << blocking_probability()
     << " carried=" << carried_erlangs() << "E";
  return os.str();
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n >= 1");
  cumulative_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cumulative_[i] = total;
  }
  for (double& value : cumulative_) value /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::size_t>(it - cumulative_.begin());
}

double ZipfSampler::probability(std::size_t i) const {
  if (i >= cumulative_.size()) return 0.0;
  return i == 0 ? cumulative_[0] : cumulative_[i] - cumulative_[i - 1];
}

std::optional<MulticastRequest> skewed_admissible_request(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout,
    const ZipfSampler* popularity) {
  if (popularity == nullptr) {
    return random_admissible_request(rng, network, fanout);
  }
  const std::size_t N = network.port_count();
  const std::size_t k = network.lane_count();
  // Free input wavelength, uniform (sources are not skewed).
  const auto input = draw_free_input(rng, network);
  if (!input) return std::nullopt;
  MulticastRequest request;
  request.input = *input;

  const Wavelength lane = network.network_model() == MulticastModel::kMSW
                              ? request.input.lane
                              : static_cast<Wavelength>(rng.next_below(k));
  const std::size_t upper = fanout.max == 0 ? N : std::min(fanout.max, N);
  const std::size_t want =
      fanout.min + rng.next_below(upper - fanout.min + 1);
  std::vector<bool> taken(N, false);
  for (int attempts = 0; attempts < 200 && request.outputs.size() < want;
       ++attempts) {
    const std::size_t port = popularity->sample(rng);
    if (taken[port]) continue;
    Wavelength dest_lane = lane;
    const std::uint64_t busy = network.output_lanes_busy(port);
    if (network.network_model() == MulticastModel::kMAW) {
      // The lowest free lane of the popular port.
      if (std::popcount(busy) == static_cast<int>(k)) continue;
      dest_lane = static_cast<Wavelength>(std::countr_zero(~busy));
    } else if (busy >> dest_lane & 1u) {
      continue;
    }
    taken[port] = true;
    request.outputs.push_back({port, dest_lane});
  }
  if (request.outputs.size() < fanout.min) return std::nullopt;
  return request;
}

ErlangStats run_erlang_sim(MultistageSwitch& sw, const ErlangConfig& config) {
  if (config.arrival_rate <= 0 || config.mean_holding <= 0 ||
      config.duration <= 0) {
    throw std::invalid_argument("run_erlang_sim: rates and duration must be > 0");
  }
  Rng rng(config.seed);
  const ZipfSampler popularity(sw.port_count(),
                               std::max(0.0, config.zipf_exponent));
  const ZipfSampler* skew =
      config.zipf_exponent > 0.0 ? &popularity : nullptr;

  ErlangStats stats;
  stats.duration = config.duration;

  // Departure calendar: time -> connection id (map keeps times ordered; ties
  // get nudged by insertion order via multimap).
  std::multimap<double, ConnectionId> departures;
  double now = 0.0;
  double next_arrival = exponential(rng, 1.0 / config.arrival_rate);
  std::size_t live = 0;

  auto advance_to = [&](double t) {
    stats.time_weighted_sessions += static_cast<double>(live) * (t - now);
    now = t;
  };

  while (true) {
    const double next_departure =
        departures.empty() ? std::numeric_limits<double>::infinity()
                           : departures.begin()->first;
    const double next_event = std::min(next_arrival, next_departure);
    if (next_event > config.duration) {
      advance_to(config.duration);
      break;
    }
    advance_to(next_event);

    if (next_arrival <= next_departure) {
      next_arrival = now + exponential(rng, 1.0 / config.arrival_rate);
      const auto request =
          skewed_admissible_request(rng, sw.network(), config.fanout, skew);
      if (!request) {
        ++stats.abandoned;
        continue;
      }
      ++stats.arrivals;
      if (const auto id = sw.try_connect(*request)) {
        ++stats.admitted;
        ++live;
        departures.emplace(now + exponential(rng, config.mean_holding), *id);
      } else {
        ++stats.blocked;
      }
    } else {
      sw.disconnect(departures.begin()->second);
      departures.erase(departures.begin());
      --live;
    }
  }
  return stats;
}

}  // namespace wdm
