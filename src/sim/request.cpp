#include "sim/request.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace wdm {

namespace {

std::size_t clamp_max_fanout(FanoutRange fanout, std::size_t N) {
  const std::size_t upper = fanout.max == 0 ? N : std::min(fanout.max, N);
  if (fanout.min == 0 || fanout.min > upper) {
    throw std::invalid_argument("FanoutRange: need 1 <= min <= max <= N");
  }
  return upper;
}

}  // namespace

MulticastRequest random_request(Rng& rng, std::size_t N, std::size_t k,
                                MulticastModel model, FanoutRange fanout) {
  const std::size_t upper = clamp_max_fanout(fanout, N);
  MulticastRequest request;
  request.input.port = static_cast<std::size_t>(rng.next_below(N));
  request.input.lane = static_cast<Wavelength>(rng.next_below(k));

  const std::size_t size =
      fanout.min + static_cast<std::size_t>(rng.next_below(upper - fanout.min + 1));
  const std::vector<std::size_t> ports = rng.sample_without_replacement(N, size);

  const Wavelength common_lane = model == MulticastModel::kMSW
                                     ? request.input.lane
                                     : static_cast<Wavelength>(rng.next_below(k));
  for (const std::size_t port : ports) {
    const Wavelength lane = model == MulticastModel::kMAW
                                ? static_cast<Wavelength>(rng.next_below(k))
                                : common_lane;
    request.outputs.push_back({port, lane});
  }
  return request;
}

std::optional<Wavelength> draw_free_lane(Rng& rng, std::uint64_t busy,
                                         std::size_t k) {
  const auto free_count = k - static_cast<std::size_t>(std::popcount(busy));
  if (free_count == 0) return std::nullopt;
  // Clear the lowest `pick` free bits; bits >= k of ~busy are never reached
  // because pick < free_count.
  std::uint64_t free = ~busy;
  for (auto pick = rng.next_below(free_count); pick > 0; --pick) free &= free - 1;
  return static_cast<Wavelength>(std::countr_zero(free));
}

namespace {

/// Shared generator body; `source_ports` restricts the input-wavelength draw
/// when non-null (the engine's shard-ownership case).
std::optional<MulticastRequest> admissible_request_impl(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout,
    const std::vector<std::size_t>* source_ports) {
  const std::size_t N = network.port_count();
  const std::size_t k = network.lane_count();
  const MulticastModel model = network.network_model();
  const std::size_t upper = clamp_max_fanout(fanout, N);

  // Free input wavelengths (on the allowed source ports).
  std::vector<WavelengthEndpoint> free_inputs;
  auto collect_port = [&](std::size_t port) {
    const std::uint64_t busy = network.input_lanes_busy(port);
    for (Wavelength lane = 0; lane < k; ++lane) {
      if ((busy >> lane & 1u) == 0) free_inputs.push_back({port, lane});
    }
  };
  if (source_ports == nullptr) {
    for (std::size_t port = 0; port < N; ++port) collect_port(port);
  } else {
    for (const std::size_t port : *source_ports) {
      if (port < N) collect_port(port);
    }
  }
  if (free_inputs.empty()) return std::nullopt;
  MulticastRequest request;
  request.input = free_inputs[rng.next_below(free_inputs.size())];

  // Candidate destinations consistent with the model's lane discipline.
  auto free_output = [&](std::size_t port, Wavelength lane) {
    return (network.output_lanes_busy(port) >> lane & 1u) == 0;
  };

  std::vector<WavelengthEndpoint> candidates;  // at most one per port
  switch (model) {
    case MulticastModel::kMSW: {
      for (std::size_t port = 0; port < N; ++port) {
        if (free_output(port, request.input.lane)) {
          candidates.push_back({port, request.input.lane});
        }
      }
      break;
    }
    case MulticastModel::kMSDW: {
      // Pick the destination lane first (uniform over lanes that have at
      // least one free port), then use all ports free on it. A lane is
      // usable iff its bit is clear in some port's word, i.e. clear in the
      // AND of all of them.
      std::uint64_t busy_everywhere = ~0ull;
      for (std::size_t port = 0; port < N; ++port) {
        busy_everywhere &= network.output_lanes_busy(port);
      }
      std::vector<Wavelength> usable_lanes;
      for (Wavelength lane = 0; lane < k; ++lane) {
        if ((busy_everywhere >> lane & 1u) == 0) usable_lanes.push_back(lane);
      }
      if (usable_lanes.empty()) return std::nullopt;
      const Wavelength lane = usable_lanes[rng.next_below(usable_lanes.size())];
      for (std::size_t port = 0; port < N; ++port) {
        if (free_output(port, lane)) candidates.push_back({port, lane});
      }
      break;
    }
    case MulticastModel::kMAW: {
      for (std::size_t port = 0; port < N; ++port) {
        if (const auto lane = draw_free_lane(rng, network.output_lanes_busy(port), k)) {
          candidates.push_back({port, *lane});
        }
      }
      break;
    }
  }
  if (candidates.empty()) return std::nullopt;

  const std::size_t available = candidates.size();
  if (available < fanout.min) return std::nullopt;
  const std::size_t cap = std::min(upper, available);
  const std::size_t size =
      fanout.min + static_cast<std::size_t>(rng.next_below(cap - fanout.min + 1));
  const std::vector<std::size_t> picks =
      rng.sample_without_replacement(available, size);
  for (const std::size_t pick : picks) request.outputs.push_back(candidates[pick]);
  return request;
}

}  // namespace

std::optional<MulticastRequest> random_admissible_request(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout) {
  return admissible_request_impl(rng, network, fanout, nullptr);
}

std::optional<MulticastRequest> random_admissible_request(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout,
    const std::vector<std::size_t>& source_ports) {
  return admissible_request_impl(rng, network, fanout, &source_ports);
}

Fig10Scenario fig10_scenario() {
  Fig10Scenario scenario;
  scenario.params = ClosParams{2, 2, 2, 2};  // n=2, r=2, m=2, k=2 -> N=4
  scenario.network_model = MulticastModel::kMSW;

  // Prior A: input wavelength (port 1, λ1) -> output (port 1, λ1), routed
  // through middle 0. Occupies λ1 on links in0->mid0 and mid0->out0.
  {
    ScriptedConnection a;
    a.request.input = {1, 0};
    a.request.outputs = {{1, 0}};
    a.route.branches = {{/*middle=*/0, /*link_lane=*/0,
                         {{/*out_module=*/0, /*link_lane=*/0, {{1, 0}}}}}};
    scenario.prior.push_back(std::move(a));
  }
  // Prior B: input wavelength (port 2, λ1) -> output (port 3, λ1), routed
  // through middle 1. Occupies λ1 on links in1->mid1 and mid1->out1.
  {
    ScriptedConnection b;
    b.request.input = {2, 0};
    b.request.outputs = {{3, 0}};
    b.route.branches = {{/*middle=*/1, /*link_lane=*/0,
                         {{/*out_module=*/1, /*link_lane=*/0, {{3, 0}}}}}};
    scenario.prior.push_back(std::move(b));
  }
  // Challenge: (port 0, λ1) -> {(port 0, λ1), (port 2, λ1)}. Under
  // MSW-dominant construction the only λ1-reachable middle is mid 1 (mid 0's
  // input link lost λ1 to prior A), and mid 1 cannot reach output module 1
  // on λ1 (prior B) -- blocked. Under MAW-dominant, stage 1 moves to λ2 so
  // both middles are reachable and the pair {mid0 -> out1, mid1 -> out0}
  // covers the fanout.
  scenario.challenge.input = {0, 0};
  scenario.challenge.outputs = {{0, 0}, {2, 0}};
  return scenario;
}

void install_scripted(ThreeStageNetwork& network,
                      const std::vector<ScriptedConnection>& prior) {
  for (const auto& connection : prior) {
    network.install(connection.request, connection.route);
  }
}

}  // namespace wdm
