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

std::optional<WavelengthEndpoint> draw_free_input(
    Rng& rng, const ThreeStageNetwork& network,
    const std::vector<std::size_t>* source_ports) {
  const std::size_t N = network.port_count();
  const std::size_t k = network.lane_count();
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
  return free_inputs[rng.next_below(free_inputs.size())];
}

std::optional<MulticastRequest> random_admissible_request(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout,
    const std::vector<std::size_t>* source_ports) {
  const std::size_t N = network.port_count();
  const MulticastModel model = network.network_model();
  const std::size_t upper = clamp_max_fanout(fanout, N);

  const auto input = draw_free_input(rng, network, source_ports);
  if (!input) return std::nullopt;
  MulticastRequest request;
  request.input = *input;

  // The lane the model pins every destination to: the source's under MSW;
  // under MSDW one drawn uniformly among the lanes free at some port, i.e.
  // clear in the AND of every port's busy word. MAW draws a lane per port.
  std::optional<Wavelength> lane;
  if (model == MulticastModel::kMSW) lane = request.input.lane;
  if (model == MulticastModel::kMSDW) {
    std::uint64_t busy_everywhere = ~0ull;
    for (std::size_t port = 0; port < N; ++port) {
      busy_everywhere &= network.output_lanes_busy(port);
    }
    lane = draw_free_lane(rng, busy_everywhere, network.lane_count());
    if (!lane) return std::nullopt;
  }
  const std::vector<WavelengthEndpoint> candidates =
      free_destinations(rng, network, lane, [](std::size_t) { return false; });

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
