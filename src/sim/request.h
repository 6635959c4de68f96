// Workload generation for the blocking simulations.
//
// Random generators produce *admissible* requests (free input wavelength,
// free + model-consistent output wavelengths) so that every failure the
// simulator observes is a genuine middle-stage routing block, not an
// endpoint collision. The scripted Fig. 10 scenario reproduces the paper's
// example of a connection that an MSW middle stage cannot carry but an MAW
// middle stage can.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "multistage/network.h"
#include "util/rng.h"

namespace wdm {

struct FanoutRange {
  std::size_t min = 1;
  /// Inclusive; clamped to the number of output ports. 0 = "up to N".
  std::size_t max = 0;
};

/// Uniform random request legal under `model` for an N-port k-lane network,
/// ignoring current occupancy (used for fabric tests and shape churn).
[[nodiscard]] MulticastRequest random_request(Rng& rng, std::size_t N, std::size_t k,
                                              MulticastModel model,
                                              FanoutRange fanout = {});

/// Random request that is admissible against the network's current endpoint
/// state (input wavelength free, all chosen output wavelengths free).
/// nullopt if no free input wavelength or no compatible output exists.
/// With `source_ports`, the input wavelength is drawn only from those ports
/// (out-of-range ports are skipped); destinations stay unrestricted. This is
/// the shard-ownership restriction of the concurrent session engine
/// (src/engine): each shard originates sessions only from the ports it owns.
[[nodiscard]] std::optional<MulticastRequest> random_admissible_request(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout = {},
    const std::vector<std::size_t>* source_ports = nullptr);
[[nodiscard]] inline std::optional<MulticastRequest> random_admissible_request(
    Rng& rng, const ThreeStageNetwork& network, FanoutRange fanout,
    const std::vector<std::size_t>& source_ports) {
  return random_admissible_request(rng, network, fanout, &source_ports);
}

/// Uniform draw among the free lanes of one port, given its busy word (bit =
/// lane, 1 = busy; see ThreeStageNetwork::output_lanes_busy): returns the
/// i-th free lane in ascending order for i = rng.next_below(free count).
/// Draws nothing and returns nullopt when all k lanes are busy.
[[nodiscard]] std::optional<Wavelength> draw_free_lane(Rng& rng, std::uint64_t busy,
                                                       std::size_t k);

/// Uniform draw among the free input wavelengths of the network, or of
/// `source_ports` when non-null (out-of-range ports are skipped); nullopt
/// without a draw when none is free.
[[nodiscard]] std::optional<WavelengthEndpoint> draw_free_input(
    Rng& rng, const ThreeStageNetwork& network,
    const std::vector<std::size_t>* source_ports = nullptr);

/// The free output wavelengths a request or a grow may take, one per port at
/// most, in port order: each port's `lane` when set (MSW, MSDW), else one
/// drawn by draw_free_lane (MAW). Ports where skip(port) holds draw nothing.
template <typename SkipPort>
[[nodiscard]] std::vector<WavelengthEndpoint> free_destinations(
    Rng& rng, const ThreeStageNetwork& network, std::optional<Wavelength> lane,
    SkipPort skip) {
  std::vector<WavelengthEndpoint> destinations;
  for (std::size_t port = 0; port < network.port_count(); ++port) {
    if (skip(port)) continue;
    const std::uint64_t busy = network.output_lanes_busy(port);
    if (lane) {
      if ((busy >> *lane & 1u) == 0) destinations.push_back({port, *lane});
    } else if (const auto free = draw_free_lane(rng, busy, network.lane_count())) {
      destinations.push_back({port, *free});
    }
  }
  return destinations;
}

/// A connection pre-installed over an explicit route (bypassing the router)
/// so scenarios can pin down the exact network state.
struct ScriptedConnection {
  MulticastRequest request;
  Route route;
};

/// The paper's Fig. 10 situation, scripted: two prior unicast connections
/// occupy lane lambda_1 on the links that matter; the challenge request
/// (fanout 2, also on lambda_1) then has no lambda_1 path through any single
/// set of middle modules under the MSW-dominant construction, while the
/// MAW-dominant construction routes it by moving to a free lane in stages
/// 1-2.
struct Fig10Scenario {
  ClosParams params;                        // n=2, r=2, m=2, k=2
  MulticastModel network_model;             // MSW at the network level
  std::vector<ScriptedConnection> prior;    // valid under both constructions
  MulticastRequest challenge;
};

[[nodiscard]] Fig10Scenario fig10_scenario();

/// Install every prior connection of a scenario into `network` (throws if
/// any route is rejected -- the scenario is construction-agnostic by design).
void install_scripted(ThreeStageNetwork& network,
                      const std::vector<ScriptedConnection>& prior);

}  // namespace wdm
