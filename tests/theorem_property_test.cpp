// Theorems 1-2 as executable properties.
//
// With m = theorem1_min_m(n, r) (MSW-dominant) or theorem2_min_m(n, r, k)
// (MAW-dominant) middle modules and the bound's spread x, no admissible
// request may ever come back kBlocked. The fixed design points of
// sim_test's TheoremValidation and witness_test's NoWitnessAtTheoremBound
// are single points of this; here the geometry is drawn at random (n, r in
// [2, 4], k in [1, 3]) for both constructions x MSW/MSDW/MAW. Each case runs
// the structured saturation_attack on a fresh switch, then random churn on
// the attacked switch -- arrivals of every fanout up to N, departures, and
// grow-style release + re-route of a request with one more destination --
// and asserts that every admissible request is admitted and that
// self_check() holds after every operation. Seeded; no wall clock, no
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "multistage/builder.h"
#include "sim/blocking_sim.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {
namespace {

/// A free destination on a port `request` does not use yet, under the
/// network model's lane rule; nullopt when none is free.
std::optional<WavelengthEndpoint> extra_output(Rng& rng, const ThreeStageNetwork& network,
                                               const MulticastRequest& request) {
  const std::size_t N = network.port_count();
  const std::size_t start = rng.next_below(N);
  for (std::size_t step = 0; step < N; ++step) {
    const std::size_t port = (start + step) % N;
    if (std::any_of(request.outputs.begin(), request.outputs.end(),
                    [port](const auto& out) { return out.port == port; })) {
      continue;
    }
    const std::uint64_t busy = network.output_lanes_busy(port);
    std::optional<Wavelength> lane;
    switch (network.network_model()) {
      case MulticastModel::kMSW: lane = request.input.lane; break;
      case MulticastModel::kMSDW: lane = request.outputs.front().lane; break;
      case MulticastModel::kMAW: lane = draw_free_lane(rng, busy, network.lane_count()); break;
    }
    if (lane && (busy >> *lane & 1u) == 0) return WavelengthEndpoint{port, *lane};
  }
  return std::nullopt;
}

class TheoremProperty
    : public ::testing::TestWithParam<std::tuple<Construction, MulticastModel>> {};

TEST_P(TheoremProperty, AdmissibleRequestsNeverBlockAtTheBound) {
  const auto [construction, model] = GetParam();
  Rng geometry_rng(0x7E0 + 5 * static_cast<std::uint64_t>(construction) +
                   static_cast<std::uint64_t>(model));
  std::size_t admitted = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + geometry_rng.next_below(3);
    const std::size_t r = 2 + geometry_rng.next_below(3);
    const std::size_t k = 1 + geometry_rng.next_below(3);
    const NonblockingBound bound = construction == Construction::kMswDominant
                                       ? theorem1_min_m(n, r)
                                       : theorem2_min_m(n, r, k);
    const ClosParams params{n, r, bound.m, k};
    SCOPED_TRACE(params.to_string() + " x=" + std::to_string(bound.x));
    MultistageSwitch sw(params, construction, model, RoutingPolicy{bound.x});
    ThreeStageNetwork& network = sw.network();
    Rng rng = geometry_rng.split(static_cast<std::uint64_t>(trial));

    const AttackResult attack = saturation_attack(sw, rng);
    ASSERT_FALSE(attack.challenge_blocked) << attack.to_string();
    network.self_check();

    std::vector<ConnectionId> live;
    for (const auto& [id, entry] : network.connections()) live.push_back(id);
    for (int step = 0; step < 300; ++step) {
      const double op = rng.next_double();
      if (live.empty() || op < 0.55) {
        const auto request = random_admissible_request(rng, network, FanoutRange{1, 0});
        if (!request) continue;
        ASSERT_EQ(network.check_admissible(*request), std::nullopt);
        const auto id = sw.try_connect(*request);
        ASSERT_TRUE(id.has_value()) << "blocked at the bound: " << request->to_string();
        live.push_back(*id);
        ++admitted;
      } else {
        const std::size_t victim = rng.next_below(live.size());
        if (op < 0.8) {
          sw.disconnect(live[victim]);
          live[victim] = live.back();
          live.pop_back();
        } else {
          // Grow: release, then the request plus one destination must route.
          MulticastRequest grown = network.find_connection(live[victim])->first;
          sw.disconnect(live[victim]);
          if (const auto extra = extra_output(rng, network, grown)) {
            grown.outputs.push_back(*extra);
          }
          ASSERT_EQ(network.check_admissible(grown), std::nullopt);
          const auto id = sw.try_connect(grown);
          ASSERT_TRUE(id.has_value()) << "grow blocked at the bound: " << grown.to_string();
          live[victim] = *id;
          ++admitted;
        }
      }
      ASSERT_NO_THROW(network.self_check()) << "step " << step;
    }
  }
  EXPECT_GT(admitted, 3000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TheoremProperty,
    ::testing::Combine(::testing::Values(Construction::kMswDominant,
                                         Construction::kMawDominant),
                       ::testing::Values(MulticastModel::kMSW, MulticastModel::kMSDW,
                                         MulticastModel::kMAW)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Construction::kMswDominant
                             ? "MswDominant"
                             : "MawDominant") +
             model_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wdm
