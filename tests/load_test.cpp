// Load analysis, provisioning, extended SimStats, and lane policies.
#include "sim/load_analysis.h"

#include <gtest/gtest.h>

namespace wdm {
namespace {

TEST(SimStats, WilsonIntervalProperties) {
  SimStats stats;
  EXPECT_EQ(stats.blocking_ci95(), (std::pair<double, double>{0.0, 1.0}));
  stats.attempts = 1000;
  stats.blocked = 100;
  const auto [low, high] = stats.blocking_ci95();
  EXPECT_LT(low, 0.1);
  EXPECT_GT(high, 0.1);
  EXPECT_GT(low, 0.07);
  EXPECT_LT(high, 0.13);
  // Zero observed blocks still leave a nonzero upper bound.
  SimStats clean;
  clean.attempts = 500;
  const auto [clow, chigh] = clean.blocking_ci95();
  EXPECT_EQ(clow, 0.0);
  EXPECT_GT(chigh, 0.0);
  EXPECT_LT(chigh, 0.02);
}

TEST(SimStats, UtilizationAndConversionsAccumulate) {
  MultistageSwitch sw = MultistageSwitch::nonblocking(
      2, 2, 2, Construction::kMswDominant, MulticastModel::kMSW);
  SimConfig config;
  config.steps = 800;
  config.arrival_fraction = 0.7;
  config.seed = 5;
  const SimStats stats = run_dynamic_sim(sw, config);
  EXPECT_EQ(stats.steps, 800u);
  const double utilization = stats.mean_utilization(4 * 2);
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
  // MSW-dominant + MSW model: no conversions anywhere.
  EXPECT_EQ(stats.conversions, 0u);
  EXPECT_EQ(stats.mean_conversions(), 0.0);
}

TEST(SimStats, AggregationSumsNewFields) {
  SimStats a, b;
  a.steps = 10;
  a.active_connection_steps = 5;
  a.conversions = 2;
  b.steps = 20;
  b.active_connection_steps = 10;
  b.conversions = 3;
  a += b;
  EXPECT_EQ(a.steps, 30u);
  EXPECT_EQ(a.active_connection_steps, 15u);
  EXPECT_EQ(a.conversions, 5u);
}

TEST(LoadCurve, BlockingGrowsWithLoadBelowBound) {
  // Undersized network: blocking should be (weakly) worse at heavy load.
  const ClosParams params{3, 3, 3, 1};
  SimConfig base;
  base.steps = 2000;
  base.fanout = {2, 3};
  base.seed = 9;
  const auto points = blocking_vs_load(params, Construction::kMswDominant,
                                       MulticastModel::kMSW, RoutingPolicy{1},
                                       {0.3, 0.9}, base, 3);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LT(points[0].mean_utilization, points[1].mean_utilization);
  EXPECT_LE(points[0].stats.blocking_probability(),
            points[1].stats.blocking_probability() + 0.02);
  EXPECT_GT(points[1].stats.blocked, 0u);
}

TEST(LoadCurve, DeterministicUnderSeed) {
  const ClosParams params{2, 2, 3, 2};
  SimConfig base;
  base.steps = 400;
  base.seed = 77;
  const auto run = [&] {
    return blocking_vs_load(params, Construction::kMswDominant,
                            MulticastModel::kMSW, RoutingPolicy{1}, {0.5, 0.8},
                            base, 2);
  };
  const auto first = run();
  const auto second = run();
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].stats.attempts, second[i].stats.attempts);
    EXPECT_EQ(first[i].stats.blocked, second[i].stats.blocked);
  }
}

TEST(Provisioning, FindsSmallerMForLenientTarget) {
  SimConfig base;
  base.steps = 1200;
  base.arrival_fraction = 0.6;
  base.seed = 31;
  // 5% tolerated blocking at moderate load: should provision below the
  // worst-case bound.
  const ProvisioningResult lenient = provision_middle_stage(
      3, 3, 1, Construction::kMswDominant, MulticastModel::kMSW, base, 0.05, 2);
  EXPECT_EQ(lenient.theorem_m, theorem1_min_m(3, 3).m);
  EXPECT_LT(lenient.chosen_m, lenient.theorem_m);
  EXPECT_LE(lenient.observed_blocking, 0.05);
  EXPECT_LT(lenient.crosspoint_ratio, 1.0);

  // Zero tolerance: m may rise up to the bound but never beyond.
  const ProvisioningResult strict = provision_middle_stage(
      3, 3, 1, Construction::kMswDominant, MulticastModel::kMSW, base, 0.0, 2);
  EXPECT_GE(strict.chosen_m, lenient.chosen_m);
  EXPECT_LE(strict.chosen_m, strict.theorem_m);
  EXPECT_EQ(strict.observed_blocking, 0.0);
}

// --- lane policies -------------------------------------------------------------

TEST(LanePolicy, PreferSourceCutsConversions) {
  // MAW-dominant + MSW model: first-fit may hop lanes inside stages 1-2
  // (conversions > 0 possible); prefer-source holds the source lane when
  // free, so conversions can only be fewer.
  SimStats first_fit_total, prefer_total;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SimConfig config;
    config.steps = 1200;
    config.arrival_fraction = 0.75;
    config.seed = seed;
    {
      MultistageSwitch sw(ClosParams{2, 2, 4, 2}, Construction::kMawDominant,
                          MulticastModel::kMSW,
                          RoutingPolicy{1, RouteSearch::kExhaustive,
                                        LanePolicy::kFirstFit});
      first_fit_total += run_dynamic_sim(sw, config);
    }
    {
      MultistageSwitch sw(ClosParams{2, 2, 4, 2}, Construction::kMawDominant,
                          MulticastModel::kMSW,
                          RoutingPolicy{1, RouteSearch::kExhaustive,
                                        LanePolicy::kPreferSource});
      prefer_total += run_dynamic_sim(sw, config);
    }
  }
  EXPECT_LE(prefer_total.mean_conversions(), first_fit_total.mean_conversions());
  // Neither policy may block at the theorem bound.
  EXPECT_EQ(first_fit_total.blocked, 0u);
  EXPECT_EQ(prefer_total.blocked, 0u);
}

TEST(LanePolicy, ConversionsInRouteCountsAllStages) {
  // MAW modules at every stage, so each stage may convert.
  ThreeStageNetwork network(ClosParams{2, 2, 3, 2}, Construction::kMawDominant,
                            MulticastModel::kMAW);
  const MulticastRequest request{{0, 0}, {{2, 1}}};
  // Route: branch lane 1 (1 conversion at input module), leg lane 0
  // (1 at middle), destination lane 1 (1 at output) = 3 total.
  const Route route{{RouteBranch{0, 1, {DeliveryLeg{1, 0, {{2, 1}}}}}}};
  const ConnectionId id = network.install(request, route);
  EXPECT_EQ(conversions_in_route(network.connections().at(id)), 3u);
  network.release(id);
  // Same-lane route: zero.
  const Route flat{{RouteBranch{0, 0, {DeliveryLeg{1, 0, {{2, 0}}}}}}};
  const ConnectionId flat_id = network.install(MulticastRequest{{0, 0}, {{2, 0}}}, flat);
  EXPECT_EQ(conversions_in_route(network.connections().at(flat_id)), 0u);
}

}  // namespace
}  // namespace wdm
