// Golden-determinism pins for the routing hot path.
//
// These tests replay the exact fixed-seed workloads of the
// `routing_msw_dominant` and `routing_maw_dominant` bench cases and assert
// the deterministic router counters bit-for-bit against the committed
// BENCH_results.json baseline. The routing hot path is heavily optimized
// (bitmask occupancy, scratch-buffer search, slot-reuse tables); any change
// that perturbs a routing *decision* -- candidate order, cover-search
// tie-breaks, lane picks -- shifts these totals and must fail here, while
// pure data-layout or speed changes keep them identical. If a future PR
// changes routing behavior ON PURPOSE, it must refresh BENCH_results.json
// and update these constants in the same commit.
//
// The same goldens also pin trace replay: the workload is captured as a
// trace and replayed op by op through try_connect/disconnect, and every
// counter must land on the identical values.
//
// Every route at those m = 13 design points needs one middle and every
// pivot has at most 13 options, so they cannot see the cover search's
// order among many options. WideRowRoutesArePinned pins that order at a
// geometry with two-word middle rows, pivots with more than 16 servers and
// multi-middle routes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "multistage/builder.h"
#include "multistage/routing.h"
#include "sim/blocking_sim.h"
#include "sim/request.h"
#include "sim/trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace wdm {
namespace {

struct GoldenCounters {
  std::uint64_t connects;
  std::uint64_t disconnects;
  std::uint64_t middle_probes;
  std::uint64_t route_attempts;
  std::uint64_t routes_found;
  std::uint64_t spread_expansions;
};

// Values from BENCH_results.json: benchmarks[routing_msw_dominant].counters
// and benchmarks[routing_maw_dominant].counters.
constexpr GoldenCounters kMswGolden{.connects = 6952,
                                    .disconnects = 6937,
                                    .middle_probes = 90376,
                                    .route_attempts = 6952,
                                    .routes_found = 6952,
                                    .spread_expansions = 6952};
constexpr GoldenCounters kMawGolden{.connects = 7021,
                                    .disconnects = 7003,
                                    .middle_probes = 98294,
                                    .route_attempts = 7021,
                                    .routes_found = 7021,
                                    .spread_expansions = 7021};

/// The bench workload geometry and sim config (full-size, default 0x5EED
/// seed) shared by the direct and trace-replay pins.
SimConfig bench_config() {
  SimConfig config;
  config.steps = 20000;
  config.self_check_every = 4096;
  return config;
}

void expect_golden(const GoldenCounters& golden) {
  EXPECT_EQ(metrics().counter("routing.connects").value(), golden.connects);
  EXPECT_EQ(metrics().counter("routing.disconnects").value(), golden.disconnects);
  EXPECT_EQ(metrics().counter("routing.middle_probes").value(),
            golden.middle_probes);
  EXPECT_EQ(metrics().counter("routing.route_attempts").value(),
            golden.route_attempts);
  EXPECT_EQ(metrics().counter("routing.routes_found").value(),
            golden.routes_found);
  EXPECT_EQ(metrics().counter("routing.spread_expansions").value(),
            golden.spread_expansions);
}

/// Run the bench workload and compare the router counters against the
/// committed baseline values.
void run_and_check(Construction construction, MulticastModel model,
                   const GoldenCounters& golden) {
  set_metrics_enabled(true);
  metrics().reset();

  auto sw = MultistageSwitch::nonblocking(4, 4, 2, construction, model);
  const SimStats stats = run_dynamic_sim(sw, bench_config());
  EXPECT_EQ(stats.blocked, 0u);  // provisioned at the theorem bound

  expect_golden(golden);
  metrics().reset();
}

/// Capture the identical workload as a trace, then replay it one op at a
/// time on a fresh switch. The router counters must hit the same goldens as
/// the direct run.
void run_replay_and_check(Construction construction, MulticastModel model,
                          const GoldenCounters& golden) {
  const auto events = record_random_workload(
      nonblocking_params(4, 4, 2, construction), construction, model,
      bench_config());

  set_metrics_enabled(true);
  metrics().reset();

  auto sw = MultistageSwitch::nonblocking(4, 4, 2, construction, model);
  std::map<std::uint64_t, ConnectionId> live;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEvent::Type::kConnect) {
      const auto id = sw.try_connect(event.request);
      ASSERT_TRUE(id.has_value());  // theorem bound: nothing blocks
      live[event.key] = *id;
    } else {
      const auto it = live.find(event.key);
      ASSERT_NE(it, live.end()) << "disconnect for an unknown trace key";
      sw.disconnect(it->second);
      live.erase(it);
    }
  }

  expect_golden(golden);
  metrics().reset();
}

TEST(GoldenCounters, MswDominantChurnIsBitIdentical) {
  run_and_check(Construction::kMswDominant, MulticastModel::kMSW, kMswGolden);
}

TEST(GoldenCounters, MawDominantChurnIsBitIdentical) {
  run_and_check(Construction::kMawDominant, MulticastModel::kMAW, kMawGolden);
}

TEST(GoldenCounters, MswDominantTraceReplayHitsTheSameGoldens) {
  run_replay_and_check(Construction::kMswDominant, MulticastModel::kMSW,
                       kMswGolden);
}

TEST(GoldenCounters, MawDominantTraceReplayHitsTheSameGoldens) {
  run_replay_and_check(Construction::kMawDominant, MulticastModel::kMAW,
                       kMawGolden);
}

/// FNV-1a over 64-bit values.
struct Fnv1a {
  std::uint64_t state = 14695981039346656037ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (value >> (8 * byte)) & 0xFF;
      state *= 1099511628211ull;
    }
  }
};

TEST(GoldenCounters, WideRowRoutesArePinned) {
  // n = 64, r = 8, m = 72, k = 1, MSW-dominant/MSW, spread 3: 72 middles
  // make every row two words, and a serve row can have up to 64 of its 72
  // middles busy, so at ~95% output load some requests have no single
  // covering middle: 287 here, and for 223 of them the search's first pivot
  // has more than 16 servers. (At n = 16 no row can lose more than 16
  // middles, and random churn never needs a second middle.) The hash
  // covers every route's branches in order -- (middle, link lane) and each
  // leg's output module -- so any change to which middle the cover search
  // tries first, including its tie-break among equal gains, moves it.
  set_metrics_enabled(true);
  metrics().reset();
  const ClosParams params{64, 8, 72, 1};
  ThreeStageNetwork network(params, Construction::kMswDominant,
                            MulticastModel::kMSW);
  Router router(network, {3, RouteSearch::kExhaustive, LanePolicy::kFirstFit});
  Rng rng(0x5EED);
  const std::size_t capacity = params.port_count() * params.k;
  std::vector<std::pair<ConnectionId, std::size_t>> live;  // id, fanout
  std::size_t busy_outputs = 0;
  std::size_t one_branch = 0;
  std::size_t multi_branch = 0;
  Fnv1a routes;
  for (std::size_t step = 0; step < 20000; ++step) {
    if (!live.empty() && busy_outputs * 20 > capacity * 19) {
      const std::size_t victim = rng.next_below(live.size());
      router.disconnect(live[victim].first);
      busy_outputs -= live[victim].second;
      live[victim] = live.back();
      live.pop_back();
      continue;
    }
    const auto request = random_admissible_request(rng, network, {1, 8});
    if (!request) continue;
    const auto id = router.try_connect(*request);
    if (!id) {
      routes.add(~0ull);
      continue;
    }
    const Route route = network.connections().at(*id).route();
    routes.add(route.branches.size());
    for (const RouteBranch& branch : route.branches) {
      routes.add(branch.middle);
      routes.add(branch.link_lane);
      for (const DeliveryLeg& leg : branch.legs) routes.add(leg.out_module);
    }
    // The exhaustive search returns a one-branch route only through the
    // full-cover fast path, and a longer one only through the DFS's
    // counting-sorted options.
    ++(route.branches.size() == 1 ? one_branch : multi_branch);
    live.emplace_back(*id, request->outputs.size());
    busy_outputs += request->outputs.size();
    if (step % 4096 == 0) network.self_check();
  }
  network.self_check();

  EXPECT_GT(one_branch, 0u);
  EXPECT_GT(multi_branch, 0u);
  EXPECT_EQ(one_branch, 9762u);
  EXPECT_EQ(multi_branch, 287u);
  EXPECT_EQ(routes.state, 8409654819566766717ull);
  EXPECT_EQ(metrics().counter("routing.route_attempts").value(), 10049u);
  EXPECT_EQ(metrics().counter("routing.routes_found").value(), 10049u);
  EXPECT_EQ(metrics().counter("routing.route_blocked").value(), 0u);
  EXPECT_EQ(metrics().counter("routing.spread_expansions").value(), 10336u);
  EXPECT_EQ(metrics().counter("routing.middle_probes").value(), 723528u);
  EXPECT_EQ(metrics().counter("routing.disconnects").value(), 9951u);
  metrics().reset();
}

}  // namespace
}  // namespace wdm
