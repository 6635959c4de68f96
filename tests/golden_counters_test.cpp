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
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "multistage/builder.h"
#include "sim/blocking_sim.h"
#include "sim/trace.h"
#include "util/metrics.h"

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

}  // namespace
}  // namespace wdm
