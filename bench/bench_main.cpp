// Unified benchmark runner: the machine-readable perf trajectory.
//
// The per-figure bench binaries print human-readable reproductions; this
// runner executes a curated set of *performance-bearing* workloads (router
// search, dynamic blocking sims, parallel sweeps, the saturation adversary,
// the shared-converter bank, trace replay), resets the metrics registry
// around each one, and writes BENCH_results.json with a stable schema:
//
//   { "schema": "wdmcast-bench/2", "git": "<describe>", "generated_utc": ...,
//     "threads": N, "tiny": bool, "benchmarks": [
//       { "name", "params": {...}, "ok", "wall_ms",
//         "metrics": { "counters": {...}, "gauges": {...},
//                      "histograms": {...}, "timers": {...} } } ] }
//
// Schema /2 adds the "histograms" section and p50_ns/p90_ns/p99_ns on every
// timer, so the trajectory carries tails, not just totals. `bench_compare`
// diffs two artifacts under tools/bench_thresholds.json; docs/BENCHMARKS.md
// documents every field. After writing, the runner re-parses the file with
// util/json_lite and checks the required keys -- the bench-smoke ctest runs
// exactly this with --tiny.
//
// Flags: --tiny (smoke-sized parameters), --out=<path>, --filter=<substr>,
//        --list, --include-zero (emit zero-valued instruments too),
//        --trace=<path> (span timeline as Chrome trace-event JSON, for
//        Perfetto / chrome://tracing),
//        --telemetry=<path> (engine_churn's wdm-telemetry/1 timeline as JSON
//        lines; see docs/BENCHMARKS.md).
//
// Environment: WDM_FLIGHT_DUMP=<path> writes the engine benches' flight
// recorder rings there (the post-mortem artifact CI uploads).
#if defined(__linux__)
#include <malloc.h>  // mallinfo2
#endif

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/export.h"
#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "faults/availability.h"
#include "multistage/builder.h"
#include "multistage/network.h"
#include "multistage/nonblocking.h"
#include "multistage/routing.h"
#include "obs/telemetry.h"
#include "sim/blocking_sim.h"
#include "sim/converter_pool.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "util/cli.h"
#include "util/json_lite.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/trace_span.h"

using namespace wdm;

namespace {

struct BenchResult {
  std::string params_json = "{}";  // JSON object literal
  bool ok = true;
};

/// engine_churn's telemetry timeline, captured for --telemetry=<path>. The
/// runner writes it after the loop; empty when the bench was filtered out.
std::vector<std::string> g_telemetry_lines;

/// Dump every shard's flight recorder to WDM_FLIGHT_DUMP if set (append:
/// both engine benches contribute to one artifact).
void maybe_dump_flight(const engine::ShardedEngine& engine, const char* bench) {
  const char* path = std::getenv("WDM_FLIGHT_DUMP");
  if (path == nullptr || *path == '\0') return;
  std::ofstream os(path, std::ios::app);
  if (!os) {
    std::cerr << "cannot append flight dump to " << path << "\n";
    return;
  }
  os << "=== " << bench << " ===\n";
  engine.dump_flight_recorders(os);
}

/// Bytes the allocator has handed out and not yet had back (glibc
/// mallinfo2: arena chunks in use plus mmapped blocks); 0 elsewhere.
std::size_t heap_bytes_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

struct BenchCase {
  std::string name;
  std::string summary;
  std::function<BenchResult(bool tiny)> run;
};

std::string params_of(std::initializer_list<std::pair<const char*, std::size_t>>
                          numbers,
                      std::initializer_list<std::pair<const char*, const char*>>
                          strings = {}) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : numbers) {
    if (!first) os << ",";
    first = false;
    os << "\"" << key << "\":" << value;
  }
  for (const auto& [key, value] : strings) {
    if (!first) os << ",";
    first = false;
    os << "\"" << key << "\":\"" << json_escape(value) << "\"";
  }
  os << "}";
  return os.str();
}

// ---- curated workloads ----------------------------------------------------

BenchResult bench_routing_msw(bool tiny) {
  auto sw = MultistageSwitch::nonblocking(4, 4, 2, Construction::kMswDominant,
                                          MulticastModel::kMSW);
  SimConfig config;
  config.steps = tiny ? 500 : 20000;
  config.self_check_every = tiny ? 128 : 4096;
  const SimStats stats = run_dynamic_sim(sw, config);
  BenchResult result;
  result.params_json = params_of({{"n", 4},
                                  {"r", 4},
                                  {"k", 2},
                                  {"m", sw.network().params().m},
                                  {"steps", config.steps}},
                                 {{"construction", "msw-dominant"}});
  result.ok = stats.blocked == 0;  // at the Theorem 1 bound: never blocks
  return result;
}

BenchResult bench_routing_maw(bool tiny) {
  auto sw = MultistageSwitch::nonblocking(4, 4, 2, Construction::kMawDominant,
                                          MulticastModel::kMAW);
  SimConfig config;
  config.steps = tiny ? 500 : 20000;
  config.self_check_every = tiny ? 128 : 4096;
  const SimStats stats = run_dynamic_sim(sw, config);
  BenchResult result;
  result.params_json = params_of({{"n", 4},
                                  {"r", 4},
                                  {"k", 2},
                                  {"m", sw.network().params().m},
                                  {"steps", config.steps}},
                                 {{"construction", "maw-dominant"}});
  result.ok = stats.blocked == 0;  // at the Theorem 2 bound: never blocks
  return result;
}

BenchResult bench_routing_hotpath(bool tiny) {
  // Scale-up churn case: large enough (m middle modules, k lanes, 128 ports)
  // that per-connection container overhead in the connect/disconnect path is
  // visible, unlike the 4x4x2 design points above.
  auto sw = MultistageSwitch::nonblocking(8, 16, 8, Construction::kMswDominant,
                                          MulticastModel::kMSW);
  SimConfig config;
  config.steps = tiny ? 500 : 50000;
  config.self_check_every = tiny ? 256 : 16384;
  config.fanout = {1, 8};
  const SimStats stats = run_dynamic_sim(sw, config);
  BenchResult result;
  result.params_json = params_of({{"n", 8},
                                  {"r", 16},
                                  {"k", 8},
                                  {"m", sw.network().params().m},
                                  {"steps", config.steps}},
                                 {{"construction", "msw-dominant"}});
  result.ok = stats.blocked == 0;  // at the Theorem 1 bound: never blocks
  return result;
}

/// A random MSW request with fanout in [1, max_fanout] on one lane, drawn
/// by rejection. At partial load this costs O(fanout) draws, where
/// random_admissible_request's scan of every free endpoint (1M at
/// n = r = 128, k = 64) would be most of the run.
std::optional<MulticastRequest> draw_msw_request(Rng& rng,
                                                 const ThreeStageNetwork& network,
                                                 std::size_t max_fanout) {
  const std::size_t ports = network.params().port_count();
  const auto lane = static_cast<Wavelength>(rng.next_below(network.params().k));
  const auto free_port = [&](auto&& busy) -> std::optional<std::size_t> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t port = rng.next_below(ports);
      if (!busy(WavelengthEndpoint{port, lane})) return port;
    }
    return std::nullopt;
  };
  const auto input = free_port([&](const WavelengthEndpoint& e) {
    return network.input_busy(e);
  });
  if (!input) return std::nullopt;
  MulticastRequest request{{*input, lane}, {}};
  const std::size_t fanout = 1 + rng.next_below(max_fanout);
  while (request.outputs.size() < fanout) {
    const auto output = free_port([&](const WavelengthEndpoint& e) {
      if (network.output_busy(e)) return true;
      for (const auto& out : request.outputs) {
        if (out.port == e.port) return true;
      }
      return false;
    });
    if (!output) break;
    request.outputs.push_back({*output, lane});
  }
  if (request.outputs.empty()) return std::nullopt;
  return request;
}

BenchResult bench_routing_wide(bool tiny) {
  // Cover-search cost against m at the soak geometry's fabric (n = r = 128,
  // k = 64, MSW-dominant/MSW): m = 136 and m = 936, the Theorem 1 bound.
  // Each m gets a fresh network partly loaded with fanout 1-4 sessions,
  // then timed connect/disconnect churn at that load; the per-m
  // routing.find_route p50 and the share of one-middle (full-cover)
  // routes go into params. Report only: no wall-clock gate. The emitted
  // metrics are the last (m = 936) run's.
  const std::size_t n = 128;
  const std::size_t k = 64;
  const std::size_t fill = tiny ? 256 : 32768;
  const std::size_t probes = tiny ? 256 : 20000;
  const std::size_t max_fanout = 4;
  const std::size_t spread =
      Router::recommended_policy({n, n, n, k}, Construction::kMswDominant)
          .max_spread;
  struct PerM {
    std::size_t m;
    std::size_t p50_ns = 0;
    std::size_t routed = 0;
    std::size_t full_cover = 0;
    bool ok = false;
  };
  std::vector<PerM> runs{{136}, {theorem1_min_m(n, n).m}};
  for (PerM& run : runs) {
    ThreeStageNetwork network({n, n, run.m, k}, Construction::kMswDominant,
                              MulticastModel::kMSW);
    Router router(network, {spread, RouteSearch::kExhaustive, LanePolicy::kFirstFit});
    Rng rng(0x5EED);
    std::vector<ConnectionId> live;
    live.reserve(fill);
    for (std::size_t draw = 0; draw < 4 * fill && live.size() < fill; ++draw) {
      if (const auto request = draw_msw_request(rng, network, max_fanout)) {
        if (const auto id = router.try_connect(*request)) live.push_back(*id);
      }
    }
    metrics().reset();
    std::size_t blocked = 0;
    for (std::size_t probe = 0; probe < probes && !live.empty(); ++probe) {
      const auto request = draw_msw_request(rng, network, max_fanout);
      if (!request) continue;
      const auto id = router.try_connect(*request);
      if (!id) {
        ++blocked;
        continue;
      }
      ++run.routed;
      if (network.connections().at(*id).spread() == 1) {
        ++run.full_cover;
      }
      // Keep the load level: retire a random standing session per admit.
      const std::size_t victim = rng.next_below(live.size());
      router.disconnect(live[victim]);
      live[victim] = *id;
    }
    run.p50_ns = metrics().timer("routing.find_route").percentile_ns(0.5);
    run.ok = live.size() == fill && run.routed > 0 && blocked == 0;
    network.self_check();
  }

  BenchResult result;
  result.params_json = params_of({{"n", n},
                                  {"r", n},
                                  {"k", k},
                                  {"spread", spread},
                                  {"fill_sessions", fill},
                                  {"probes", probes},
                                  {"m_low", runs[0].m},
                                  {"m_bound", runs[1].m},
                                  {"find_route_p50_ns_m_low", runs[0].p50_ns},
                                  {"find_route_p50_ns_m_bound", runs[1].p50_ns},
                                  {"full_cover_m_low", runs[0].full_cover},
                                  {"full_cover_m_bound", runs[1].full_cover},
                                  {"routed_m_low", runs[0].routed},
                                  {"routed_m_bound", runs[1].routed}},
                                 {{"construction", "msw-dominant"}});
  result.ok = runs[0].ok && runs[1].ok;
  return result;
}

BenchResult bench_engine_wide(bool tiny) {
  // Engine commit cost against m at the soak geometry's fabric (n = r =
  // 128, k = 64, MSW-dominant/MSW, one shard): m = 136 and m = 936, the
  // Theorem 1 bound. Each m gets a fresh engine loaded with fanout 1-4
  // sessions, then timed disconnect + connect pairs at that load; the per-m
  // engine.disconnect_ns and engine.connect_ns p50s go into params. Both
  // include the health publish, which rewrites the header and the counts
  // of the middles the op touched, so the m = 936 disconnect should stay
  // within 1.5x of m = 136. Report only: no wall-clock gate. The emitted
  // metrics are the last (m = 936) run's.
  const std::size_t n = 128;
  const std::size_t k = 64;
  const std::size_t fill = tiny ? 256 : 32768;
  const std::size_t probes = tiny ? 256 : 20000;
  const std::size_t max_fanout = 4;
  struct PerM {
    std::size_t m;
    std::size_t disconnect_p50_ns = 0;
    std::size_t connect_p50_ns = 0;
    bool ok = false;
  };
  std::vector<PerM> runs{{136}, {theorem1_min_m(n, n).m}};
  for (PerM& run : runs) {
    engine::EngineConfig config;
    config.params = {n, n, run.m, k};
    config.shards = 1;
    engine::ShardedEngine engine(config);
    // One thread and no executor, so reading the fabric between ops is safe.
    const ThreeStageNetwork& network = engine.shard_switch(0).network();
    Rng rng(0x5EED);
    std::vector<engine::SessionId> live;
    live.reserve(fill);
    std::size_t blocked = 0;
    for (std::size_t draw = 0; draw < 4 * fill && live.size() < fill; ++draw) {
      if (const auto request = draw_msw_request(rng, network, max_fanout)) {
        if (const auto session = engine.connect(*request)) {
          live.push_back(*session);
        } else {
          ++blocked;
        }
      }
    }
    metrics().reset();
    TimerStat& disconnect_timer = metrics().timer("engine.disconnect_ns");
    TimerStat& connect_timer = metrics().timer("engine.connect_ns");
    std::size_t disconnects = 0;
    for (std::size_t probe = 0; probe < probes && !live.empty(); ++probe) {
      // Drawn before the disconnect, so it cannot reuse what that frees.
      const auto request = draw_msw_request(rng, network, max_fanout);
      if (!request) continue;
      const std::size_t victim = rng.next_below(live.size());
      {
        ScopedTimer timer(disconnect_timer);
        disconnects += engine.disconnect(live[victim]) ? 1 : 0;
      }
      std::optional<engine::SessionId> session;
      {
        ScopedTimer timer(connect_timer);
        session = engine.connect(*request);
      }
      if (session) {
        live[victim] = *session;
      } else {
        ++blocked;
        live[victim] = live.back();
        live.pop_back();
      }
    }
    run.disconnect_p50_ns = disconnect_timer.percentile_ns(0.5);
    run.connect_p50_ns = connect_timer.percentile_ns(0.5);
    engine.self_check();
    const obs::EngineHealthSnapshot snapshot = engine.health_snapshot(0);
    bool snapshot_ok = snapshot.consistent() &&
                       snapshot.sessions == live.size() &&
                       snapshot.disconnects == disconnects;
    for (std::size_t j = 0; j < run.m; ++j) {
      snapshot_ok = snapshot_ok && snapshot.middle_busy_lanes(j) ==
                                       network.middle_module(j).busy_out_lanes();
    }
    run.ok = blocked == 0 && live.size() == fill && snapshot_ok;
  }

  BenchResult result;
  result.params_json =
      params_of({{"n", n},
                 {"r", n},
                 {"k", k},
                 {"shards", 1},
                 {"fill_sessions", fill},
                 {"probes", probes},
                 {"m_low", runs[0].m},
                 {"m_bound", runs[1].m},
                 {"engine_disconnect_p50_ns_m_low", runs[0].disconnect_p50_ns},
                 {"engine_disconnect_p50_ns_m_bound", runs[1].disconnect_p50_ns},
                 {"engine_connect_p50_ns_m_low", runs[0].connect_p50_ns},
                 {"engine_connect_p50_ns_m_bound", runs[1].connect_p50_ns}},
                {{"construction", "msw-dominant"}});
  result.ok = runs[0].ok && runs[1].ok;
  return result;
}

BenchResult bench_routing_repack(bool tiny) {
  // Rearrangeable mode below the bound (DESIGN.md §3.12): provision m at 75%
  // of the Theorem 1 requirement, then run the same churn twice -- classic
  // routing, which must block down there, and repack-on-block, which should
  // drive blocking to ~zero by migrating a bounded number of standing
  // sessions per admit. The emitted metrics snapshot is the repack run
  // (repack.* counters, repack.chain_length, repack.migrate_ns).
  // m = 6 is less than half the Theorem 1 requirement (13 for n = r = 4,
  // x = 2); random churn at this load blocks reliably there, while at
  // m >= 7 only the structured adversary (bench_repack) still finds blocks.
  const NonblockingBound bound = theorem1_min_m(4, 4);
  const std::size_t m = 6;
  const ClosParams params{4, 4, m, 2};
  SimConfig config;
  config.steps = tiny ? 500 : 20000;
  config.arrival_fraction = 0.8;
  config.fanout = {1, 4};
  config.self_check_every = tiny ? 128 : 4096;

  metrics().reset();
  MultistageSwitch classic(params, Construction::kMswDominant,
                           MulticastModel::kMSW);
  const SimStats before = run_dynamic_sim(classic, config);

  metrics().reset();
  MultistageSwitch sw(params, Construction::kMswDominant,
                      MulticastModel::kMSW);
  SimConfig repack_config = config;
  repack_config.repack = true;
  const SimStats after = run_dynamic_sim(sw, repack_config);

  // Repack cost per admitted request, in hundredths of a migrated session.
  const std::size_t moves_per_admit_x100 =
      after.admitted == 0 ? 0 : after.repack_moves * 100 / after.admitted;
  BenchResult result;
  result.params_json =
      params_of({{"n", 4},
                 {"r", 4},
                 {"k", 2},
                 {"m", m},
                 {"bound_m", bound.m},
                 {"middles_saved", bound.m - m},
                 {"steps", config.steps},
                 {"classic_blocked", before.blocked},
                 {"repack_blocked", after.blocked},
                 {"repacked_admits", after.repacked_admits},
                 {"repack_moves", after.repack_moves},
                 {"moves_per_admit_x100", moves_per_admit_x100}},
                {{"construction", "msw-dominant"}});
  // Below the bound the classic router must block; repack must recover at
  // least 90% of those blocks at an average cost under one migration per
  // admitted request. Tiny runs see too few blocks to score the ratio.
  result.ok = tiny || (before.blocked > 0 && after.blocked * 10 <= before.blocked &&
                       after.repack_moves <= after.admitted);
  return result;
}

BenchResult bench_blocking_sweep(bool tiny) {
  SweepConfig config;
  config.n = tiny ? 2 : 4;
  config.r = tiny ? 2 : 4;
  config.k = 2;
  config.trials = tiny ? 2 : 4;
  config.sim.steps = tiny ? 200 : 1500;
  const std::vector<SweepPoint> points = sweep_middle_count(config);
  BenchResult result;
  result.params_json = params_of({{"n", config.n},
                                  {"r", config.r},
                                  {"k", config.k},
                                  {"trials", config.trials},
                                  {"steps", config.sim.steps},
                                  {"points", points.size()}});
  for (const SweepPoint& point : points) {
    if (point.m >= point.theorem_bound_m &&
        (point.stats.blocked != 0 || point.attack_blocked != 0)) {
      result.ok = false;  // a block at/above the bound would falsify Thm 1
    }
  }
  return result;
}

BenchResult bench_saturation_attack(bool tiny) {
  const std::size_t rounds = tiny ? 3 : 20;
  bool any_blocked = false;
  for (std::size_t round = 0; round < rounds; ++round) {
    auto sw = MultistageSwitch::nonblocking(4, 4, 2, Construction::kMswDominant,
                                            MulticastModel::kMSW);
    Rng rng(0xA77A + round);
    any_blocked |= saturation_attack(sw, rng).challenge_blocked;
  }
  BenchResult result;
  result.params_json =
      params_of({{"n", 4}, {"r", 4}, {"k", 2}, {"rounds", rounds}});
  result.ok = !any_blocked;
  return result;
}

BenchResult bench_converter_pool(bool tiny) {
  const std::size_t N = tiny ? 8 : 16;
  const std::size_t k = tiny ? 2 : 4;
  const std::size_t steps = tiny ? 400 : 4000;
  std::vector<std::size_t> pools;
  for (std::size_t pool = 0; pool <= N * k; pool += std::max<std::size_t>(1, N * k / 4)) {
    pools.push_back(pool);
  }
  if (pools.back() != N * k) pools.push_back(N * k);
  const auto points = sweep_converter_pool(N, k, pools, steps, 0x5EED);
  BenchResult result;
  result.params_json = params_of(
      {{"N", N}, {"k", k}, {"steps", steps}, {"pool_sizes", pools.size()}});
  // A full bank (C = kN, the paper's dedicated-converter MAW) can never run
  // dry, so the last ladder point must show zero converter blocks.
  result.ok = points.back().blocked_on_converters == 0;
  return result;
}

BenchResult bench_routing_ablation(bool tiny) {
  const ClosParams params =
      nonblocking_params(4, 4, 2, Construction::kMswDominant);
  const RoutingPolicy recommended = Router::recommended_policy(
      {params.n, params.r, params.m, params.k}, Construction::kMswDominant);
  SimConfig config;
  config.steps = tiny ? 300 : 8000;

  MultistageSwitch exhaustive(params, Construction::kMswDominant,
                              MulticastModel::kMSW,
                              RoutingPolicy{recommended.max_spread,
                                            RouteSearch::kExhaustive});
  const SimStats exhaustive_stats = run_dynamic_sim(exhaustive, config);

  MultistageSwitch greedy(params, Construction::kMswDominant,
                          MulticastModel::kMSW,
                          RoutingPolicy{recommended.max_spread,
                                        RouteSearch::kGreedy});
  const SimStats greedy_stats = run_dynamic_sim(greedy, config);

  BenchResult result;
  result.params_json = params_of({{"n", params.n},
                                  {"r", params.r},
                                  {"m", params.m},
                                  {"k", params.k},
                                  {"spread", recommended.max_spread},
                                  {"steps", config.steps}});
  // The greedy cover can block where the complete search cannot; never the
  // other way around on the same workload.
  result.ok = exhaustive_stats.blocked <= greedy_stats.blocked;
  return result;
}

BenchResult bench_trace_replay(bool tiny) {
  const ClosParams params = nonblocking_params(4, 4, 2, Construction::kMswDominant);
  SimConfig config;
  config.steps = tiny ? 200 : 5000;
  const std::vector<TraceEvent> events = record_random_workload(
      params, Construction::kMswDominant, MulticastModel::kMSW, config);
  MultistageSwitch sw(params, Construction::kMswDominant, MulticastModel::kMSW);
  const ReplayResult replay = replay_trace(sw, events);
  BenchResult result;
  result.params_json = params_of({{"n", params.n},
                                  {"r", params.r},
                                  {"m", params.m},
                                  {"k", params.k},
                                  {"events", events.size()}});
  // Same geometry + same offered load => the replay admits everything the
  // recording admitted (nonblocking m), with no orphaned disconnects.
  result.ok = replay.blocked == 0 && replay.unmatched_disconnects == 0;
  return result;
}

BenchResult bench_availability(bool tiny) {
  // Theorem-1 m plus two spare middles of failure budget (faults_to_bound=2):
  // single failures leave the fabric provably nonblocking.
  const NonblockingBound bound = theorem1_min_m(4, 4);
  MultistageSwitch sw({4, 4, bound.m + 2, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW, RoutingPolicy{bound.x});
  FaultModel faults(sw.network().params());
  AvailabilityConfig config;
  config.traffic.arrival_rate = 6.0;
  config.traffic.mean_holding = 1.0;
  config.traffic.duration = tiny ? 60.0 : 1200.0;
  config.traffic.fanout = {1, 4};
  config.traffic.seed = 0xFA11;
  config.faults.mtbf = tiny ? 30.0 : 150.0;
  config.faults.mttr = tiny ? 8.0 : 25.0;
  config.faults.seed = 0xFA17;
  const AvailabilityStats stats = run_availability_sim(sw, faults, config);
  BenchResult result;
  result.params_json = params_of(
      {{"n", 4},
       {"r", 4},
       {"k", 2},
       {"m", sw.network().params().m},
       {"duration", static_cast<std::size_t>(config.traffic.duration)},
       {"failures", stats.failure_events}});
  // Bookkeeping must conserve sessions, and while the degraded fabric never
  // dipped below the Theorem-1 bound every affected session restores.
  result.ok = stats.sessions_affected ==
                  stats.sessions_restored + stats.sessions_dropped &&
              stats.capacity_availability() > 0.0 &&
              stats.capacity_availability() <= 1.0;
  if (stats.min_theorem_margin >= 0) {
    result.ok = result.ok && stats.sessions_dropped == 0;
  }
  return result;
}

BenchResult bench_engine_churn(bool tiny) {
  // The tentpole contract, enforced on every artifact: multithreaded churn
  // over the sharded engine reproduces the single-threaded replay
  // bit-identically, and every stale-id probe is rejected.
  engine::EngineConfig config;
  config.params = {4, 4, 5, 2};
  config.shards = tiny ? 3 : 8;
  engine::ChurnConfig churn;
  churn.ops_per_shard = tiny ? 400 : 8000;
  churn.batch = 64;
  churn.workers = 4;
  churn.self_check_every = tiny ? 200 : 4096;

  engine::ShardedEngine engine(config);
  engine::ChurnDriver driver(engine, churn);
  ThreadPool pool(churn.workers);
  obs::TelemetryConfig telemetry;
  telemetry.interval = std::chrono::milliseconds(tiny ? 1 : 5);
  obs::TelemetrySampler sampler(engine, telemetry);
  sampler.start();
  const engine::ChurnStats threaded = driver.run(pool);
  sampler.stop();  // closing sample observes the quiesced engine

  engine::ShardedEngine replay_engine(config);
  engine::ChurnDriver replay(replay_engine, churn);
  const engine::ChurnStats serial = replay.run_serial();

  maybe_dump_flight(engine, "engine_churn");

  // The telemetry contract: the timeline's final sample must agree exactly
  // with the run's deterministic ChurnStats (the engine-side tallies and the
  // driver-side stats are independent bookkeeping of the same ops).
  g_telemetry_lines = sampler.lines();
  bool telemetry_ok = !g_telemetry_lines.empty();
  if (telemetry_ok) {
    try {
      const JsonValue last = parse_json(g_telemetry_lines.back());
      const JsonValue& totals = last.at("totals");
      telemetry_ok =
          last.at("schema").as_string() == obs::kTelemetrySchema &&
          last.at("sample").as_number() ==
              static_cast<double>(g_telemetry_lines.size() - 1) &&
          totals.at("connects").as_number() ==
              static_cast<double>(threaded.total.sim.admitted) &&
          totals.at("disconnects").as_number() ==
              static_cast<double>(threaded.total.sim.departures) &&
          totals.at("grows").as_number() ==
              static_cast<double>(threaded.total.grows) &&
          totals.at("sessions").as_number() ==
              static_cast<double>(threaded.leftover_sessions);
    } catch (const std::exception& error) {
      std::cerr << "engine_churn telemetry: " << error.what() << "\n";
      telemetry_ok = false;
    }
  }

  BenchResult result;
  result.params_json = params_of({{"n", 4},
                                  {"r", 4},
                                  {"k", 2},
                                  {"shards", config.shards},
                                  {"ops_per_shard", churn.ops_per_shard},
                                  {"workers", churn.workers},
                                  {"batch", churn.batch},
                                  {"telemetry_samples",
                                   g_telemetry_lines.size()}});
  result.ok = threaded == serial && threaded.total.stale_accepted == 0 &&
              threaded.leftover_sessions == engine.active_sessions() &&
              threaded.total.grows > 0 && telemetry_ok;
  return result;
}

BenchResult bench_obs_snapshot(bool tiny) {
  // Pins the observability overhead: a dedicated reader thread hammers
  // lock-free health_snapshot() (timed as obs.snapshot_read, p99-gated in
  // tools/bench_thresholds.json) while full-rate churn publishes at every
  // commit point, and the churn side itself stays pinned by the engine.*
  // 1.01-ratio counter gates. Every snapshot read mid-churn must be
  // internally consistent -- the seqlock's whole claim.
  engine::EngineConfig config;
  config.params = {4, 4, 5, 2};
  config.shards = tiny ? 2 : 4;
  engine::ChurnConfig churn;
  churn.ops_per_shard = tiny ? 300 : 6000;
  churn.batch = 64;
  churn.workers = 2;

  engine::ShardedEngine engine(config);
  engine::ChurnDriver driver(engine, churn);
  TimerStat& read_timer = metrics().timer("obs.snapshot_read");

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::uint64_t reads = 0;
  std::uint64_t inconsistent = 0;
  std::thread reader([&] {
    const auto sweep = [&] {
      for (std::size_t s = 0; s < engine.shard_count(); ++s) {
        ScopedTimer timer(read_timer);
        if (!engine.health_snapshot(s).consistent()) ++inconsistent;
        ++reads;
      }
    };
    sweep();
    started.store(true, std::memory_order_release);
    started.notify_one();
    while (!done.load(std::memory_order_relaxed)) sweep();
  });
  // Start handshake: the churn begins only after the reader's first sweep,
  // so reads > 0 holds however late the scheduler runs the reader.
  started.wait(false, std::memory_order_acquire);
  ThreadPool pool(churn.workers);
  const engine::ChurnStats stats = driver.run(pool);
  done.store(true, std::memory_order_relaxed);
  reader.join();

  maybe_dump_flight(engine, "obs_snapshot");

  BenchResult result;
  result.params_json = params_of({{"n", 4},
                                  {"r", 4},
                                  {"k", 2},
                                  {"shards", config.shards},
                                  {"ops_per_shard", churn.ops_per_shard},
                                  {"snapshot_reads", reads}});
  result.ok = inconsistent == 0 && reads > 0 &&
              stats.total.stale_accepted == 0;
  return result;
}

BenchResult bench_engine_queued(bool tiny) {
  // The single-writer submission path (DESIGN.md §3.13): the same churn as
  // engine_churn, but every op ships through a bounded per-shard MPSC queue
  // and executes on the ShardExecutor's workers instead of inline on its
  // submitter under the shard's claim. The determinism contract is unchanged -- the queued run must
  // reproduce the serial replay bit-identically -- and the run must light up
  // the engine.queue_depth / engine.op_wait_ns instruments that the
  // thresholds file gates.
  engine::EngineConfig config;
  config.params = {4, 4, 5, 2};
  config.shards = tiny ? 3 : 8;
  engine::ChurnConfig churn;
  churn.ops_per_shard = tiny ? 400 : 8000;
  churn.batch = 64;
  churn.workers = 4;
  churn.queued = true;
  churn.queue_depth = tiny ? 64 : 512;
  churn.self_check_every = tiny ? 200 : 4096;

  engine::ShardedEngine engine(config);
  engine::ChurnDriver driver(engine, churn);
  ThreadPool pool(1);  // queued mode submits from the calling thread
  const engine::ChurnStats queued = driver.run(pool);

  engine::ShardedEngine replay_engine(config);
  engine::ChurnDriver replay(replay_engine, churn);
  const engine::ChurnStats serial = replay.run_serial();

  maybe_dump_flight(engine, "engine_queued");

  bool instruments_ok = true;
  if (metrics_enabled()) {
    instruments_ok =
        metrics().histogram("engine.queue_depth").count() > 0 &&
        metrics().timer("engine.op_wait_ns").count() > 0;
  }

  BenchResult result;
  result.params_json = params_of({{"n", 4},
                                  {"r", 4},
                                  {"k", 2},
                                  {"shards", config.shards},
                                  {"ops_per_shard", churn.ops_per_shard},
                                  {"workers", churn.workers},
                                  {"queue_depth", churn.queue_depth}});
  result.ok = queued == serial && queued.total.stale_accepted == 0 &&
              queued.leftover_sessions == engine.active_sessions() &&
              engine.active_sessions() == engine.active_sessions_locked() &&
              queued.total.grows > 0 && instruments_ok;
  return result;
}

BenchResult bench_engine_soak(bool tiny) {
  // Miniature of bench/bench_soak.cpp, sized for the artifact: fill the
  // engine with unicast sessions to a fixed occupancy target, keep
  // lock-free find_session probes hot (timed as engine.find_session_ns)
  // while queued churn saturates the shard queues, then drain the fill and
  // check the session accounting end to end. The standalone bench_soak
  // binary runs the same shape at 1M+ sessions with an RSS budget.
  engine::EngineConfig config;
  config.params = tiny ? ClosParams{4, 8, 6, 8} : ClosParams{16, 16, 24, 64};
  config.shards = tiny ? 2 : 4;
  const std::size_t ports = config.params.port_count();
  const std::size_t lanes = config.params.k;
  const std::size_t target =
      (ports * lanes * 3) / 4;  // fill 75% of the endpoint space

  // Report-only footprint: the heap bytes the engine holds per shard before
  // it holds a session. Heap bytes, not RSS: in this multi-case process the
  // engine reuses pages earlier cases freed, so an RSS delta reads low.
  const std::size_t heap_before = heap_bytes_in_use();
  engine::ShardedEngine engine(config);
  const std::size_t empty_shard_heap_kib =
      (heap_bytes_in_use() - heap_before) / config.shards / 1024;
  std::vector<engine::SessionId> filled;
  filled.reserve(target);
  std::size_t blocked = 0;
  for (std::size_t lane = 0; lane < lanes && filled.size() < target; ++lane) {
    for (std::size_t port = 0; port < ports && filled.size() < target;
         ++port) {
      // Per-lane shifted permutation: every output endpoint is used at most
      // once, so the fill is limited by routing, not by endpoint clashes.
      const MulticastRequest request{
          {port, static_cast<Wavelength>(lane)},
          {{(port + 1 + lane) % ports, static_cast<Wavelength>(lane)}}};
      if (const auto session = engine.connect(request)) {
        filled.push_back(*session);
      } else {
        ++blocked;
      }
    }
  }
  const bool fill_ok = filled.size() >= target &&
                       engine.active_sessions() == filled.size();

  // Saturated churn with a concurrent lock-free reader: the probe thread
  // hammers find_session over the filled ids while the queued driver keeps
  // every shard queue busy. The p99 of engine.find_session_ns is the
  // "reads do not degrade under write saturation" number.
  engine::ChurnConfig churn;
  churn.ops_per_shard = tiny ? 300 : 3000;
  churn.batch = 32;
  churn.workers = tiny ? 2 : 4;
  churn.queued = true;
  churn.queue_depth = 128;
  engine::ChurnDriver driver(engine, churn);
  TimerStat& probe_timer = metrics().timer("engine.find_session_ns");
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::uint64_t probes = 0;
  std::uint64_t misdecoded = 0;
  std::thread prober([&] {
    std::size_t at = 0;
    const auto probe_once = [&] {
      const engine::SessionId id = filled[at % filled.size()];
      at += 7919;  // co-prime stride: sweep the table, not one hot line
      ScopedTimer timer(probe_timer);
      const auto probe = engine.find_session(id);
      ++probes;
      if (probe && probe->slot != ThreeStageNetwork::slot_of_id(id.connection)) {
        ++misdecoded;
      }
    };
    probe_once();
    started.store(true, std::memory_order_release);
    started.notify_one();
    while (!done.load(std::memory_order_relaxed)) probe_once();
  });
  // Start handshake: the churn begins only after the first probe, so
  // probes > 0 holds however late the scheduler runs the prober.
  started.wait(false, std::memory_order_acquire);
  ThreadPool pool(1);
  const engine::ChurnStats stats = driver.run(pool);
  done.store(true, std::memory_order_relaxed);
  prober.join();

  maybe_dump_flight(engine, "engine_soak");

  // Drain the fill; the churn's own leftovers are the only survivors.
  std::size_t drained = 0;
  for (const engine::SessionId id : filled) drained += engine.disconnect(id) ? 1 : 0;
  const bool drain_ok = drained == filled.size() &&
                        engine.active_sessions() == stats.leftover_sessions &&
                        engine.active_sessions() ==
                            engine.active_sessions_locked();
  engine.self_check();

  BenchResult result;
  result.params_json = params_of({{"n", config.params.n},
                                  {"r", config.params.r},
                                  {"k", config.params.k},
                                  {"shards", config.shards},
                                  {"fill_sessions", filled.size()},
                                  {"fill_blocked", blocked},
                                  {"ops_per_shard", churn.ops_per_shard},
                                  {"probes", probes},
                                  {"empty_shard_heap_kib", empty_shard_heap_kib}});
  result.ok = fill_ok && drain_ok && probes > 0 && misdecoded == 0 &&
              stats.total.stale_accepted == 0;
  return result;
}

const std::vector<BenchCase>& bench_cases() {
  static const std::vector<BenchCase> cases = {
      {"routing_msw_dominant",
       "dynamic churn on the Theorem 1 design point (MSW-dominant)",
       bench_routing_msw},
      {"routing_maw_dominant",
       "dynamic churn on the Theorem 2 design point (MAW-dominant)",
       bench_routing_maw},
      {"routing_hotpath",
       "scale-up churn (n=8, r=16, k=8) stressing the connect/disconnect path",
       bench_routing_hotpath},
      {"routing_wide",
       "cover-search cost at n=r=128, k=64: m=136 vs the Theorem 1 bound 936",
       bench_routing_wide},
      {"engine_wide",
       "engine disconnect/connect cost at n=r=128, k=64: m=136 vs the Theorem 1 bound 936",
       bench_engine_wide},
      {"routing_repack",
       "repack-on-block churn at half the Theorem 1 middle stage",
       bench_routing_repack},
      {"blocking_sweep", "parallel m-sweep around the Theorem 1 bound",
       bench_blocking_sweep},
      {"saturation_attack", "structured worst-case adversary rounds",
       bench_saturation_attack},
      {"converter_pool", "shared converter bank provisioning ladder",
       bench_converter_pool},
      {"routing_ablation", "exhaustive vs greedy cover search, same workload",
       bench_routing_ablation},
      {"trace_replay", "record a churn workload, replay it bit-identically",
       bench_trace_replay},
      {"availability", "Erlang traffic with MTBF/MTTR failures + restoration",
       bench_availability},
      {"engine_churn",
       "sharded concurrent churn, verified bit-identical to a serial replay",
       bench_engine_churn},
      {"obs_snapshot",
       "lock-free health snapshot reads hammered against full-rate churn",
       bench_obs_snapshot},
      {"engine_queued",
       "single-writer queued submission, bit-identical to the serial replay",
       bench_engine_queued},
      {"engine_soak",
       "bulk session fill + saturated queued churn with lock-free probes",
       bench_engine_soak},
  };
  return cases;
}

// ---- emission -------------------------------------------------------------

std::string git_describe() {
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

/// Re-parse the emitted file and check the schema contract the docs promise.
/// `full_set` adds the coverage check that only holds when nothing was
/// filtered out: the artifact must carry latency percentiles for the router
/// search, sim connect, and thread-pool task run somewhere.
bool validate_results_file(const std::string& path, std::size_t expected_entries,
                           bool full_set) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "validate: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  try {
    root = parse_json(buffer.str());
  } catch (const std::exception& error) {
    std::cerr << "validate: " << error.what() << "\n";
    return false;
  }
  try {
    if (root.at("schema").as_string() != "wdmcast-bench/2") {
      std::cerr << "validate: unexpected schema id\n";
      return false;
    }
    (void)root.at("git").as_string();
    (void)root.at("generated_utc").as_string();
    (void)root.at("threads").as_number();
    const JsonArray& benchmarks = root.at("benchmarks").as_array();
    if (benchmarks.size() < expected_entries) {
      std::cerr << "validate: expected >= " << expected_entries
                << " benchmark entries, found " << benchmarks.size() << "\n";
      return false;
    }
    std::set<std::string> timers_seen;
    for (const JsonValue& entry : benchmarks) {
      (void)entry.at("name").as_string();
      (void)entry.at("ok").as_bool();
      (void)entry.at("wall_ms").as_number();
      (void)entry.at("params").as_object();
      const JsonObject& counters =
          entry.at("metrics").at("counters").as_object();
      bool has_hot_path_counter = false;
      for (const auto& [name, value] : counters) {
        (void)value;
        if (name.starts_with("routing.") || name.starts_with("sim.") ||
            name.starts_with("sweep.") || name.starts_with("converter_pool.") ||
            name.starts_with("faults.")) {
          has_hot_path_counter = true;
          break;
        }
      }
      if (!has_hot_path_counter) {
        std::cerr << "validate: entry \"" << entry.at("name").as_string()
                  << "\" carries no routing/sim counter\n";
        return false;
      }
      // Schema /2: every emitted timer carries the percentile triple, and
      // the histograms section exists (possibly empty).
      (void)entry.at("metrics").at("histograms").as_object();
      for (const auto& [name, timer] : entry.at("metrics").at("timers").as_object()) {
        const double p50 = timer.at("p50_ns").as_number();
        const double p90 = timer.at("p90_ns").as_number();
        const double p99 = timer.at("p99_ns").as_number();
        const double max = timer.at("max_ns").as_number();
        if (!(p50 <= p90 && p90 <= p99 && p99 <= max)) {
          std::cerr << "validate: timer \"" << name
                    << "\" percentiles not monotone\n";
          return false;
        }
        timers_seen.insert(name);
      }
    }
    if (full_set) {
      for (const char* required :
           {"routing.find_route", "sim.connect", "thread_pool.task_run"}) {
        if (!timers_seen.contains(required)) {
          std::cerr << "validate: artifact carries no \"" << required
                    << "\" latency distribution\n";
          return false;
        }
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "validate: " << error.what() << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.describe("tiny", "smoke-sized parameters (the bench-smoke ctest)");
  cli.describe("out", "output path (default BENCH_results.json)");
  cli.describe("filter", "only run benchmarks whose name contains this");
  cli.describe("list", "list benchmark names and exit (honors --filter)");
  cli.describe("include-zero", "emit zero-valued instruments too");
  cli.describe("trace",
               "write the span timeline as Chrome trace-event JSON here "
               "(open in Perfetto / chrome://tracing)");
  cli.describe("telemetry",
               "write engine_churn's wdm-telemetry/1 timeline here as JSON "
               "lines (one sample per line)");
  if (cli.wants_help()) {
    std::cout << cli.help_text(
        "run_benches: unified benchmark runner -> BENCH_results.json");
    return 0;
  }
  try {
    cli.validate();
  } catch (const std::exception& error) {
    std::cerr << "run_benches: " << error.what() << " (see --help)\n";
    return 2;
  }

  const bool tiny = cli.get_bool("tiny");
  const bool include_zero = cli.get_bool("include-zero");
  const std::string out_path =
      cli.get_string("out").value_or("BENCH_results.json");
  const std::string filter = cli.get_string("filter").value_or("");
  const std::string trace_path = cli.get_string("trace").value_or("");
  const std::string telemetry_path = cli.get_string("telemetry").value_or("");

  if (cli.get_bool("list")) {
    for (const BenchCase& bench : bench_cases()) {
      if (!filter.empty() && bench.name.find(filter) == std::string::npos) {
        continue;
      }
      std::cout << bench.name << "  -  " << bench.summary << "\n";
    }
    return 0;
  }

  // The runner exists to collect telemetry: override WDM_METRICS=0.
  set_metrics_enabled(true);
  if (!trace_path.empty()) {
    set_tracing_enabled(true);
    reset_trace();
  }

  print_banner(std::cout, tiny ? "run_benches (tiny smoke parameters)"
                               : "run_benches");

  std::ostringstream body;
  Table table({"benchmark", "wall ms", "ok"});
  std::size_t entries = 0;
  bool all_ok = true;
  for (const BenchCase& bench : bench_cases()) {
    if (!filter.empty() && bench.name.find(filter) == std::string::npos) {
      continue;
    }
    metrics().reset();
    const auto start = std::chrono::steady_clock::now();
    const BenchResult result = bench.run(tiny);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const std::string snapshot = metrics().snapshot_json(include_zero);

    if (entries != 0) body << ",\n";
    body << "    {\"name\":\"" << json_escape(bench.name) << "\",\"params\":"
         << result.params_json << ",\"ok\":" << (result.ok ? "true" : "false")
         << ",\"wall_ms\":" << wall_ms << ",\"metrics\":" << snapshot << "}";
    ++entries;
    all_ok = all_ok && result.ok;
    table.add(bench.name, wall_ms, result.ok ? "yes" : "NO");
  }
  table.print(std::cout);

  if (entries == 0) {
    std::cerr << "no benchmark matches --filter=" << filter << "\n";
    return 1;
  }

  std::ostringstream document;
  document << "{\n  \"schema\":\"wdmcast-bench/2\",\n  \"git\":\""
           << json_escape(git_describe()) << "\",\n  \"generated_utc\":\""
           << utc_timestamp() << "\",\n  \"threads\":"
           << default_pool().thread_count() << ",\n  \"tiny\":"
           << (tiny ? "true" : "false") << ",\n  \"benchmarks\":[\n"
           << body.str() << "\n  ]\n}\n";
  {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << document.str();
  }
  std::cout << "\nwrote " << out_path << " (" << entries << " benchmarks)\n";

  bool trace_ok = true;
  if (!trace_path.empty()) {
    const std::string trace_json = trace_to_chrome_json();
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::cerr << "cannot write " << trace_path << "\n";
      trace_ok = false;
    } else {
      trace_out << trace_json;
      // Same contract as the results file: what we wrote must parse.
      try {
        const JsonValue trace_root = parse_json(trace_json);
        const std::size_t events = trace_root.at("traceEvents").as_array().size();
        if (events == 0) {
          std::cerr << "trace: no events recorded\n";
          trace_ok = false;
        } else {
          std::cout << "wrote " << trace_path << " (" << events
                    << " trace events, " << trace_dropped_count()
                    << " dropped; open in https://ui.perfetto.dev)\n";
        }
      } catch (const std::exception& error) {
        std::cerr << "trace validation: " << error.what() << "\n";
        trace_ok = false;
      }
    }
  }

  bool telemetry_file_ok = true;
  if (!telemetry_path.empty()) {
    if (g_telemetry_lines.empty()) {
      std::cerr << "telemetry: no samples (engine_churn filtered out?)\n";
      telemetry_file_ok = false;
    } else {
      std::ofstream telemetry_out(telemetry_path);
      if (!telemetry_out) {
        std::cerr << "cannot write " << telemetry_path << "\n";
        telemetry_file_ok = false;
      } else {
        for (const std::string& line : g_telemetry_lines) {
          telemetry_out << line << '\n';
        }
        std::cout << "wrote " << telemetry_path << " ("
                  << g_telemetry_lines.size() << " samples)\n";
      }
    }
  }

  const bool valid = validate_results_file(out_path, entries, filter.empty());
  std::cout << "schema validation: " << (valid ? "ok" : "FAILED") << "\n";
  if (!all_ok) std::cout << "NOTE: at least one benchmark reported ok=false\n";
  return (valid && all_ok && trace_ok && telemetry_file_ok) ? 0 : 1;
}
