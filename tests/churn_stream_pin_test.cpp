// Stream pins for every churn loop over the random admissible generator.
//
// The simulator (run_dynamic_sim), the engine driver (ChurnDriver), trace
// capture (record_random_workload), the Erlang simulator (run_erlang_sim)
// and the witness search (find_blocking_witness) each draw their op
// sequence from a seeded Rng: stale probe, then arrive / grow / depart, then
// request shape or victim. These tests pin each stream's outcome exactly --
// every SimStats / ChurnStats / ErlangStats field, a hash of a recorded
// trace, one witness, and the sim.* / engine.* / routing.* registry counters
// the runs leave behind -- so a refactor of the churn step or the generator
// that moves a single draw fails here. The values were recorded from the
// code as it stood before the loops were merged into one step; a change
// that alters a stream ON PURPOSE must update them in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "multistage/builder.h"
#include "sim/blocking_sim.h"
#include "sim/trace.h"
#include "sim/traffic_models.h"
#include "sim/witness.h"
#include "util/metrics.h"

namespace wdm {
namespace {

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

std::string describe(const SimStats& s) {
  std::ostringstream os;
  os << "attempts=" << s.attempts << " admitted=" << s.admitted
     << " blocked=" << s.blocked << " departures=" << s.departures
     << " max_concurrent=" << s.max_concurrent << " steps=" << s.steps
     << " active_connection_steps=" << s.active_connection_steps
     << " conversions=" << s.conversions
     << " repacked_admits=" << s.repacked_admits
     << " repack_moves=" << s.repack_moves;
  return os.str();
}

std::string describe(const engine::ShardChurnStats& s) {
  std::ostringstream os;
  os << describe(s.sim) << " grow_attempts=" << s.grow_attempts
     << " grows=" << s.grows << " grow_blocked=" << s.grow_blocked
     << " stale_probes=" << s.stale_probes
     << " stale_rejected=" << s.stale_rejected
     << " stale_accepted=" << s.stale_accepted;
  return os.str();
}

std::string describe(const engine::ChurnStats& s) {
  std::ostringstream os;
  for (std::size_t shard = 0; shard < s.per_shard.size(); ++shard) {
    os << "[" << shard << "] " << describe(s.per_shard[shard]) << "\n";
  }
  os << "leftover=" << s.leftover_sessions;
  return os.str();
}

std::string describe(const ErlangStats& s) {
  std::ostringstream os;
  os.precision(12);
  os << "arrivals=" << s.arrivals << " admitted=" << s.admitted
     << " blocked=" << s.blocked << " abandoned=" << s.abandoned
     << " time_weighted_sessions=" << s.time_weighted_sessions
     << " duration=" << s.duration;
  return os.str();
}

/// The nonzero registry instruments a churn run leaves behind:
/// deterministic counters, plus sample count / max of the per-op histograms
/// and the sample counts of the per-op timers (their values are wall time).
std::string registry_counters() {
  std::ostringstream os;
  auto put = [&os](const char* name, std::uint64_t value) {
    if (value != 0) os << name << "=" << value << " ";
  };
  for (const char* name :
       {"sim.arrivals", "sim.admitted", "sim.blocked", "sim.departures",
        "sim.self_checks", "engine.arrivals", "engine.blocked",
        "engine.connects", "engine.disconnects", "engine.grows",
        "engine.grow_blocked", "engine.stale_rejected", "routing.connects",
        "routing.disconnects", "routing.route_attempts",
        "routing.routes_found", "routing.middle_probes"}) {
    put(name, metrics().counter(name).value());
  }
  for (const char* name :
       {"sim.request_fanout", "engine.request_fanout", "engine.grow_candidates"}) {
    const Histogram& histogram = metrics().histogram(name);
    put(name, histogram.count());
    if (histogram.count() != 0) os << "max=" << histogram.max() << " ";
  }
  for (const char* name : {"sim.connect", "sim.disconnect"}) {
    put(name, metrics().timer(name).count());
  }
  return os.str();
}

/// Fresh, enabled registry for one pinned run.
void reset_metrics() {
  set_metrics_enabled(true);
  metrics().reset();
}

SimConfig sim_config() {
  SimConfig config;
  config.steps = 3000;
  config.arrival_fraction = 0.7;
  config.fanout = {1, 4};
  config.seed = 0x5717;
  config.self_check_every = 500;
  return config;
}

struct SimCase {
  Construction construction;
  MulticastModel model;
  const char* stats;
  const char* counters;
};

// n = r = 4, k = 2, m = 6: below every Theorem bound, so blocks occur.
TEST(ChurnStreamPin, DynamicSimStatsAndCounters) {
  const SimCase cases[] = {
      {Construction::kMswDominant, MulticastModel::kMSW,
       "attempts=923 admitted=922 blocked=1 departures=901 max_concurrent=26 "
       "steps=3000 active_connection_steps=58973 conversions=0 "
       "repacked_admits=0 repack_moves=0",
       "sim.arrivals=923 sim.admitted=922 sim.blocked=1 sim.departures=901 "
       "sim.self_checks=4 routing.connects=922 routing.disconnects=901 "
       "routing.route_attempts=923 routing.routes_found=922 "
       "routing.middle_probes=5538 sim.request_fanout=923 max=4 "
       "sim.connect=923 sim.disconnect=901 "},
      {Construction::kMswDominant, MulticastModel::kMSDW,
       "attempts=975 admitted=919 blocked=56 departures=898 max_concurrent=28 "
       "steps=3000 active_connection_steps=67075 conversions=635 "
       "repacked_admits=0 repack_moves=0",
       "sim.arrivals=975 sim.admitted=919 sim.blocked=56 sim.departures=898 "
       "sim.self_checks=4 routing.connects=919 routing.disconnects=898 "
       "routing.route_attempts=975 routing.routes_found=919 "
       "routing.middle_probes=5850 sim.request_fanout=975 max=4 "
       "sim.connect=975 sim.disconnect=898 "},
      {Construction::kMawDominant, MulticastModel::kMAW,
       "attempts=901 admitted=901 blocked=0 departures=884 max_concurrent=26 "
       "steps=3000 active_connection_steps=57716 conversions=1744 "
       "repacked_admits=0 repack_moves=0",
       "sim.arrivals=901 sim.admitted=901 sim.departures=884 "
       "sim.self_checks=4 routing.connects=901 routing.disconnects=884 "
       "routing.route_attempts=901 routing.routes_found=901 "
       "routing.middle_probes=5406 sim.request_fanout=901 max=4 "
       "sim.connect=901 sim.disconnect=884 "},
  };
  for (const SimCase& c : cases) {
    reset_metrics();
    MultistageSwitch sw({4, 4, 6, 2}, c.construction, c.model);
    const SimStats stats = run_dynamic_sim(sw, sim_config());
    EXPECT_EQ(describe(stats), c.stats) << static_cast<int>(c.model);
    EXPECT_EQ(registry_counters(), c.counters) << static_cast<int>(c.model);
  }
  metrics().reset();
}

TEST(ChurnStreamPin, RepackDynamicSimStatsAndCounters) {
  reset_metrics();
  MultistageSwitch sw({4, 4, 4, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  SimConfig config = sim_config();
  config.repack = true;
  const SimStats stats = run_dynamic_sim(sw, config);
  EXPECT_GT(stats.repacked_admits, 0u);
  EXPECT_EQ(describe(stats),
            "attempts=990 admitted=918 blocked=72 departures=899 "
            "max_concurrent=27 steps=3000 active_connection_steps=58587 "
            "conversions=0 repacked_admits=220 repack_moves=643");
  EXPECT_EQ(registry_counters(),
            "sim.arrivals=990 sim.admitted=918 sim.blocked=72 "
            "sim.departures=899 sim.self_checks=2 routing.connects=1952 "
            "routing.disconnects=2385 routing.route_attempts=3411 "
            "routing.routes_found=1952 routing.middle_probes=13644 "
            "sim.request_fanout=990 max=4 sim.connect=990 sim.disconnect=899 ");
  metrics().reset();
}

engine::ChurnConfig churn_config() {
  engine::ChurnConfig config;
  config.ops_per_shard = 1500;
  config.batch = 32;
  config.workers = 1;
  config.fanout = {1, 4};
  config.seed = 0xD21E;
  config.self_check_every = 500;
  return config;
}

TEST(ChurnStreamPin, ChurnDriverSerialStatsAndCounters) {
  const SimCase cases[] = {
      {Construction::kMswDominant, MulticastModel::kMSW,
       "[0] attempts=450 admitted=448 blocked=2 departures=429 "
       "max_concurrent=20 steps=1500 active_connection_steps=23506 "
       "conversions=0 repacked_admits=0 repack_moves=0 grow_attempts=130 "
       "grows=60 grow_blocked=70 stale_probes=57 stale_rejected=57 "
       "stale_accepted=0\n"
       "[1] attempts=452 admitted=452 blocked=0 departures=440 "
       "max_concurrent=12 steps=1500 active_connection_steps=16233 "
       "conversions=0 repacked_admits=0 repack_moves=0 grow_attempts=162 "
       "grows=110 grow_blocked=52 stale_probes=67 stale_rejected=67 "
       "stale_accepted=0\n"
       "leftover=31",
       "engine.arrivals=902 engine.blocked=2 engine.connects=900 "
       "engine.disconnects=869 engine.grows=170 engine.grow_blocked=122 "
       "engine.stale_rejected=124 routing.connects=1070 "
       "routing.disconnects=869 routing.route_attempts=1072 "
       "routing.routes_found=1070 routing.middle_probes=6432 "
       "engine.request_fanout=902 max=4 engine.grow_candidates=292 max=14 "},
      {Construction::kMswDominant, MulticastModel::kMSDW,
       "[0] attempts=453 admitted=443 blocked=10 departures=433 "
       "max_concurrent=20 steps=1500 active_connection_steps=26174 "
       "conversions=357 repacked_admits=0 repack_moves=0 grow_attempts=150 "
       "grows=55 grow_blocked=95 stale_probes=73 stale_rejected=73 "
       "stale_accepted=0\n"
       "[1] attempts=441 admitted=441 blocked=0 departures=429 "
       "max_concurrent=12 steps=1500 active_connection_steps=16555 "
       "conversions=498 repacked_admits=0 repack_moves=0 grow_attempts=152 "
       "grows=113 grow_blocked=39 stale_probes=54 stale_rejected=54 "
       "stale_accepted=0\n"
       "leftover=22",
       "engine.arrivals=894 engine.blocked=10 engine.connects=884 "
       "engine.disconnects=862 engine.grows=168 engine.grow_blocked=134 "
       "engine.stale_rejected=127 routing.connects=1052 "
       "routing.disconnects=862 routing.route_attempts=1063 "
       "routing.routes_found=1052 routing.middle_probes=6378 "
       "engine.request_fanout=894 max=4 engine.grow_candidates=302 max=12 "},
      {Construction::kMawDominant, MulticastModel::kMAW,
       "[0] attempts=473 admitted=473 blocked=0 departures=456 "
       "max_concurrent=20 steps=1500 active_connection_steps=21962 "
       "conversions=1011 repacked_admits=0 repack_moves=0 grow_attempts=146 "
       "grows=81 grow_blocked=65 stale_probes=64 stale_rejected=64 "
       "stale_accepted=0\n"
       "[1] attempts=444 admitted=444 blocked=0 departures=433 "
       "max_concurrent=12 steps=1500 active_connection_steps=16331 "
       "conversions=989 repacked_admits=0 repack_moves=0 grow_attempts=148 "
       "grows=117 grow_blocked=31 stale_probes=63 stale_rejected=63 "
       "stale_accepted=0\n"
       "leftover=28",
       "engine.arrivals=917 engine.connects=917 engine.disconnects=889 "
       "engine.grows=198 engine.grow_blocked=96 engine.stale_rejected=127 "
       "routing.connects=1115 routing.disconnects=889 "
       "routing.route_attempts=1115 routing.routes_found=1115 "
       "routing.middle_probes=6690 engine.request_fanout=917 max=4 "
       "engine.grow_candidates=294 max=15 "},
  };
  for (const SimCase& c : cases) {
    reset_metrics();
    engine::EngineConfig config;
    config.params = {4, 4, 6, 2};
    config.construction = c.construction;
    config.network_model = c.model;
    config.shards = 2;
    engine::ShardedEngine engine(config);
    engine::ChurnDriver driver(engine, churn_config());
    const engine::ChurnStats stats = driver.run_serial();
    EXPECT_EQ(describe(stats), c.stats) << static_cast<int>(c.model);
    EXPECT_EQ(registry_counters(), c.counters) << static_cast<int>(c.model);
  }
  metrics().reset();
}

TEST(ChurnStreamPin, RecordedWorkloadHash) {
  reset_metrics();
  const auto events = record_random_workload(
      {4, 4, 6, 2}, Construction::kMswDominant, MulticastModel::kMSW,
      sim_config());
  Fnv1a hash;
  for (const TraceEvent& event : events) {
    hash.add(event.type == TraceEvent::Type::kConnect ? 1 : 2);
    hash.add(event.key);
    if (event.type != TraceEvent::Type::kConnect) continue;
    hash.add(event.request.input.port);
    hash.add(event.request.input.lane);
    hash.add(event.request.outputs.size());
    for (const WavelengthEndpoint& out : event.request.outputs) {
      hash.add(out.port);
      hash.add(out.lane);
    }
  }
  EXPECT_EQ(events.size(), 1824u);
  EXPECT_EQ(hash.state, 7143222774309295126ull);
  EXPECT_EQ(registry_counters(),
            "routing.connects=922 routing.disconnects=901 "
            "routing.route_attempts=923 routing.routes_found=922 "
            "routing.middle_probes=5538 ");
  metrics().reset();
}

TEST(ChurnStreamPin, ErlangSimStats) {
  for (const double zipf : {0.0, 1.0}) {
    reset_metrics();
    MultistageSwitch sw({4, 4, 4, 2}, Construction::kMswDominant,
                        MulticastModel::kMSW);
    ErlangConfig config;
    config.arrival_rate = 20.0;
    config.mean_holding = 1.0;
    config.duration = 200.0;
    config.fanout = {1, 4};
    config.zipf_exponent = zipf;
    config.seed = 0xE12;
    const ErlangStats stats = run_erlang_sim(sw, config);
    EXPECT_EQ(describe(stats),
              zipf == 0.0
                  ? "arrivals=3078 admitted=2507 blocked=571 abandoned=856 "
                    "time_weighted_sessions=2486.91211507 duration=200"
                  : "arrivals=2858 admitted=2393 blocked=465 abandoned=1137 "
                    "time_weighted_sessions=2476.42068051 duration=200")
        << "zipf=" << zipf;
    EXPECT_EQ(registry_counters(),
              zipf == 0.0
                  ? "routing.connects=2507 routing.disconnects=2496 "
                    "routing.route_attempts=3078 routing.routes_found=2507 "
                    "routing.middle_probes=12312 "
                  : "routing.connects=2393 routing.disconnects=2380 "
                    "routing.route_attempts=2858 routing.routes_found=2393 "
                    "routing.middle_probes=11432 ")
        << "zipf=" << zipf;
  }
  metrics().reset();
}

// The saturation adversary (phase A) does not block this geometry, so the
// witness comes from phase B's churn and routability probes.
TEST(ChurnStreamPin, SeededBlockingWitness) {
  reset_metrics();
  WitnessSearchConfig config;
  config.churn_steps = 800;
  config.probes_per_step = 2;
  config.restarts = 3;
  config.seed = 0x3E7;
  const auto witness =
      find_blocking_witness({3, 3, 4, 2}, Construction::kMawDominant,
                            MulticastModel::kMAW, RoutingPolicy{1}, config);
  ASSERT_TRUE(witness.has_value());
  Fnv1a hash;
  for (const auto& [request, route] : witness->state) {
    hash.add(request.input.port);
    hash.add(request.input.lane);
    for (const WavelengthEndpoint& out : request.outputs) {
      hash.add(out.port);
      hash.add(out.lane);
    }
    for (const RouteBranch& branch : route.branches) {
      hash.add(branch.middle);
      hash.add(branch.link_lane);
    }
  }
  EXPECT_EQ(witness->state.size(), 12u);
  std::ostringstream blocked;
  blocked << witness->blocked_request.input.port << ":"
          << witness->blocked_request.input.lane << " ->";
  for (const WavelengthEndpoint& out : witness->blocked_request.outputs) {
    blocked << " " << out.port << ":" << out.lane;
  }
  EXPECT_EQ(blocked.str(), "7:1 -> 1:0 4:0");
  EXPECT_EQ(hash.state, 3808984671850525090ull);
  EXPECT_EQ(registry_counters(),
            "routing.connects=548 routing.disconnects=512 "
            "routing.route_attempts=1983 routing.routes_found=1982 "
            "routing.middle_probes=7932 ");
  metrics().reset();
}

}  // namespace
}  // namespace wdm
