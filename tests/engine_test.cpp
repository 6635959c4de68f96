// Sharded session engine: rendezvous port ownership (consistent-hash
// properties), the thread-safe session API incl. break-before-make grow with
// rollback, and ChurnDriver's headline guarantee -- counters bit-identical
// at any worker count, equal to a serial replay.
#include "engine/churn_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <set>
#include <string>

#include "engine/sharded_engine.h"
#include "faults/fault_model.h"
#include "faults/resilience.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm::engine {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.params = {2, 4, 3, 2};  // n=2 r=4 m=3 k=2, N=8 per shard
  config.shards = 3;
  return config;
}

TEST(RendezvousShard, DeterministicAndInRange) {
  for (std::size_t port = 0; port < 64; ++port) {
    const std::size_t shard = rendezvous_shard(port, 5);
    EXPECT_LT(shard, 5u);
    EXPECT_EQ(shard, rendezvous_shard(port, 5));
  }
  EXPECT_THROW((void)rendezvous_shard(0, 0), std::invalid_argument);
}

TEST(RendezvousShard, SpreadsPortsAcrossShards) {
  // 256 ports over 4 shards: every shard should win a healthy share. A
  // uniform hash puts ~64 on each; we only require none is starved.
  std::vector<std::size_t> owned(4, 0);
  for (std::size_t port = 0; port < 256; ++port) {
    ++owned[rendezvous_shard(port, 4)];
  }
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(owned[shard], 32u) << "shard " << shard << " starved";
    EXPECT_LT(owned[shard], 96u) << "shard " << shard << " overloaded";
  }
}

TEST(RendezvousShard, AddingAShardOnlyMovesPortsToTheNewShard) {
  // The consistent-hash property: growing S -> S+1 may move a port only if
  // the *new* shard wins it. No port ever moves between surviving shards.
  for (std::size_t shard_count = 1; shard_count < 8; ++shard_count) {
    for (std::size_t port = 0; port < 128; ++port) {
      const std::size_t before = rendezvous_shard(port, shard_count);
      const std::size_t after = rendezvous_shard(port, shard_count + 1);
      if (after != before) {
        EXPECT_EQ(after, shard_count);
      }
    }
  }
}

TEST(ShardedEngine, OwnedPortsPartitionThePortSpace) {
  const ShardedEngine engine(small_config());
  std::set<std::size_t> seen;
  for (std::size_t shard = 0; shard < engine.shard_count(); ++shard) {
    for (const std::size_t port : engine.owned_ports(shard)) {
      EXPECT_EQ(engine.shard_of(port), shard);
      EXPECT_TRUE(seen.insert(port).second) << "port owned twice: " << port;
    }
  }
  EXPECT_EQ(seen.size(), engine.port_count());
}

TEST(ShardedEngine, ConnectDisconnectRoundTrip) {
  ShardedEngine engine(small_config());
  const MulticastRequest request{{0, 0}, {{3, 0}, {5, 0}}};
  const auto session = engine.connect(request);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->shard, engine.shard_of(0));
  EXPECT_EQ(engine.active_sessions(), 1u);
  engine.self_check();

  EXPECT_TRUE(engine.disconnect(*session));
  EXPECT_EQ(engine.active_sessions(), 0u);
  // Double disconnect: cleanly rejected, nothing changes.
  EXPECT_FALSE(engine.disconnect(*session));
  engine.self_check();
}

TEST(ShardedEngine, GrowAddsADestinationUnderAFreshId) {
  ShardedEngine engine(small_config());
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());

  const GrowResult grown = engine.grow(*session, {5, 0});
  ASSERT_EQ(grown.status, GrowResult::Status::kGrown);
  EXPECT_NE(grown.connection, session->connection);
  EXPECT_EQ(engine.active_sessions(), 1u);

  // The old id is stale after the break-before-make cycle.
  EXPECT_FALSE(engine.disconnect(*session));
  EXPECT_EQ(engine.grow(*session, {6, 0}).status,
            GrowResult::Status::kStaleSession);

  // The grown session carries both destinations.
  const auto connections = engine.shard_switch(session->shard).network().connections();
  ASSERT_TRUE(connections.contains(grown.connection));
  EXPECT_EQ(connections.at(grown.connection).outputs().size(), 2u);
  engine.self_check();

  EXPECT_TRUE(engine.disconnect({session->shard, grown.connection}));
  EXPECT_EQ(engine.active_sessions(), 0u);
}

TEST(ShardedEngine, BlockedGrowRollsBackToTheOriginalRoute) {
  ShardedEngine engine(small_config());
  // Both connections must land on the same replica for one to block the
  // other's grow, so draw both source ports from one shard's owned set.
  std::size_t shard = 0;
  while (engine.owned_ports(shard).size() < 2) ++shard;
  const std::size_t source_a = engine.owned_ports(shard)[0];
  const std::size_t source_b = engine.owned_ports(shard)[1];

  const auto session = engine.connect({{source_a, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  ASSERT_EQ(session->shard, shard);
  ThreeStageNetwork& network = engine.shard_switch(session->shard).network();
  const Route route_before = network.connections().at(session->connection).route();

  // Occupy the target output so the grow cannot be admitted.
  const auto blocker = engine.connect({{source_b, 0}, {{5, 0}}});
  ASSERT_TRUE(blocker.has_value());
  ASSERT_EQ(blocker->shard, session->shard);

  const GrowResult result = engine.grow(*session, {5, 0});
  ASSERT_EQ(result.status, GrowResult::Status::kBlocked);
  // Rolled back: same route, fresh id, nothing leaked.
  ASSERT_TRUE(network.connections().contains(result.connection));
  const auto restored = network.connections().at(result.connection);
  EXPECT_EQ(restored.route(), route_before);
  EXPECT_EQ(restored.outputs().size(), 1u);
  EXPECT_EQ(engine.active_sessions(), 2u);
  engine.self_check();
}

// The health snapshot publishes each middle module's busy_out_lanes()
// instead of its per-link words. At quiescence every published count must
// equal the popcount of that middle's out_words() on every shard.
void expect_busy_matches_fabric(ShardedEngine& engine, const std::string& when) {
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const obs::EngineHealthSnapshot snapshot = engine.health_snapshot(s);
    ASSERT_TRUE(snapshot.consistent()) << when << ", shard " << s;
    const ThreeStageNetwork& network = engine.shard_switch(s).network();
    const ClosParams& params = network.params();
    ASSERT_EQ(snapshot.middle_busy.size(), params.m) << when;
    for (std::size_t j = 0; j < params.m; ++j) {
      const std::uint64_t* words = network.middle_module(j).out_words();
      std::uint64_t busy = 0;
      for (std::size_t p = 0; p < params.r; ++p) busy += std::popcount(words[p]);
      EXPECT_EQ(snapshot.middle_busy_lanes(j), busy)
          << when << ", shard " << s << ", middle " << j;
    }
  }
}

std::uint64_t published_busy(const ShardedEngine& engine) {
  std::uint64_t busy = 0;
  for (const auto& snapshot : engine.health_snapshots()) {
    busy += snapshot.busy_middle_lanes;
  }
  return busy;
}

TEST(ShardedEngine, PublishedMiddleBusyTracksEverySessionOp) {
  ShardedEngine engine(small_config());
  expect_busy_matches_fabric(engine, "empty");
  std::size_t shard = 0;
  while (engine.owned_ports(shard).size() < 2) ++shard;
  const std::size_t source_a = engine.owned_ports(shard)[0];
  const std::size_t source_b = engine.owned_ports(shard)[1];

  const auto session = engine.connect({{source_a, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  expect_busy_matches_fabric(engine, "connect");
  EXPECT_GT(published_busy(engine), 0u);

  const GrowResult grown = engine.grow(*session, {4, 0});
  ASSERT_EQ(grown.status, GrowResult::Status::kGrown);
  expect_busy_matches_fabric(engine, "grown grow");
  SessionId current{session->shard, grown.connection};

  const auto blocker = engine.connect({{source_b, 0}, {{5, 0}}});
  ASSERT_TRUE(blocker.has_value());
  const GrowResult blocked = engine.grow(current, {5, 0});
  ASSERT_EQ(blocked.status, GrowResult::Status::kBlocked);
  expect_busy_matches_fabric(engine, "blocked grow rolled back");
  current.connection = blocked.connection;

  EXPECT_FALSE(engine.disconnect(*session));
  EXPECT_EQ(engine.grow(*session, {6, 0}).status,
            GrowResult::Status::kStaleSession);
  expect_busy_matches_fabric(engine, "stale ops");

  // Blocked at home by the blocker, so the grown copy migrates to another
  // shard: both the source and the target shard republish.
  const CrossGrowResult moved = engine.grow_anywhere(current, {5, 0});
  ASSERT_EQ(moved.status, GrowResult::Status::kGrown);
  EXPECT_NE(moved.session.shard, shard);
  expect_busy_matches_fabric(engine, "grow_anywhere");

  EXPECT_TRUE(engine.disconnect(moved.session));
  EXPECT_TRUE(engine.disconnect(*blocker));
  expect_busy_matches_fabric(engine, "disconnect");
  EXPECT_EQ(published_busy(engine), 0u);
  engine.self_check();
}

TEST(ShardedEngine, PublishedMiddleBusyTracksRepackAdmitsAndRollbacks) {
  // Below the Theorem-1 bound (m = 4 < 13) with repack on: the cover search
  // fails often, repack migrates standing sessions, and every other repack
  // transaction is killed mid-chain and rolled back.
  EngineConfig config;
  config.params = {4, 4, 4, 2};
  config.shards = 1;
  config.repack.enabled = true;
  ShardedEngine engine(config);
  repack::RepackEngine& repacker = *engine.shard_switch(0).repack_engine();
  bool kill = false;
  std::size_t rollbacks = 0;
  repacker.set_failure_injection([&](std::size_t /*moves_so_far*/) {
    if (!kill) return false;
    ++rollbacks;
    return true;
  });

  Rng rng(0x8E9AC4);
  std::vector<SessionId> live;
  std::size_t repack_admits = 0;
  std::size_t attempts = 0;
  for (int step = 0; step < 4000 && (repack_admits < 3 || rollbacks < 3); ++step) {
    if (live.empty() || rng.next_bool(0.8)) {
      const auto request = random_admissible_request(
          rng, engine.shard_switch(0).network(), FanoutRange{1, 4});
      if (!request) continue;
      kill = ++attempts % 2 == 0;
      const std::size_t rollbacks_before = rollbacks;
      const auto id = engine.connect(*request);
      if (id) {
        live.push_back(*id);
        for (const auto& [old_id, new_id] : repacker.last_moved()) {
          std::find(live.begin(), live.end(), SessionId{0, old_id})->connection = new_id;
        }
        if (!repacker.last_moved().empty()) {
          ++repack_admits;
          expect_busy_matches_fabric(engine, "repack admit");
        }
      } else if (rollbacks != rollbacks_before) {
        expect_busy_matches_fabric(engine, "repack rollback");
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(engine.disconnect(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_GE(repack_admits, 3u);
  EXPECT_GE(rollbacks, 3u);
  expect_busy_matches_fabric(engine, "end of repack churn");
  engine.self_check();
}

TEST(ShardedEngine, PublishedMiddleBusyHoldsWithFailedMiddles) {
  EngineConfig config = small_config();
  config.params = {2, 4, 5, 2};  // two spare middles over Theorem 1's 3
  // Declared before the engine so the attached models outlive its shards.
  std::vector<std::unique_ptr<FaultModel>> faults;
  ShardedEngine engine(config);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    faults.push_back(std::make_unique<FaultModel>(config.params));
    faults.back()->fail_middle(s % config.params.m);
    faults.back()->fail_middle((s + 2) % config.params.m);
    engine.shard_switch(s).network().attach_fault_model(faults.back().get());
    // A stale op republishes, so the snapshot picks up the fault state even
    // on a shard that owns no source ports.
    EXPECT_FALSE(engine.disconnect({static_cast<std::uint32_t>(s), ~ConnectionId{0}}));
  }
  Rng rng(0xFA117);
  std::vector<SessionId> live;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.next_bool(0.65)) {
      const std::size_t port = rng.next_below(engine.port_count());
      const auto request = random_admissible_request(
          rng, engine.shard_switch(engine.shard_of(port)).network(),
          FanoutRange{1, 3}, {port});
      if (!request) continue;
      if (const auto id = engine.connect(*request)) live.push_back(*id);
    } else {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(engine.disconnect(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
    expect_busy_matches_fabric(engine, "faulted step " + std::to_string(step));
  }
  EXPECT_GT(published_busy(engine), 0u);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const obs::EngineHealthSnapshot snapshot = engine.health_snapshot(s);
    EXPECT_EQ(snapshot.failed_middles, 2u);
    for (const std::size_t j : {s % config.params.m, (s + 2) % config.params.m}) {
      EXPECT_EQ(snapshot.middle_busy_lanes(j), 0u) << "failed middle " << j;
    }
  }
  engine.self_check();
}

TEST(ShardedEngine, PublishedMiddleBusySpansSeveralBitsetWords) {
  // m = 72: the publish's dirty-middle bitset is two words wide. Seeded
  // churn through every engine op, then middles 0-63 of shard 0 fail and
  // restore_connections reroutes its sessions, so middles 64-71 carry them.
  EngineConfig config;
  config.params = {4, 4, 72, 2};
  config.shards = 2;
  FaultModel faults(config.params);  // declared first: outlives the engine
  ShardedEngine engine(config);
  expect_busy_matches_fabric(engine, "empty");

  Rng rng(0x72B175);
  std::vector<SessionId> live;
  std::vector<SessionId> dead;
  std::size_t grown = 0;
  std::size_t blocked = 0;
  std::size_t migrated = 0;
  bool high_middle_busy = false;
  const auto lane_of = [&](SessionId session) {
    return engine.shard_switch(session.shard).network().connections().at(
        session.connection).input().lane;
  };
  const auto retire = [&](std::size_t victim) {
    dead.push_back(live[victim]);
    live[victim] = live.back();
    live.pop_back();
  };
  for (int step = 0; step < 1200; ++step) {
    if (step == 600) {
      for (std::size_t j = 0; j < 64; ++j) faults.fail_middle(j);
      RestorationReport report;
      engine.with_shard_exclusive(0, [&] {
        engine.shard_switch(0).network().attach_fault_model(&faults);
        report = restore_connections(engine.shard_switch(0));
      });
      EXPECT_GT(report.restored.size(), 0u);
      for (SessionId& session : live) {
        if (session.shard != 0) continue;
        for (const auto& [old_id, new_id] : report.restored) {
          if (old_id == session.connection) session.connection = new_id;
        }
      }
      for (const auto& [old_id, request] : report.dropped) {
        retire(std::find(live.begin(), live.end(), SessionId{0, old_id}) - live.begin());
      }
      // The restore ran outside the engine's ops; a stale op republishes.
      EXPECT_FALSE(engine.disconnect({0, ~ConnectionId{0}}));
      expect_busy_matches_fabric(engine, "restore");
    }
    const std::uint64_t op = rng.next_below(100);
    std::string what;
    if (live.empty() || op < 45) {
      const std::size_t port = rng.next_below(engine.port_count());
      const auto request = random_admissible_request(
          rng, engine.shard_switch(engine.shard_of(port)).network(),
          FanoutRange{1, 3}, {port});
      if (!request) continue;
      if (const auto id = engine.connect(*request)) live.push_back(*id);
      what = "connect";
    } else if (op < 65) {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(engine.disconnect(live[victim]));
      retire(victim);
      what = "disconnect";
    } else if (op < 80) {
      SessionId& session = live[rng.next_below(live.size())];
      const GrowResult result = engine.grow(
          session, {rng.next_below(engine.port_count()), lane_of(session)});
      ASSERT_NE(result.status, GrowResult::Status::kStaleSession);
      ++(result.status == GrowResult::Status::kGrown ? grown : blocked);
      session.connection = result.connection;
      what = "grow";
    } else if (op < 90) {
      const std::size_t victim = rng.next_below(live.size());
      const CrossGrowResult result = engine.grow_anywhere(
          live[victim], {rng.next_below(engine.port_count()), lane_of(live[victim])});
      ASSERT_NE(result.status, GrowResult::Status::kStaleSession);
      if (result.session.shard != live[victim].shard) ++migrated;
      live[victim] = result.session;
      what = "grow_anywhere";
    } else if (!dead.empty()) {
      const SessionId stale = dead[rng.next_below(dead.size())];
      EXPECT_FALSE(engine.disconnect(stale));
      EXPECT_EQ(engine.grow(stale, {0, 0}).status, GrowResult::Status::kStaleSession);
      what = "stale ops";
    }
    expect_busy_matches_fabric(engine, what + " at step " + std::to_string(step));
    const obs::EngineHealthSnapshot snapshot = engine.health_snapshot(0);
    for (std::size_t j = 64; j < config.params.m; ++j) {
      high_middle_busy = high_middle_busy || snapshot.middle_busy_lanes(j) != 0;
    }
  }
  EXPECT_GT(grown, 0u);
  EXPECT_GT(blocked, 0u);
  EXPECT_GT(migrated, 0u);
  EXPECT_TRUE(high_middle_busy);
  engine.self_check();
}

ChurnConfig churn_config(std::size_t workers) {
  ChurnConfig config;
  config.ops_per_shard = 600;
  config.batch = 32;
  config.workers = workers;
  config.self_check_every = 200;
  return config;
}

TEST(ChurnDriver, CountersBitIdenticalAcrossWorkerCounts) {
  // The tentpole guarantee: the same engine/churn config produces the same
  // ChurnStats -- every counter, every shard -- at 1, 2, 4 and 8 workers,
  // and a serial replay agrees.
  std::optional<ChurnStats> reference;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ShardedEngine engine(small_config());
    ThreadPool pool(workers);
    ChurnDriver driver(engine, churn_config(workers));
    const ChurnStats stats = driver.run(pool);
    EXPECT_EQ(stats.leftover_sessions, engine.active_sessions());
    EXPECT_EQ(stats.total.stale_accepted, 0u);
    engine.self_check();
    if (!reference) {
      reference = stats;
    } else {
      EXPECT_EQ(stats, *reference) << "workers=" << workers << "\n got "
                                   << stats.to_string() << "\n want "
                                   << reference->to_string();
    }
  }

  ShardedEngine serial_engine(small_config());
  ChurnDriver serial_driver(serial_engine, churn_config(1));
  EXPECT_EQ(serial_driver.run_serial(), *reference);
}

TEST(ChurnDriver, ExercisesEveryOperationKind) {
  ShardedEngine engine(small_config());
  ChurnConfig config = churn_config(2);
  config.ops_per_shard = 1500;
  ChurnDriver driver(engine, config);
  ThreadPool pool(2);
  const ChurnStats stats = driver.run(pool);

  EXPECT_EQ(stats.per_shard.size(), engine.shard_count());
  EXPECT_GT(stats.total.sim.admitted, 0u);
  EXPECT_GT(stats.total.sim.departures, 0u);
  EXPECT_GT(stats.total.grows, 0u);
  EXPECT_GT(stats.total.stale_probes, 0u);
  EXPECT_EQ(stats.total.stale_rejected, stats.total.stale_probes);
  EXPECT_EQ(stats.total.stale_accepted, 0u);
  EXPECT_EQ(stats.total.sim.steps,
            engine.shard_count() * config.ops_per_shard);
}

TEST(ChurnDriver, RunsNestedInsideAPoolTaskWithoutDeadlock) {
  // Regression for the nested-parallelism deadlock: run() calls
  // parallel_for; invoked from a task already on the same pool, the old
  // ThreadPool would block forever on a 1-thread pool.
  ThreadPool pool(1);
  ShardedEngine engine(small_config());
  ChurnDriver driver(engine, churn_config(2));
  ChurnStats nested;
  auto future = pool.submit([&] { nested = driver.run(pool); });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  future.get();

  ShardedEngine reference_engine(small_config());
  ChurnDriver reference(reference_engine, churn_config(2));
  EXPECT_EQ(nested, reference.run_serial());
}

TEST(ChurnDriver, MawModelGrowsAcrossLanes) {
  EngineConfig config = small_config();
  config.construction = Construction::kMawDominant;
  config.network_model = MulticastModel::kMAW;
  config.params = {2, 4, 5, 2};  // MAW needs the Theorem 2 middle count
  ShardedEngine engine(config);
  ChurnConfig churn = churn_config(2);
  churn.ops_per_shard = 800;
  ChurnDriver driver(engine, churn);
  ThreadPool pool(2);
  const ChurnStats threaded = driver.run(pool);
  EXPECT_GT(threaded.total.grow_attempts, 0u);
  EXPECT_EQ(threaded.total.stale_accepted, 0u);

  ShardedEngine replay_engine(config);
  ChurnDriver replay(replay_engine, churn);
  EXPECT_EQ(replay.run_serial(), threaded);
}

}  // namespace
}  // namespace wdm::engine
