// Single-writer shard execution (DESIGN.md §3.13): the MPSC submission
// queue, the ShardExecutor's exclusivity + FIFO guarantees, queued-mode
// ChurnDriver determinism across worker counts and queue depths, cross-shard
// grow (two-phase, with deterministic rollback via the test hook), and the
// lock-free read surface (is_active / find_session / admission_precheck /
// snapshot-spine active_sessions) agreeing with locked ground truth.
//
// Runs under the tsan ctest label: the exclusivity handoff (claim-flag
// release/acquire) and the ticket publication are exactly the kind of
// protocol TSan can falsify.
#include "engine/shard_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "util/mpsc_queue.h"

namespace wdm::engine {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.params = {2, 4, 3, 2};  // n=2 r=4 m=3 k=2, N=8 per shard
  config.shards = 3;
  return config;
}

// -- BoundedMpscQueue ---------------------------------------------------------

TEST(BoundedMpscQueue, FifoAndBoundedSingleThreaded) {
  BoundedMpscQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(queue.try_pop(out));  // empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));  // full: backpressure, not overwrite
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(queue.try_pop(out));
  // Wraparound: the ring stays usable after full/empty cycles.
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(queue.try_push(round));
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, round);
  }
}

TEST(BoundedMpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BoundedMpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedMpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(BoundedMpscQueue<int>(64).capacity(), 64u);
}

TEST(BoundedMpscQueue, MultiProducerSingleConsumerDeliversEverything) {
  // 4 producers x 2000 items through a deliberately tiny ring: heavy
  // full/empty churn, every item delivered exactly once.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  BoundedMpscQueue<std::uint64_t> queue(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t item =
            (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(i);
        while (!queue.try_push(item)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint32_t> next(kProducers, 0);  // per-producer FIFO check
  std::size_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t item = 0;
    if (!queue.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    const auto producer = static_cast<std::size_t>(item >> 32);
    const auto seq = static_cast<std::uint32_t>(item & 0xFFFFFFFFu);
    ASSERT_LT(producer, static_cast<std::size_t>(kProducers));
    EXPECT_EQ(seq, next[producer]);  // per-producer order preserved
    ++next[producer];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  std::uint64_t leftover = 0;
  EXPECT_FALSE(queue.try_pop(leftover));
}

// -- ShardExecutor op round-trips --------------------------------------------

TEST(ShardExecutor, PublicSessionApiRoutesThroughTheExecutor) {
  ShardedEngine engine(small_config());
  ShardExecutor executor(engine, {.workers = 2, .queue_capacity = 16});
  ASSERT_EQ(engine.executor(), &executor);

  const auto session = engine.connect({{0, 0}, {{3, 0}, {5, 0}}});
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(engine.active_sessions(), 1u);
  EXPECT_TRUE(engine.is_active(*session));

  const GrowResult grown = engine.grow(*session, {6, 0});
  ASSERT_EQ(grown.status, GrowResult::Status::kGrown);
  EXPECT_FALSE(engine.is_active(*session));  // break-before-make renewed id
  EXPECT_TRUE(engine.is_active({session->shard, grown.connection}));

  engine.self_check();  // executor-mode self_check runs as owned tasks

  EXPECT_TRUE(engine.disconnect({session->shard, grown.connection}));
  EXPECT_FALSE(engine.disconnect({session->shard, grown.connection}));
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_GE(executor.executed_ops(), 5u);
}

TEST(ShardExecutor, DetachesOnDestruction) {
  ShardedEngine engine(small_config());
  {
    ShardExecutor executor(engine, {.workers = 1});
    EXPECT_EQ(engine.executor(), &executor);
  }
  EXPECT_EQ(engine.executor(), nullptr);
  // Mutex mode works again after detach.
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(engine.disconnect(*session));
}

TEST(ShardExecutor, ConcurrentSubmittersOnEveryShard) {
  // 8 client threads hammer connect/disconnect through the queues; the
  // engine must stay consistent (self_check) and end empty. TSan-audited
  // exclusivity is the real assertion here.
  ShardedEngine engine(small_config());
  ShardExecutor executor(engine, {.workers = 3, .queue_capacity = 8});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, t] {
      const std::size_t port = static_cast<std::size_t>(t) % 8;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto session = engine.connect(
            {{port, static_cast<Wavelength>(t % 2)}, {{(port + 3) % 8, 0}}});
        if (session) {
          EXPECT_TRUE(engine.is_active(*session));
          EXPECT_TRUE(engine.disconnect(*session));
          EXPECT_FALSE(engine.is_active(*session));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  executor.quiesce();
  engine.self_check();
  EXPECT_EQ(engine.active_sessions(), 0u);
}

// -- queued-mode ChurnDriver determinism -------------------------------------

ChurnConfig queued_churn_config(std::size_t workers, std::size_t queue_depth) {
  ChurnConfig config;
  config.ops_per_shard = 1200;
  config.batch = 32;
  config.workers = workers;
  config.queued = true;
  config.queue_depth = queue_depth;
  config.self_check_every = 400;
  return config;
}

TEST(QueuedChurn, BitIdenticalAcrossWorkersAndQueueDepths) {
  // The tentpole's determinism gate: ChurnStats -- every counter, every
  // shard -- identical for any (workers, queue_depth) on the queued path,
  // and identical to the serial replay and the locked path.
  std::optional<ChurnStats> reference;
  {
    ShardedEngine engine(small_config());
    ChurnDriver driver(engine, queued_churn_config(1, 1024));
    reference = driver.run_serial();
  }
  {
    // Locked (mutex) path agreement.
    ShardedEngine engine(small_config());
    ChurnConfig locked = queued_churn_config(2, 1024);
    locked.queued = false;
    ChurnDriver driver(engine, locked);
    EXPECT_EQ(driver.run(), *reference) << "locked path diverged";
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const std::size_t queue_depth : {2u, 64u}) {
      ShardedEngine engine(small_config());
      ChurnDriver driver(engine, queued_churn_config(workers, queue_depth));
      const ChurnStats stats = driver.run();
      EXPECT_EQ(stats, *reference)
          << "workers=" << workers << " queue_depth=" << queue_depth
          << "\n got " << stats.to_string() << "\n want "
          << reference->to_string();
      EXPECT_EQ(stats.total.stale_accepted, 0u);
      // Post-run the executor has detached; locked and snapshot counts agree.
      EXPECT_EQ(engine.executor(), nullptr);
      EXPECT_EQ(engine.active_sessions(), engine.active_sessions_locked());
    }
  }
}

// -- lock-free read surface ---------------------------------------------------

TEST(LockFreeReads, FindSessionAndPrecheck) {
  ShardedEngine engine(small_config());
  EXPECT_FALSE(engine.is_active({99, 1}));  // out-of-range shard
  EXPECT_FALSE(engine.find_session({0, 0}).has_value());

  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  const auto probe = engine.find_session(*session);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->shard, session->shard);
  EXPECT_EQ(probe->slot, ThreeStageNetwork::slot_of_id(session->connection));
  EXPECT_EQ(probe->generation,
            ThreeStageNetwork::generation_of_id(session->connection));
  EXPECT_GE(probe->generation, 1u);

  const std::int64_t expected_margin =
      static_cast<std::int64_t>(engine.config().params.m) -
      static_cast<std::int64_t>(engine.theorem_bound().m);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const AdmissionPrecheck pre = engine.admission_precheck(s);
    EXPECT_GT(pre.version, 0u);  // construction published
    EXPECT_EQ(pre.margin, expected_margin);  // no faults injected
    EXPECT_EQ(pre.admit, expected_margin >= 0);
    EXPECT_EQ(pre.sessions, s == session->shard ? 1u : 0u);
  }

  ASSERT_TRUE(engine.disconnect(*session));
  EXPECT_FALSE(engine.find_session(*session).has_value());
}

TEST(LockFreeReads, ActiveSessionsAgreesWithLockedAtQuiescence) {
  // Satellite 1's agreement gate: drive real churn, then compare the
  // snapshot-spine sum against the per-shard locked ground truth.
  ShardedEngine engine(small_config());
  ChurnConfig config;
  config.ops_per_shard = 1500;
  config.workers = 4;
  ChurnDriver driver(engine, config);
  const ChurnStats stats = driver.run();
  EXPECT_EQ(engine.active_sessions(), engine.active_sessions_locked());
  EXPECT_EQ(engine.active_sessions(), stats.leftover_sessions);
}

// -- cross-shard grow ---------------------------------------------------------

/// A source-shard session plus a target shard distinct from its home.
struct CrossPair {
  SessionId session;
  std::size_t target;
};

CrossPair connect_for_migration(ShardedEngine& engine) {
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  EXPECT_TRUE(session.has_value());
  const std::size_t target = (session->shard + 1) % engine.shard_count();
  return {*session, target};
}

TEST(CrossShardGrow, MigratesTheSessionToTheTargetShard) {
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);

  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_EQ(result.session.shard, pair.target);
  EXPECT_TRUE(engine.is_active(result.session));
  EXPECT_FALSE(engine.is_active(pair.session));  // original released
  EXPECT_EQ(engine.active_sessions(), 1u);

  // The migrated session carries both destinations on the target replica.
  const auto* entry = engine.shard_switch(pair.target)
                          .network()
                          .find_connection(result.session.connection);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->first.outputs.size(), 2u);
  engine.self_check();
  EXPECT_TRUE(engine.disconnect(result.session));
}

TEST(CrossShardGrow, StaleSessionRejectedUpFront) {
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  ASSERT_TRUE(engine.disconnect(pair.session));
  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  EXPECT_EQ(result.status, GrowResult::Status::kStaleSession);
  EXPECT_EQ(engine.active_sessions(), 0u);
  engine.self_check();
}

TEST(CrossShardGrow, BlockedTargetLeavesTheOriginalUntouched) {
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  // Saturate the migrated request's input endpoint on the target replica:
  // a session from THIS engine cannot do it (port 0 belongs to the source
  // shard), but the replica is directly reachable for the setup.
  auto& target_switch = engine.shard_switch(pair.target);
  const auto blocker = target_switch.try_connect({{0, 0}, {{7, 0}}});
  ASSERT_TRUE(blocker.has_value());

  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  EXPECT_EQ(result.status, GrowResult::Status::kBlocked);
  EXPECT_EQ(result.session, pair.session);       // same id, nothing renewed
  EXPECT_TRUE(engine.is_active(pair.session));   // original untouched
  engine.self_check();
}

TEST(CrossShardGrow, ConcurrentDisconnectTriggersRollback) {
  // Deterministic rollback: the between-phases hook tears the original down
  // after the grown copy was admitted, so phase 3 must lose the generation
  // race and roll the copy back.
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  bool hook_ran = false;
  engine.cross_grow_between_phases_hook = [&](SessionId original,
                                              SessionId grown) {
    hook_ran = true;
    EXPECT_EQ(grown.shard, pair.target);
    EXPECT_TRUE(engine.is_active(grown));  // make-before-break: copy is live
    EXPECT_TRUE(engine.disconnect(original));
  };
  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(result.status, GrowResult::Status::kStaleSession);
  EXPECT_EQ(engine.active_sessions(), 0u);  // rollback released the copy
  EXPECT_EQ(engine.active_sessions_locked(), 0u);
  engine.self_check();
}

TEST(CrossShardGrow, WorksThroughTheExecutor) {
  ShardedEngine engine(small_config());
  ShardExecutor executor(engine, {.workers = 2});
  const CrossPair pair = connect_for_migration(engine);
  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_TRUE(engine.is_active(result.session));
  executor.quiesce();
  engine.self_check();
}

TEST(CrossShardGrow, GrowAnywhereFallsBackToAnotherShard) {
  ShardedEngine engine(small_config());
  // Find a shard with >= 2 owned ports and saturate the home replica's
  // middle stage enough that a local grow of `session` blocks, then verify
  // grow_anywhere lands it on a foreign shard.
  std::size_t shard = 0;
  while (engine.owned_ports(shard).size() < 2) ++shard;
  const std::size_t source_a = engine.owned_ports(shard)[0];
  const std::size_t source_b = engine.owned_ports(shard)[1];
  const auto session = engine.connect({{source_a, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  // Occupy the grow target's output endpoint locally so the local grow (and
  // only the local grow) blocks.
  const auto blocker = engine.connect({{source_b, 0}, {{5, 0}}});
  ASSERT_TRUE(blocker.has_value());

  const CrossGrowResult result = engine.grow_anywhere(*session, {5, 0});
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_NE(result.session.shard, session->shard);
  EXPECT_TRUE(engine.is_active(result.session));
  EXPECT_EQ(engine.active_sessions(), 2u);
  engine.self_check();
}

}  // namespace
}  // namespace wdm::engine
