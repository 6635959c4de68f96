// Single-writer shard execution (DESIGN.md §3.13): the MPSC submission
// queue, the ShardExecutor's exclusivity + FIFO guarantees, queued-mode
// ChurnDriver determinism across worker counts and queue depths, cross-shard
// grow (two-phase, with deterministic rollback via the test hook), and the
// lock-free read surface (is_active / find_session / admission_precheck /
// snapshot-spine active_sessions) agreeing with claimed ground truth.
//
// Runs under the tsan ctest label: the exclusivity handoff (claim-word
// release/acquire between inline callers and workers) and the ticket
// publication are exactly the kind of protocol TSan can falsify.
#include "engine/shard_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

  engine.self_check();  // claims each shard, inline or as a queued task

  // Idle shards, one caller: every call so far ran inline on this thread.
  EXPECT_EQ(executor.executed_ops(), 0u);

  // A busy shard: a worker holds the claim inside a task that ends only
  // once another op is queued behind it, so the disconnect below must be
  // submitted and executed by the executor, whatever the timing.
  struct Parked {
    ShardExecutor* executor;
    std::size_t shard;
  } parked{&executor, session->shard};
  executor.submit_task(
      session->shard,
      [](void* raw, std::uint64_t) {
        const auto& ctx = *static_cast<Parked*>(raw);
        while (ctx.executor->queue_empty(ctx.shard)) std::this_thread::yield();
      },
      &parked, 0, nullptr);
  bool released = false;
  std::thread caller([&] {
    released = engine.disconnect({session->shard, grown.connection});
  });
  caller.join();
  EXPECT_TRUE(released);
  executor.quiesce();  // executed_ops() counts a drain after its tickets
  EXPECT_EQ(executor.executed_ops(), 2u);  // the parked task + the disconnect

  EXPECT_FALSE(engine.disconnect({session->shard, grown.connection}));
  EXPECT_EQ(engine.active_sessions(), 0u);
}

TEST(ShardExecutor, InlineCallerNeverOvertakesQueuedOps) {
  // The single worker is parked inside a task on another shard, so an op
  // queued on the session's shard waits there with that shard's claim
  // free. A caller arriving then must queue behind it, not run inline: the
  // probe must still see the session live. (Whatever the timing, the
  // correct engine passes; the sleep only gives a wrong one -- one that
  // runs the caller inline -- the chance to overtake.)
  ShardedEngine engine(small_config());
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  const std::size_t other = (session->shard + 1) % engine.shard_count();
  ShardExecutor executor(engine, {.workers = 1, .queue_capacity = 8});

  struct Park {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
  } park;
  executor.submit_task(
      other,
      [](void* raw, std::uint64_t) {
        auto& p = *static_cast<Park*>(raw);
        p.started = true;
        while (!p.release.load()) std::this_thread::yield();
      },
      &park, 0, nullptr);
  while (!park.started.load()) std::this_thread::yield();

  struct Probe {
    ShardedEngine* engine;
    SessionId session;
    bool live_when_run = false;
  } probe{&engine, *session};
  executor.submit_task(
      session->shard,
      [](void* raw, std::uint64_t) {
        auto& p = *static_cast<Probe*>(raw);
        p.live_when_run = p.engine->is_active(p.session);
      },
      &probe, 0, nullptr);

  bool released = false;
  std::thread caller([&] { released = engine.disconnect(*session); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  park.release = true;
  caller.join();
  executor.quiesce();
  EXPECT_TRUE(probe.live_when_run);  // the queued probe ran first
  EXPECT_TRUE(released);
  EXPECT_FALSE(engine.is_active(*session));
}

TEST(ShardExecutor, DetachesOnDestruction) {
  ShardedEngine engine(small_config());
  {
    ShardExecutor executor(engine, {.workers = 1});
    EXPECT_EQ(engine.executor(), &executor);
  }
  EXPECT_EQ(engine.executor(), nullptr);
  // Inline claims serve the session API alone again after detach.
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

TEST(ShardExecutor, ClaimingReadsRunWhileAttachedAndBusy) {
  // active_sessions_locked() and self_check() claim every shard; with an
  // executor attached they share the claim with its workers. One worker is
  // parked inside a task on the session's shard, so the reads there must
  // wait behind it (queued or spinning) and still return exact answers.
  ShardedEngine engine(small_config());
  ShardExecutor executor(engine, {.workers = 2, .queue_capacity = 8});
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());

  std::atomic<bool> release{false};
  OpTicket parked;
  executor.submit_task(
      session->shard,
      [](void* flag, std::uint64_t) {
        while (!static_cast<std::atomic<bool>*>(flag)->load()) {
          std::this_thread::yield();
        }
      },
      &release, 0, &parked);
  std::size_t locked = 0;
  std::thread reader([&] {
    locked = engine.active_sessions_locked();
    engine.self_check();
  });
  release = true;
  reader.join();
  parked.wait();
  EXPECT_EQ(locked, 1u);

  // And against live churn: clients connect/disconnect through the engine
  // while this thread keeps counting and checking.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&engine, &stop, t] {
      const std::size_t port = static_cast<std::size_t>(4 + t);
      while (!stop.load()) {
        if (const auto churned = engine.connect({{port, 1}, {{7 - port, 1}}})) {
          EXPECT_TRUE(engine.disconnect(*churned));
        }
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const std::size_t count = engine.active_sessions_locked();
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, 3u);
    engine.self_check();
  }
  stop = true;
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(engine.active_sessions_locked(), 1u);
  EXPECT_EQ(engine.active_sessions(), engine.active_sessions_locked());
  EXPECT_TRUE(engine.disconnect(*session));
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
  // and identical to the serial replay and the inline (claim) path.
  std::optional<ChurnStats> reference;
  {
    ShardedEngine engine(small_config());
    ChurnDriver driver(engine, queued_churn_config(1, 1024));
    reference = driver.run_serial();
  }
  {
    // Inline path agreement: batches run by their submitters under claims.
    ShardedEngine engine(small_config());
    ChurnConfig inline_config = queued_churn_config(2, 1024);
    inline_config.queued = false;
    ChurnDriver driver(engine, inline_config);
    EXPECT_EQ(driver.run(), *reference) << "inline path diverged";
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
      // Post-run the executor has detached; claimed and snapshot counts agree.
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
  // snapshot-spine sum against the per-shard claimed ground truth.
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
  const auto connections = engine.shard_switch(pair.target).network().connections();
  ASSERT_TRUE(connections.contains(result.session.connection));
  EXPECT_EQ(connections.at(result.session.connection).outputs().size(), 2u);
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
  // A worker holds the source shard's claim until an op queues behind it,
  // so phase 1 of the migration must run as an executor task.
  struct Parked {
    ShardExecutor* executor;
    std::size_t shard;
  } parked{&executor, pair.session.shard};
  executor.submit_task(
      pair.session.shard,
      [](void* raw, std::uint64_t) {
        const auto& ctx = *static_cast<Parked*>(raw);
        while (ctx.executor->queue_empty(ctx.shard)) std::this_thread::yield();
      },
      &parked, 0, nullptr);
  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_TRUE(engine.is_active(result.session));
  executor.quiesce();
  EXPECT_GE(executor.executed_ops(), 2u);  // the parked task + phase 1
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
