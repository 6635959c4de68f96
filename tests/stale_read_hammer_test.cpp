// Stale-id read hammer (tsan label): races the lock-free session reads
// (is_active / find_session, obs/session_table.h) against full-rate
// disconnect/reconnect slot reuse and asserts the core soundness property --
// a stale id NEVER validates.
//
// The attack surface: the engine reuses connection slots aggressively (the
// network's free-slot stack is LIFO), so a disposed id's slot is typically
// re-armed with a new generation within a few ops. A reader holding the old
// id probes concurrently, with no lock, while the writer cycles the slot. If
// the generation table's ordering were wrong anywhere (a mark_active visible
// before the prior mark_released, a torn word, a reordered publish), some
// interleaving here would validate a dead id -- and TSan would flag the race
// even when the assertion happens to pass.
//
// Structure: one writer thread churns sessions through the public engine API
// (with no executor, and with one attached that runs every other cycle on a
// worker); reader threads continuously
// (a) probe ids the writer has retired -- handed over through a seqlock-ish
// release/acquire mailbox -- and assert they never validate, and (b) probe
// the writer's latest-live mailbox, where BOTH outcomes are legal (the probe
// races the session's teardown) but a validated id must decode to the
// exact slot/generation it was minted with.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/shard_executor.h"
#include "engine/sharded_engine.h"
#include "multistage/network.h"

namespace wdm::engine {
namespace {

EngineConfig hammer_config() {
  EngineConfig config;
  config.params = {2, 4, 3, 2};  // N=8 ports, k=2 lanes per shard replica
  config.shards = 2;
  return config;
}

/// Single-writer mailbox handing ConnectionId-sized values to racing
/// readers. 0 means "nothing yet"; generations start at 1 so no real id
/// encodes to 0 (network.h make_id).
struct IdMailbox {
  std::atomic<std::uint64_t> word{0};
  void post(SessionId session) {
    // One mailbox per shard, so only the connection word needs to travel.
    word.store(session.connection, std::memory_order_release);
  }
  [[nodiscard]] ConnectionId read() const {
    return word.load(std::memory_order_acquire);
  }
};

/// `ship` (optional): run every other connect/disconnect cycle as a task on
/// this executor, so the table writes come from a worker thread too.
void hammer(ShardedEngine& engine, std::size_t seconds_budget_ops,
            ShardExecutor* ship = nullptr) {
  const std::size_t shard_count = engine.shard_count();
  // Per-shard mailboxes: retired ids (must NEVER validate) and live ids
  // (may validate; if so, must decode exactly).
  std::vector<IdMailbox> retired(shard_count);
  std::vector<IdMailbox> live(shard_count);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale_validations{0};
  std::atomic<std::uint64_t> probes{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t s = 0; s < shard_count; ++s) {
          const ConnectionId dead = retired[s].read();
          if (dead != 0) {
            probes.fetch_add(1, std::memory_order_relaxed);
            const SessionId stale{static_cast<std::uint32_t>(s), dead};
            if (engine.is_active(stale) ||
                engine.find_session(stale).has_value()) {
              stale_validations.fetch_add(1, std::memory_order_relaxed);
            }
          }
          const ConnectionId maybe_live = live[s].read();
          if (maybe_live != 0 && (r % 2) == 0) {
            const SessionId candidate{static_cast<std::uint32_t>(s),
                                      maybe_live};
            const auto probe = engine.find_session(candidate);
            if (probe) {
              // Racy liveness is fine; a validated probe must be exact.
              if (probe->slot !=
                      ThreeStageNetwork::slot_of_id(maybe_live) ||
                  probe->generation !=
                      ThreeStageNetwork::generation_of_id(maybe_live)) {
                stale_validations.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          // The admission pre-check shares the read spine; keep it hot too.
          (void)engine.admission_precheck(s);
        }
      }
    });
  }

  // Writer: connect / immediately disconnect, cycling slots as fast as the
  // engine allows. Alternating ports and lanes varies the slot-reuse
  // pattern; every retirement is published to the readers.
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < seconds_budget_ops; ++i) {
    const std::size_t port = i % engine.port_count();
    const auto lane = static_cast<Wavelength>(i % 2);
    const MulticastRequest request{
        {port, lane}, {{(port + 3) % engine.port_count(), lane}}};
    if (ship != nullptr && i % 2 == 1) {
      const auto shard = static_cast<std::uint32_t>(engine.shard_of(port));
      int outcome = 0;  // 0 blocked, 1 cycled, 2 live id rejected
      auto cycle = [&] {
        const auto id = engine.connect_locked(shard, request);
        if (!id) return;
        live[shard].post({shard, *id});
        outcome = engine.disconnect_locked(shard, *id) ? 1 : 2;
        retired[shard].post({shard, *id});
      };
      OpTicket ticket;
      ship->submit_task(
          shard,
          [](void* body, std::uint64_t) { (*static_cast<decltype(cycle)*>(body))(); },
          &cycle, 0, &ticket);
      ticket.wait();
      ASSERT_NE(outcome, 2);
      if (outcome == 1) ++cycles;
      continue;
    }
    const auto session = engine.connect(request);
    if (!session) continue;
    live[session->shard].post(*session);
    ASSERT_TRUE(engine.disconnect(*session));
    retired[session->shard].post(*session);
    ++cycles;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(stale_validations.load(), 0u)
      << "a stale id validated on the lock-free read path";
  EXPECT_GT(cycles, 0u);
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(engine.active_sessions(), 0u);
  engine.self_check();
}

TEST(StaleReadHammer, MutexModeNeverValidatesAStaleId) {
  ShardedEngine engine(hammer_config());
  hammer(engine, 20000);
}

TEST(StaleReadHammer, ExecutorModeNeverValidatesAStaleId) {
  // Same race with the single-writer executor attached: every other cycle
  // ships through a shard queue and executes on a worker, so the readers
  // race table updates from worker threads as well as from the submitter's
  // inline claims.
  ShardedEngine engine(hammer_config());
  ShardExecutor executor(engine, {.workers = 2, .queue_capacity = 64});
  hammer(engine, 12000, &executor);
  executor.quiesce();
  EXPECT_GT(executor.executed_ops(), 0u);
}

TEST(StaleReadHammer, GrowRenewalsRetireTheOldIdAtomically) {
  // Break-before-make grows renew ids mid-flight; the old id must go stale
  // the instant the grow commits, under concurrent probing.
  ShardedEngine engine(hammer_config());
  std::atomic<bool> stop{false};
  IdMailbox retired;
  std::atomic<std::uint64_t> stale_validations{0};
  std::uint32_t shard_of_stream = 0;

  const auto seed = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(seed.has_value());
  shard_of_stream = seed->shard;

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ConnectionId dead = retired.read();
      if (dead == 0) continue;
      if (engine.is_active({shard_of_stream, dead})) {
        stale_validations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  SessionId current = *seed;
  for (int i = 0; i < 4000; ++i) {
    // Alternate adding/removing a destination via grow + reconnect cycles:
    // grow to a second port, then disconnect and reconnect the single-output
    // original. Every step retires the previous id.
    const GrowResult grown = engine.grow(current, {5, 0});
    retired.post(current);
    ASSERT_NE(grown.status, GrowResult::Status::kStaleSession);
    current = {shard_of_stream, grown.connection};
    if (grown.status == GrowResult::Status::kGrown) {
      ASSERT_TRUE(engine.disconnect(current));
      retired.post(current);
      const auto fresh = engine.connect({{0, 0}, {{3, 0}}});
      ASSERT_TRUE(fresh.has_value());
      current = *fresh;
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(stale_validations.load(), 0u);
  engine.self_check();
}

}  // namespace
}  // namespace wdm::engine
