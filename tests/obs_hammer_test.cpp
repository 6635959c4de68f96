// TSan-labelled hammer for the observability plane (run under
// ThreadSanitizer by the tsan CI job, like the other `tsan` tests).
//
// Two layers. The raw SeqlockSnapshotSlot hammers publish torn-detectable
// payloads at full rate while readers assert no read ever mixes two
// publications: full rewrites with every word equal, and sparse update()s
// that rewrite a few words and keep word 0 equal to the sum of the rest.
// The engine hammer runs real multi-worker churn
// while reader threads spin on health_snapshot(); every observed snapshot
// must be internally consistent -- occupancy popcount equals the published
// busy-lane sum, the margin matches recomputation from (m, failed, bound)
// -- and per-shard versions must be non-decreasing. Under TSan this is also
// the data-race proof for the Boehm-style relaxed-atomic seqlock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "obs/health_snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wdm {
namespace {

using engine::ChurnConfig;
using engine::ChurnDriver;
using engine::EngineConfig;
using engine::ShardedEngine;
using obs::EngineHealthSnapshot;
using obs::SeqlockSnapshotSlot;

TEST(SeqlockHammer, ReadersNeverObserveATornPublication) {
  constexpr std::size_t kWords = 24;
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kPublications = 20000;
  SeqlockSnapshotSlot slot(kWords);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t out[kWords];
      std::uint64_t last_seq = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const std::uint64_t seq = slot.read(out, kWords);
        // A successful read is from ONE publication: all words equal.
        for (std::size_t i = 1; i < kWords; ++i) {
          if (out[i] != out[0]) torn.fetch_add(1, std::memory_order_relaxed);
        }
        // Sequences only move forward.
        if (seq < last_seq) torn.fetch_add(1, std::memory_order_relaxed);
        last_seq = seq;
      }
    });
  }

  std::uint64_t payload[kWords];
  for (std::uint64_t publication = 1; publication <= kPublications;
       ++publication) {
    for (std::size_t i = 0; i < kWords; ++i) payload[i] = publication;
    slot.publish(payload, kWords);
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0u);
  std::uint64_t out[kWords];
  (void)slot.read(out, kWords);
  EXPECT_EQ(out[0], kPublications);  // the final publication is visible
}

TEST(SeqlockHammer, SparseUpdatesNeverExposeAHalfWrittenSum) {
  // The engine's publish pattern: the payload stays resident and each
  // update() stores only the words that changed. Word 0 is the sum of the
  // rest, so a read mixing two publications breaks the sum.
  constexpr std::size_t kWords = 80;
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kPublications = 20000;
  SeqlockSnapshotSlot slot(kWords);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t out[kWords];
      std::uint64_t last_seq = 0;
      const auto check = [&] {
        const std::uint64_t seq = slot.read(out, kWords);
        std::uint64_t sum = 0;
        for (std::size_t i = 1; i < kWords; ++i) sum += out[i];
        if (out[0] != sum) torn.fetch_add(1, std::memory_order_relaxed);
        if (seq < last_seq) torn.fetch_add(1, std::memory_order_relaxed);
        last_seq = seq;
      };
      check();
      ready.fetch_add(1, std::memory_order_release);
      ready.notify_all();
      while (!done.load(std::memory_order_relaxed)) check();
    });
  }
  // Start handshake: every reader is running before the first update.
  for (std::size_t n; (n = ready.load(std::memory_order_acquire)) < kReaders;) {
    ready.wait(n, std::memory_order_acquire);
  }

  Rng rng(0x5EA10C);
  std::uint64_t shadow[kWords] = {};
  for (std::uint64_t publication = 1; publication <= kPublications; ++publication) {
    slot.update([&](const SeqlockSnapshotSlot::Writer& out) {
      for (std::uint64_t changes = 1 + rng.next_below(4); changes > 0; --changes) {
        const std::size_t i = 1 + rng.next_below(kWords - 1);
        shadow[0] -= shadow[i];
        shadow[i] = rng.next_below(1u << 20);
        shadow[0] += shadow[i];
        out.store(i, shadow[i]);
      }
      out.store(0, shadow[0]);
    });
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0u);
  std::uint64_t out[kWords];
  EXPECT_EQ(slot.read(out, kWords), 2 * kPublications);
  EXPECT_TRUE(std::equal(out, out + kWords, shadow));  // resident payload
}

TEST(SeqlockHammer, EngineSnapshotsStayConsistentUnderFullRateChurn) {
  EngineConfig config;
  config.params = {2, 4, 3, 2};
  config.shards = 3;
  ShardedEngine engine(config);

  ChurnConfig churn;
  churn.ops_per_shard = 1500;
  churn.workers = 4;
  ChurnDriver driver(engine, churn);

  constexpr std::size_t kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> inconsistent{0};
  std::atomic<std::uint64_t> regressed{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<std::uint64_t> last_version(engine.shard_count(), 0);
      const auto sweep = [&] {
        for (std::size_t s = 0; s < engine.shard_count(); ++s) {
          const EngineHealthSnapshot snapshot = engine.health_snapshot(s);
          reads.fetch_add(1, std::memory_order_relaxed);
          // The hammer's whole point: mid-churn snapshots are internally
          // consistent -- the per-middle counts sum to the writer's busy
          // total, and the published margin matches recomputation.
          if (!snapshot.consistent()) {
            inconsistent.fetch_add(1, std::memory_order_relaxed);
          }
          if (snapshot.recomputed_margin() != snapshot.margin) {
            inconsistent.fetch_add(1, std::memory_order_relaxed);
          }
          if (snapshot.version < last_version[s]) {
            regressed.fetch_add(1, std::memory_order_relaxed);
          }
          last_version[s] = snapshot.version;
        }
      };
      sweep();
      ready.fetch_add(1, std::memory_order_release);
      ready.notify_all();
      while (!done.load(std::memory_order_relaxed)) sweep();
    });
  }

  // Start handshake: the churn begins only after every reader's first
  // sweep, so reads > 0 holds however late the scheduler runs the readers
  // and however fast the churn finishes.
  for (std::size_t n; (n = ready.load(std::memory_order_acquire)) < kReaders;) {
    ready.wait(n, std::memory_order_acquire);
  }
  ThreadPool pool(churn.workers);
  const engine::ChurnStats stats = driver.run(pool);
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(regressed.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(stats.total.stale_accepted, 0u);

  // Quiesced: the snapshots agree with the driver's deterministic books.
  std::uint64_t sessions = 0;
  for (const EngineHealthSnapshot& snapshot : engine.health_snapshots()) {
    sessions += snapshot.sessions;
  }
  EXPECT_EQ(sessions, stats.leftover_sessions);
}

}  // namespace
}  // namespace wdm
