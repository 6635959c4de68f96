// Lock-free engine health snapshots: seqlock-published per-shard state.
//
// The sharded engine serializes every mutation behind a per-shard claim
// (engine/sharded_engine.h). Monitoring must not wait for it: an
// admission controller polling "how much Theorem-1 margin is left?" or a
// dashboard reading occupancy skew would otherwise contend with the churn
// hot path it is trying to observe. This header is the read-path split the
// ROADMAP's engine-scaling item starts with -- shards *publish* a fixed-size
// health snapshot at every commit point (connect / disconnect / grow), and
// any thread can read the latest one with zero mutex acquisition.
//
// Publication protocol (DESIGN.md §3.11): a classic single-writer seqlock
// over a flat array of relaxed-atomic uint64 words. The payload stays
// resident between publications, so a write section stores only the words
// that changed; the rest keep the previous publication's values.
//
//   writer (holds the shard's claim, so writes never race each other):
//     seq.store(s+1, relaxed);              // odd = write in progress
//     atomic_thread_fence(release);
//     words[i].store(..., relaxed);         // the changed payload words
//     seq.store(s+2, release);              // even = quiescent
//
//   reader (any thread, no locks):
//     s1 = seq.load(acquire); retry if odd;
//     buf[i] = words[i].load(relaxed);
//     atomic_thread_fence(acquire);
//     retry unless seq.load(relaxed) == s1;
//
// Payload words are atomics (not plain memory), so the protocol is data-race
// free under the C++ memory model and ThreadSanitizer-clean -- the retry
// loop handles torn *logical* states, the atomics rule out torn *words*.
// A reader that loses the race simply retries; with single-word stores the
// write section is a few dozen relaxed stores, so retries are rare (the
// obs.snapshot_retries counter tracks them).
//
// The snapshot itself carries what the wire-protocol front-end's admission
// control will need: live session count, the busy-lane count of each middle
// module (17 + m words in all), the Theorem-1/2 margin under the shard's
// current fault state, and cumulative churn tallies. A publish rewrites the
// header and only the counts of the middles the op's routes touched, so it
// is O(route), not O(m). Per-link occupancy words are not published; they
// stay readable through ShardedEngine::shard_switch(s) inside
// with_shard_exclusive(s, ...).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace wdm::obs {

/// One shard's published health state. Decoded from a seqlock slot; every
/// field is a point-in-time-consistent view of the shard (all fields were
/// published together under the shard's claim).
struct EngineHealthSnapshot {
  /// Publish count of the owning shard; strictly increasing per shard, so a
  /// poller can tell "new data" from "same data" without reading the rest.
  std::uint64_t version = 0;
  std::uint32_t shard = 0;
  std::uint32_t middle_count = 0;     // m middle modules per shard replica
  std::uint32_t links_per_middle = 0; // r outgoing links per middle module

  /// Live sessions on this shard.
  std::uint64_t sessions = 0;
  /// Sum of middle_busy (readers cross-check it: see consistent()).
  std::uint64_t busy_middle_lanes = 0;

  // Cumulative per-shard churn tallies since engine construction. These are
  // deterministic (they mirror the engine.* counters shard-locally), so the
  // final snapshot of a churn run must reproduce its ChurnStats.
  std::uint64_t connects = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t grows = 0;
  std::uint64_t grow_blocked = 0;
  std::uint64_t stale_rejected = 0;

  // Theorem-1/2 margin under the shard's current fault state (see
  // faults/resilience.h): effective_m = m - failed_middles, margin =
  // effective_m - bound_m, nonblocking iff margin >= 0.
  std::uint64_t bound_m = 0;
  std::uint64_t failed_middles = 0;
  std::int64_t margin = 0;
  bool nonblocking = false;

  // Repack (rearrangeable-mode) tallies: cumulative sessions migrated by
  // repack-on-block admits and the longest single chain so far. Both zero
  // when the shard has no repack engine (the default).
  std::uint64_t repack_moves = 0;
  std::uint64_t repack_max_chain = 0;

  /// middle_busy[j] = busy lanes on middle module j's outgoing links, i.e.
  /// SwitchModule::busy_out_lanes() of that module. One word per middle.
  std::vector<std::uint64_t> middle_busy;

  /// Busy lanes on middle module j's outgoing links.
  [[nodiscard]] std::uint64_t middle_busy_lanes(std::size_t j) const {
    return middle_busy[j];
  }
  /// Margin recomputed from (middle_count, failed_middles, bound_m); equals
  /// `margin` for any consistent snapshot.
  [[nodiscard]] std::int64_t recomputed_margin() const;
  /// Internal consistency: one count per middle, and their sum and the
  /// margin match the published aggregates. The seqlock hammer asserts this
  /// under full-rate churn.
  [[nodiscard]] bool consistent() const;

  [[nodiscard]] std::string to_string() const;

  // -- flat wire encoding (what the seqlock slot stores) --------------------
  static constexpr std::size_t kHeaderWords = 17;
  /// Words needed for a geometry with m middle modules: the header plus one
  /// busy-lane count per middle. `r` does not enter the size.
  [[nodiscard]] static std::size_t encoded_words(std::size_t m,
                                                 std::size_t /*r*/) {
    return kHeaderWords + m;
  }
  /// Serialize into `words` (size must be >= encoded_words(...)).
  void encode(std::uint64_t* words) const;
  /// Decode words produced by encode(); the buffer becomes middle_busy.
  [[nodiscard]] static EngineHealthSnapshot decode(std::vector<std::uint64_t> words);
};

/// Single-writer seqlock cell over a fixed number of uint64 payload words.
/// The writer must be externally serialized (the engine publishes under the
/// shard's claim); readers take no lock, ever.
class SeqlockSnapshotSlot {
 public:
  explicit SeqlockSnapshotSlot(std::size_t words);

  SeqlockSnapshotSlot(const SeqlockSnapshotSlot&) = delete;
  SeqlockSnapshotSlot& operator=(const SeqlockSnapshotSlot&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Stores payload words inside an update()'s write section.
  class Writer {
   public:
    /// Set payload word i (i < capacity()).
    void store(std::size_t i, std::uint64_t value) const {
      words_[i].store(value, std::memory_order_relaxed);
    }

   private:
    friend class SeqlockSnapshotSlot;
    explicit Writer(std::atomic<std::uint64_t>* words) : words_(words) {}
    std::atomic<std::uint64_t>* words_;
  };

  /// One publication that rewrites only the words write(const Writer&)
  /// stores; every other word keeps its previous value. `write` must not
  /// throw: readers spin while the section is open. Single writer only.
  template <typename Write>
  void update(Write&& write) {
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    // Odd sequence marks the write section; the release fence orders it
    // before every payload store as observed by an acquire-fenced reader.
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    write(Writer(words_.get()));
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Publish words [0, count) (count <= capacity). Single writer only.
  void publish(const std::uint64_t* words, std::size_t count);

  /// Read a consistent copy of the payload into `out`. Lock-free: spins on
  /// retry-on-odd-sequence; never blocks the writer. Returns the (even)
  /// sequence number of the copy; 0 means nothing was ever published (out is
  /// zero-filled in that case -- slots start zeroed). If `retries` is
  /// non-null it receives the number of restarted read attempts.
  std::uint64_t read(std::uint64_t* out, std::size_t count,
                     std::size_t* retries = nullptr) const;

  /// Current raw sequence (odd while a write is in flight). For tests.
  [[nodiscard]] std::uint64_t sequence() const {
    return seq_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> seq_{0};
  std::size_t capacity_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace wdm::obs
