// Single-writer shard execution: bounded MPSC submission queues drained by
// a small worker set (DESIGN.md §3.13).
//
// The sharded engine's default mode is lock-per-op: every public call locks
// the owning shard's mutex. That serializes correctly but scales poorly --
// under N client threads hammering S shards, every op pays an uncontended-at
// -best / convoyed-at-worst mutex handoff, and a slow op on a shard blocks
// every later submitter in kernel wait queues. The executor inverts the
// model, the way Click pins router elements to task queues: callers *ship*
// ops into a per-shard BoundedMpscQueue (util/mpsc_queue.h) and return
// immediately with a completion ticket; a fixed worker pool *executes* them,
// with exactly one worker draining a given shard at a time. Exclusivity
// comes from shard ownership -- a CAS-claimed flag per shard -- so the shard
// body (the same *_locked code the mutex mode runs) executes with no mutex
// at all.
//
// Scheduling is home-biased scan with work stealing: worker w starts its
// scan at shard w (its "home"), so disjoint workers prefer disjoint shards,
// but any worker drains any claimable non-empty shard -- a stalled worker
// never strands a queue. A claim drains at most `drain_quantum` ops before
// releasing the shard, bounding how long one hot shard can monopolize a
// worker while cold shards wait. Workers park on a condition variable when
// the global pending count hits zero and are woken by the next submission.
//
// Ownership handoff is the correctness crux: worker A's release-store of the
// claim flag synchronizes-with worker B's later acquire-CAS of it, so every
// shard mutation worker A made happens-before worker B's drain. The shard
// never has two concurrent writers, which is the same exclusivity contract
// the mutex gave -- TSan agrees (tests/executor_test.cpp runs under the tsan
// label).
//
// Backpressure: submission to a full queue spins/yields until space frees.
// Bounded queues ARE the admission control -- see mpsc_queue.h.
//
// Determinism: a shard's ops execute in queue (FIFO) order regardless of
// which workers drain them or how drains interleave across shards, so any
// single-submitter workload is bit-identical at every worker count and
// queue depth (ChurnDriver's queued mode builds on exactly this; the
// executor_test enforces it).
//
// Rules of use:
//   * Construct AFTER the engine, destroy BEFORE it (the destructor
//     quiesces, detaches, and joins).
//   * While attached, the engine's public connect/disconnect/grow route
//     here automatically; never take shard_mutex() yourself.
//   * Never call the blocking wrappers (connect/disconnect/grow/run_task/
//     quiesce) from inside a submitted task: with one worker that deadlocks
//     (the worker would wait on a ticket only it can complete). Task bodies
//     use the engine's *_locked API on their own shard instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "util/mpsc_queue.h"

namespace wdm::engine {

struct ExecutorConfig {
  /// Draining workers. Clamped to at least 1.
  std::size_t workers = 4;
  /// Per-shard submission queue capacity (rounded up to a power of two).
  /// Small values are legal and deterministic -- they just mean submitters
  /// feel backpressure earlier.
  std::size_t queue_capacity = 1024;
  /// Max ops one claim executes before releasing the shard to the scan
  /// (fairness bound between hot and cold shards).
  std::size_t drain_quantum = 128;
};

/// Caller-owned completion handle for one submitted op. One-shot: submit
/// with a fresh ticket, wait, read the outcome. The submitter must keep the
/// ticket (and any op payload it points to) alive until wait() returns.
class OpTicket {
 public:
  OpTicket() = default;
  OpTicket(const OpTicket&) = delete;
  OpTicket& operator=(const OpTicket&) = delete;

  /// Spin briefly, then yield, until the op has executed.
  void wait() const;
  [[nodiscard]] bool done() const {
    return state_.load(std::memory_order_acquire) != 0;
  }
  /// Op-specific primary result (id for connect/grow, 0/1 for disconnect).
  /// Valid only after wait()/done().
  [[nodiscard]] std::uint64_t value() const { return value_; }
  /// Op-specific secondary result (has-id flag, GrowResult status).
  [[nodiscard]] std::uint64_t extra() const { return extra_; }

 private:
  friend class ShardExecutor;
  void complete(std::uint64_t value, std::uint64_t extra) {
    value_ = value;
    extra_ = extra;
    state_.store(1, std::memory_order_release);  // publishes value_/extra_
  }

  std::atomic<std::uint32_t> state_{0};
  std::uint64_t value_ = 0;
  std::uint64_t extra_ = 0;
};

class ShardExecutor {
 public:
  explicit ShardExecutor(ShardedEngine& engine,
                         const ExecutorConfig& config = {});
  /// Quiesces, detaches from the engine, stops and joins the workers.
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }
  [[nodiscard]] const ExecutorConfig& config() const { return config_; }

  // -- async submission (any thread; blocks only on queue-full) -------------
  /// `request` must stay alive until the ticket completes (ops carry
  /// pointers, not copies -- the hot path allocates nothing).
  void submit_connect(std::size_t shard, const MulticastRequest* request,
                      OpTicket* ticket);
  void submit_disconnect(std::size_t shard, ConnectionId id, OpTicket* ticket);
  void submit_grow(std::size_t shard, ConnectionId id,
                   const WavelengthEndpoint& destination, OpTicket* ticket);
  /// Arbitrary closure executed with exclusive access to `shard`.
  /// `fn(ctx, arg)` runs on the draining worker; keep `ctx` alive until the
  /// ticket completes.
  void submit_task(std::size_t shard, void (*fn)(void*, std::uint64_t),
                   void* ctx, std::uint64_t arg, OpTicket* ticket);

  // -- blocking wrappers (the engine's public API routes through these) -----
  std::optional<ConnectionId> connect(std::size_t shard,
                                      const MulticastRequest& request);
  bool disconnect(std::size_t shard, ConnectionId id);
  GrowResult grow(std::size_t shard, ConnectionId id,
                  const WavelengthEndpoint& destination);
  /// Run `fn` under shard exclusivity and wait for it (the executor-mode
  /// body of ShardedEngine::with_shard_exclusive).
  void run_task(std::size_t shard, const std::function<void()>& fn);

  /// Block until every op submitted so far has executed. A barrier, not a
  /// shutdown: workers keep running and new submissions are legal after.
  void quiesce();

  /// Ops executed since construction (monotone; == submitted at quiescence).
  [[nodiscard]] std::uint64_t executed_ops() const {
    return executed_.load(std::memory_order_acquire);
  }

 private:
  struct Op {
    enum class Kind : std::uint8_t {
      kConnect,
      kDisconnect,
      kGrow,
      kTask,
    };
    Kind kind = Kind::kTask;
    const MulticastRequest* request = nullptr;  // connect
    ConnectionId id = 0;                        // disconnect / grow
    WavelengthEndpoint destination{};           // grow
    void (*fn)(void*, std::uint64_t) = nullptr; // task
    void* ctx = nullptr;                        // task
    std::uint64_t arg = 0;                      // task
    OpTicket* ticket = nullptr;
    std::uint64_t enqueue_ns = 0;  // engine.op_wait_ns sample origin
  };

  /// One shard's submission lane. The claim flag is the single-writer
  /// exclusivity token: release-store on unclaim / acquire-CAS on claim
  /// chains every owner's writes happens-before the next owner's reads.
  struct alignas(64) Lane {
    explicit Lane(std::size_t capacity) : queue(capacity) {}
    BoundedMpscQueue<Op> queue;
    std::atomic<bool> claimed{false};
  };

  void push(std::size_t shard, Op op);
  void worker_loop(std::size_t index);
  /// Claim + drain up to drain_quantum ops; returns ops executed (0 when
  /// empty or already claimed by another worker).
  std::size_t drain_shard(std::size_t shard);
  void execute(std::size_t shard, Op& op);

  ShardedEngine& engine_;
  ExecutorConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Ops submitted minus ops executed (parking condition).
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<bool> stop_{false};

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  /// Workers inside the park protocol. Atomic (not mutex-guarded) so push()
  /// can skip the mutex entirely when nobody sleeps -- the common case under
  /// load; see the Dekker pairing in push()/worker_loop().
  std::atomic<std::size_t> sleepers_{0};

  std::vector<std::thread> threads_;
};

}  // namespace wdm::engine
