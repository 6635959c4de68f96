// Single-writer shard execution: bounded MPSC submission queues drained by
// a small worker set (DESIGN.md §3.13).
//
// Without an executor every caller runs its op on its own thread under the
// shard's claim (sharded_engine.h). That serializes correctly, but under N
// client threads hammering S shards every contended op spins on a claim
// another thread holds. The executor adds op shipping, the way Click pins
// router elements to task queues: callers *ship* ops into a per-shard
// BoundedMpscQueue (util/mpsc_queue.h) and return immediately with a
// completion ticket; a fixed worker pool *executes* them. Workers take the
// same per-shard claim word as inline callers, so exactly one thread --
// worker or caller -- writes a shard at a time, and the shard body (the
// engine's *_locked code) is the same on both paths.
//
// Scheduling is home-biased scan with work stealing: worker w starts its
// scan at shard w (its "home"), so disjoint workers prefer disjoint shards,
// but any worker drains any claimable non-empty shard -- a stalled worker
// never strands a queue. A claim drains at most `drain_quantum` ops before
// releasing the shard, bounding how long one hot shard can monopolize a
// worker while cold shards wait. Workers park on a condition variable when
// the global pending count hits zero and are woken by the next submission.
//
// Ownership handoff is the correctness crux: the release-store of the claim
// synchronizes-with the next acquire-exchange of it, so every shard mutation
// the previous holder made happens-before the next drain or inline op. TSan
// checks it (tests/executor_test.cpp and tests/engine_model_test.cpp run
// under the tsan label).
//
// Backpressure: submission to a full queue spins/yields until space frees.
// Bounded queues ARE the admission control -- see mpsc_queue.h.
//
// Determinism: a shard's ops execute in queue (FIFO) order regardless of
// which workers drain them or how drains interleave across shards, and an
// inline caller never overtakes a queued op, so any single-submitter
// workload is bit-identical at every worker count and queue depth
// (ChurnDriver's queued mode builds on exactly this; executor_test
// enforces it).
//
// Rules of use:
//   * Construct AFTER the engine, destroy BEFORE it (the destructor
//     quiesces, detaches, and joins).
//   * Never wait on a ticket or quiesce() from inside a submitted task, and
//     never call the engine's claiming API for the task's own shard there:
//     the worker would wait on work only it can run. Task bodies use the
//     engine's *_locked API on their own shard instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
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

/// Spin briefly (the common case: the awaited work is almost done), then
/// yield so a saturated box makes progress instead of burning the core. The
/// one wait policy for tickets and contended shard claims.
template <typename Done>
void spin_then_yield(const Done& done) {
  for (int spin = 0; spin < 1024; ++spin) {
    if (done()) return;
  }
  while (!done()) std::this_thread::yield();
}

/// Caller-owned completion handle for one submitted op. One-shot: submit
/// with a fresh ticket, wait, read the outcome. The submitter must keep the
/// ticket (and any op payload it points to) alive until wait() returns.
class OpTicket {
 public:
  OpTicket() = default;
  OpTicket(const OpTicket&) = delete;
  OpTicket& operator=(const OpTicket&) = delete;

  /// Spin briefly, then yield, until the op has executed.
  void wait() const {
    spin_then_yield([this] { return done(); });
  }
  [[nodiscard]] bool done() const {
    return state_.load(std::memory_order_acquire) != 0;
  }

 private:
  friend class ShardExecutor;
  /// Publishes everything the op wrote (release; pairs with done()).
  void complete() { state_.store(1, std::memory_order_release); }

  std::atomic<std::uint32_t> state_{0};
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
  /// Run `fn(ctx, arg)` with exclusive access to `shard`, on the draining
  /// worker, after every op queued on the shard before it. Keep `ctx` alive
  /// until the ticket (nullptr = none) completes or quiesce() returns.
  void submit_task(std::size_t shard, void (*fn)(void*, std::uint64_t),
                   void* ctx, std::uint64_t arg, OpTicket* ticket);

  /// True when shard `shard` has no queued op. Requires the shard's claim:
  /// the claim holder is the queue's only consumer.
  [[nodiscard]] bool queue_empty(std::size_t shard) const {
    return queues_[shard]->empty();
  }

  /// Block until every op submitted so far has executed. A barrier, not a
  /// shutdown: workers keep running and new submissions are legal after.
  void quiesce();

  /// Ops executed since construction (monotone; == submitted at quiescence).
  [[nodiscard]] std::uint64_t executed_ops() const {
    return executed_.load(std::memory_order_acquire);
  }

 private:
  struct Op {
    void (*fn)(void*, std::uint64_t) = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
    OpTicket* ticket = nullptr;
    std::uint64_t enqueue_ns = 0;  // engine.op_wait_ns sample origin
  };

  void worker_loop(std::size_t index);
  /// Claim + drain up to drain_quantum ops; returns ops executed (0 when
  /// empty or the shard's claim is held elsewhere).
  std::size_t drain_shard(std::size_t shard);

  ShardedEngine& engine_;
  ExecutorConfig config_;
  std::vector<std::unique_ptr<BoundedMpscQueue<Op>>> queues_;  // [shard]

  /// Ops submitted minus ops executed (parking condition).
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<bool> stop_{false};

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  /// Workers inside the park protocol. Atomic (not mutex-guarded) so submit_task()
  /// can skip the mutex entirely when nobody sleeps -- the common case under
  /// load; see the Dekker pairing in submit_task()/worker_loop().
  std::atomic<std::size_t> sleepers_{0};

  std::vector<std::thread> threads_;
};

}  // namespace wdm::engine
