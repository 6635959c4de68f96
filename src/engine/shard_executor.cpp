#include "engine/shard_executor.h"

#include <chrono>

#include "util/metrics.h"

namespace wdm::engine {

namespace {

/// Submission-plane instruments (docs/BENCHMARKS.md glossary).
/// engine.queue_depth samples the shard queue's occupancy at every push;
/// engine.op_wait_ns measures submit-to-execute latency per op.
struct ExecutorMetrics {
  Histogram& queue_depth = metrics().histogram("engine.queue_depth");
  TimerStat& op_wait = metrics().timer("engine.op_wait_ns");

  static ExecutorMetrics& get() {
    static ExecutorMetrics instance;
    return instance;
  }
};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardExecutor::ShardExecutor(ShardedEngine& engine,
                             const ExecutorConfig& config)
    : engine_(engine), config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.drain_quantum == 0) config_.drain_quantum = 1;
  queues_.reserve(engine_.shard_count());
  for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
    queues_.push_back(
        std::make_unique<BoundedMpscQueue<Op>>(config_.queue_capacity));
  }
  threads_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  engine_.attach_executor(this);
}

ShardExecutor::~ShardExecutor() {
  quiesce();
  engine_.attach_executor(nullptr);
  {
    std::lock_guard lock(park_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  park_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardExecutor::submit_task(std::size_t shard,
                                void (*fn)(void*, std::uint64_t), void* ctx,
                                std::uint64_t arg, OpTicket* ticket) {
  BoundedMpscQueue<Op>& queue = *queues_.at(shard);
  Op op{fn, ctx, arg, ticket, 0};
  if (metrics_enabled()) {
    op.enqueue_ns = steady_now_ns();
    ExecutorMetrics::get().queue_depth.record(queue.approx_size());
  }
  // fetch_add BEFORE the queue push so a worker that pops the op and then
  // decrements pending_ can never drive the counter below zero. seq_cst
  // pairs with the worker's sleepers_++ / pending_ re-check (Dekker): either
  // we observe the sleeper and wake it, or it observes our pending op and
  // never sleeps.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_seq_cst);
  while (!queue.try_push(op)) {
    // Backpressure: the shard is saturated. Yield until the drain frees a
    // cell -- this is the executor's admission control (mpsc_queue.h).
    std::this_thread::yield();
  }
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    // The empty critical section orders this notify after the sleeper's
    // predicate check: if it read pending_ == 0 it has not blocked yet and
    // we cannot take the mutex until it does, so the notify is never lost.
    { std::lock_guard lock(park_mutex_); }
    park_cv_.notify_one();
  }
}

void ShardExecutor::worker_loop(std::size_t index) {
  const std::size_t shard_count = queues_.size();
  while (true) {
    std::size_t executed = 0;
    // Home-biased scan: worker w starts at shard w, so workers spread over
    // disjoint shards first; the full sweep is the work-stealing part.
    for (std::size_t i = 0; i < shard_count; ++i) {
      executed += drain_shard((index + i) % shard_count);
    }
    if (executed != 0) continue;
    // Nothing claimable anywhere: park until a submission arrives. Publish
    // sleepers_++ BEFORE re-checking pending_ (both seq_cst): a concurrent
    // submit_task() either sees our sleeper count and notifies (after taking
    // park_mutex_, which it cannot do until we block), or its pending_
    // increment precedes our re-check and we skip the wait.
    std::unique_lock lock(park_mutex_);
    if (stop_.load(std::memory_order_acquire)) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (pending_.load(std::memory_order_seq_cst) == 0) {
      park_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) ||
               pending_.load(std::memory_order_relaxed) != 0;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

std::size_t ShardExecutor::drain_shard(std::size_t shard) {
  BoundedMpscQueue<Op>& queue = *queues_[shard];
  if (queue.approx_size() == 0) return 0;  // cheap racy pre-check
  ShardedEngine::Shard& owner = *engine_.shards_[shard];
  if (!ShardedEngine::try_claim(owner)) return 0;
  std::size_t executed = 0;
  Op op;
  while (executed < config_.drain_quantum && queue.try_pop(op)) {
    if (op.enqueue_ns != 0) {
      ExecutorMetrics::get().op_wait.record_ns(steady_now_ns() - op.enqueue_ns);
    }
    op.fn(op.ctx, op.arg);
    if (op.ticket) op.ticket->complete();
    ++executed;
  }
  queue.sync_approx_head();
  engine_.release_claim(shard);
  if (executed != 0) {
    executed_.fetch_add(executed, std::memory_order_release);
    pending_.fetch_sub(executed, std::memory_order_release);
  }
  return executed;
}

void ShardExecutor::quiesce() {
  // Snapshot-then-wait: ops submitted concurrently with quiesce() are not
  // waited for (the barrier covers "submitted so far", nothing more).
  const std::uint64_t target = submitted_.load(std::memory_order_acquire);
  int spin = 0;
  while (executed_.load(std::memory_order_acquire) < target) {
    if (++spin > 256) std::this_thread::yield();
  }
}

}  // namespace wdm::engine
