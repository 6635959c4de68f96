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

void OpTicket::wait() const {
  // Spin briefly (the common case: the op is already on a worker), then
  // yield so a saturated box makes progress instead of burning the core.
  for (int spin = 0; spin < 1024; ++spin) {
    if (done()) return;
  }
  while (!done()) {
    std::this_thread::yield();
  }
}

ShardExecutor::ShardExecutor(ShardedEngine& engine,
                             const ExecutorConfig& config)
    : engine_(engine), config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.drain_quantum == 0) config_.drain_quantum = 1;
  lanes_.reserve(engine_.shard_count());
  for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
    lanes_.push_back(std::make_unique<Lane>(config_.queue_capacity));
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

void ShardExecutor::push(std::size_t shard, Op op) {
  Lane& lane = *lanes_.at(shard);
  if (metrics_enabled()) {
    op.enqueue_ns = steady_now_ns();
    ExecutorMetrics::get().queue_depth.record(lane.queue.approx_size());
  }
  // fetch_add BEFORE the queue push so a worker that pops the op and then
  // decrements pending_ can never drive the counter below zero. seq_cst
  // pairs with the worker's sleepers_++ / pending_ re-check (Dekker): either
  // we observe the sleeper and wake it, or it observes our pending op and
  // never sleeps.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_seq_cst);
  while (!lane.queue.try_push(op)) {
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
  const std::size_t shard_count = lanes_.size();
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
    // push() either sees our sleeper count and notifies (after taking
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
  Lane& lane = *lanes_[shard];
  if (lane.queue.approx_size() == 0) return 0;  // cheap racy pre-check
  // Claim: the acquire exchange synchronizes-with the previous owner's
  // release store, so all of its shard mutations happen-before ours.
  if (lane.claimed.exchange(true, std::memory_order_acquire)) return 0;
  std::size_t executed = 0;
  Op op;
  while (executed < config_.drain_quantum && lane.queue.try_pop(op)) {
    execute(shard, op);
    ++executed;
  }
  lane.queue.sync_approx_head();
  lane.claimed.store(false, std::memory_order_release);
  if (executed != 0) {
    executed_.fetch_add(executed, std::memory_order_release);
    pending_.fetch_sub(executed, std::memory_order_release);
  }
  return executed;
}

void ShardExecutor::execute(std::size_t shard, Op& op) {
  if (op.enqueue_ns != 0) {
    ExecutorMetrics::get().op_wait.record_ns(steady_now_ns() - op.enqueue_ns);
  }
  switch (op.kind) {
    case Op::Kind::kConnect: {
      const auto id = engine_.connect_locked(shard, *op.request);
      if (op.ticket) op.ticket->complete(id.value_or(0), id.has_value());
      return;
    }
    case Op::Kind::kDisconnect: {
      const bool ok = engine_.disconnect_locked(shard, op.id);
      if (op.ticket) op.ticket->complete(ok ? 1 : 0, 0);
      return;
    }
    case Op::Kind::kGrow: {
      const GrowResult result =
          engine_.grow_locked(shard, op.id, op.destination);
      if (op.ticket) {
        op.ticket->complete(result.connection,
                            static_cast<std::uint64_t>(result.status));
      }
      return;
    }
    case Op::Kind::kTask: {
      op.fn(op.ctx, op.arg);
      if (op.ticket) op.ticket->complete(0, 0);
      return;
    }
  }
}

void ShardExecutor::submit_connect(std::size_t shard,
                                   const MulticastRequest* request,
                                   OpTicket* ticket) {
  Op op;
  op.kind = Op::Kind::kConnect;
  op.request = request;
  op.ticket = ticket;
  push(shard, op);
}

void ShardExecutor::submit_disconnect(std::size_t shard, ConnectionId id,
                                      OpTicket* ticket) {
  Op op;
  op.kind = Op::Kind::kDisconnect;
  op.id = id;
  op.ticket = ticket;
  push(shard, op);
}

void ShardExecutor::submit_grow(std::size_t shard, ConnectionId id,
                                const WavelengthEndpoint& destination,
                                OpTicket* ticket) {
  Op op;
  op.kind = Op::Kind::kGrow;
  op.id = id;
  op.destination = destination;
  op.ticket = ticket;
  push(shard, op);
}

void ShardExecutor::submit_task(std::size_t shard,
                                void (*fn)(void*, std::uint64_t), void* ctx,
                                std::uint64_t arg, OpTicket* ticket) {
  Op op;
  op.kind = Op::Kind::kTask;
  op.fn = fn;
  op.ctx = ctx;
  op.arg = arg;
  op.ticket = ticket;
  push(shard, op);
}

std::optional<ConnectionId> ShardExecutor::connect(
    std::size_t shard, const MulticastRequest& request) {
  OpTicket ticket;
  submit_connect(shard, &request, &ticket);
  ticket.wait();
  if (ticket.extra() == 0) return std::nullopt;
  return static_cast<ConnectionId>(ticket.value());
}

bool ShardExecutor::disconnect(std::size_t shard, ConnectionId id) {
  OpTicket ticket;
  submit_disconnect(shard, id, &ticket);
  ticket.wait();
  return ticket.value() != 0;
}

GrowResult ShardExecutor::grow(std::size_t shard, ConnectionId id,
                               const WavelengthEndpoint& destination) {
  OpTicket ticket;
  submit_grow(shard, id, destination, &ticket);
  ticket.wait();
  return {static_cast<GrowResult::Status>(ticket.extra()),
          static_cast<ConnectionId>(ticket.value())};
}

void ShardExecutor::run_task(std::size_t shard,
                             const std::function<void()>& fn) {
  OpTicket ticket;
  submit_task(
      shard,
      [](void* ctx, std::uint64_t) {
        (*static_cast<const std::function<void()>*>(ctx))();
      },
      const_cast<std::function<void()>*>(&fn), 0, &ticket);
  ticket.wait();
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
