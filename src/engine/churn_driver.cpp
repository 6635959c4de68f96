#include "engine/churn_driver.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "engine/shard_executor.h"
#include "util/metrics.h"
#include "util/trace_span.h"

namespace wdm::engine {

namespace {

/// Driver instruments (see docs/BENCHMARKS.md glossary). engine.batches and
/// the outcome counters are deterministic; engine.drain_batch is wall time.
struct DriverMetrics {
  Counter& batches = metrics().counter("engine.batches");
  Counter& arrivals = metrics().counter("engine.arrivals");
  Counter& blocked = metrics().counter("engine.blocked");
  Counter& stale_rejected = metrics().counter("engine.stale_rejected");
  Counter& grow_blocked = metrics().counter("engine.grow_blocked");
  TimerStat& drain_batch = metrics().timer("engine.drain_batch");
  Histogram& request_fanout = metrics().histogram("engine.request_fanout");
  Histogram& grow_candidates = metrics().histogram("engine.grow_candidates");
  const ChurnInstruments churn{.stale_rejected = &stale_rejected,
                               .grow_blocked = &grow_blocked,
                               .grow_candidates = &grow_candidates};

  static DriverMetrics& get() {
    static DriverMetrics instance;
    return instance;
  }
};

/// Invariant-violation exit: dump every shard's flight recorder to stderr
/// (the post-mortem window CI uploads), then throw std::logic_error(what).
[[noreturn]] void fail(const ShardedEngine& engine, const char* what) {
  engine.dump_flight_recorders(std::cerr);
  throw std::logic_error(what);
}

/// churn_step's op target: one shard's *_locked calls, made under its claim.
/// The engine counts its own admits, disconnects and grows.
struct ShardTarget {
  ShardedEngine& engine;
  std::size_t shard;

  MultistageSwitch& sw() { return engine.shard_switch(shard); }
  std::optional<ConnectionId> connect(const MulticastRequest& request) {
    DriverMetrics& instruments = DriverMetrics::get();
    instruments.arrivals.add();
    instruments.request_fanout.record(request.outputs.size());
    const auto id = engine.connect_locked(shard, request);
    if (!id) instruments.blocked.add();
    return id;
  }
  void disconnect(ConnectionId id) {
    if (!engine.disconnect_locked(shard, id)) {
      fail(engine, "ChurnDriver: live session rejected as stale");
    }
  }
  /// {grown, the session's new id}: a blocked grow renews the id too.
  std::pair<bool, ConnectionId> grow(ConnectionId id, const WavelengthEndpoint& destination) {
    const GrowResult result = engine.grow_locked(shard, id, destination);
    if (result.status == GrowResult::Status::kStaleSession) {
      fail(engine, "ChurnDriver: grow lost a live session");
    }
    return {result.status == GrowResult::Status::kGrown, result.connection};
  }
};

}  // namespace

std::string ChurnStats::to_string() const {
  std::ostringstream os;
  os << "shards=" << per_shard.size() << " " << total.sim.to_string()
     << " grows=" << total.grows << "/" << total.grow_attempts
     << " stale_rejected=" << total.stale_rejected << "/" << total.stale_probes
     << " leftover=" << leftover_sessions;
  return os.str();
}

ChurnDriver::ChurnDriver(ShardedEngine& engine, ChurnConfig config)
    : engine_(&engine), config_(config) {}

void ChurnDriver::tick(Lane& lane) {
  ShardTarget target{*engine_, lane.shard};
  const ChurnMix mix{.arrival_fraction = config_.arrival_fraction,
                     .grow_fraction = config_.grow_fraction,
                     .stale_probe_fraction = config_.stale_probe_fraction,
                     .fanout = config_.fanout,
                     .source_ports = &engine_->owned_ports(lane.shard)};
  churn_step(target, lane.stream, mix, DriverMetrics::get().churn);
  if (config_.self_check_every != 0 &&
      lane.stream.tally.sim.steps % config_.self_check_every == 0) {
    target.sw().network().self_check();
  }
}

ChurnStats ChurnDriver::merge(std::vector<std::unique_ptr<Lane>>& lanes) const {
  ChurnStats out;
  out.per_shard.reserve(lanes.size());
  for (const auto& lane : lanes) {  // ascending shard order, always
    const ShardChurnStats& stats = lane->stream.tally;
    out.per_shard.push_back(stats);
    out.total.sim += stats.sim;
    out.total.grow_attempts += stats.grow_attempts;
    out.total.grows += stats.grows;
    out.total.grow_blocked += stats.grow_blocked;
    out.total.stale_probes += stats.stale_probes;
    out.total.stale_rejected += stats.stale_rejected;
    out.total.stale_accepted += stats.stale_accepted;
    out.leftover_sessions += lane->stream.live.size();
  }
  return out;
}

std::vector<std::unique_ptr<ChurnDriver::Lane>> ChurnDriver::make_lanes() {
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(engine_->shard_count());
  for (std::size_t s = 0; s < engine_->shard_count(); ++s) {
    lanes.push_back(std::make_unique<Lane>(*this, s, config_));
  }
  return lanes;
}

void ChurnDriver::run_batch(void* raw, std::uint64_t ops) {
  Lane& lane = *static_cast<Lane*>(raw);
  // A prior batch on this shard failed: stop advancing the stream so the
  // error surfaces with the lane state that produced it.
  if (lane.task_error) return;
  try {
    ScopedTimer timer(DriverMetrics::get().drain_batch);
    TraceSpan span("engine.drain_batch");
    span.arg("shard", static_cast<std::int64_t>(lane.shard));
    span.arg("ops", static_cast<std::int64_t>(ops));
    for (std::uint64_t i = 0; i < ops; ++i) lane.driver->tick(lane);
  } catch (...) {
    // Never let an exception escape into an executor's worker loop (that
    // would terminate the process); run() rethrows once every batch ran.
    lane.task_error = std::current_exception();
  }
}

ChurnStats ChurnDriver::run(ThreadPool& pool) {
  std::vector<std::unique_ptr<Lane>> lanes = make_lanes();
  if (config_.ops_per_shard != 0) {
    const std::size_t shard_count = lanes.size();
    const std::size_t batch = std::max<std::size_t>(1, config_.batch);
    const std::size_t total_batches =
        (config_.ops_per_shard + batch - 1) / batch * shard_count;
    const std::size_t workers = std::max<std::size_t>(1, config_.workers);

    std::optional<ShardExecutor> executor;
    if (config_.queued) {
      executor.emplace(*engine_,
                       ExecutorConfig{.workers = workers,
                                      .queue_capacity = std::max<std::size_t>(
                                          2, config_.queue_depth)});
    }
    // One submitter feeds an executor (a full queue blocks it: backpressure
    // delays but never reorders); inline, each of `workers` submitters runs
    // the batches it draws.
    std::atomic<std::size_t> cursor{0};
    pool.parallel_for(executor ? 1 : workers, [&](std::size_t) {
      TraceSpan span("engine.worker");
      for (;;) {
        const std::size_t claim =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (claim >= total_batches) return;
        Lane& lane = *lanes[claim % shard_count];
        const std::size_t begin = (claim / shard_count) * batch;
        const std::size_t size = std::min(batch, config_.ops_per_shard - begin);
        DriverMetrics::get().batches.add();
        if (executor) {
          executor->submit_task(lane.shard, &ChurnDriver::run_batch, &lane,
                                size, nullptr);
        } else {
          engine_->with_shard_exclusive(lane.shard,
                                        [&] { run_batch(&lane, size); });
        }
      }
    });
    // The executor's destructor quiesces, detaches from the engine and
    // joins its workers, so every batch has run past this point.
  }
  for (const auto& lane : lanes) {
    if (lane->task_error) std::rethrow_exception(lane->task_error);
  }
  return merge(lanes);
}

ChurnStats ChurnDriver::run() { return run(default_pool()); }

ChurnStats ChurnDriver::run_serial() {
  std::vector<std::unique_ptr<Lane>> lanes = make_lanes();
  for (const auto& lane : lanes) {
    for (std::size_t op = 0; op < config_.ops_per_shard; ++op) tick(*lane);
  }
  return merge(lanes);
}

}  // namespace wdm::engine
