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
  TimerStat& drain_batch = metrics().timer("engine.drain_batch");
  Histogram& request_fanout = metrics().histogram("engine.request_fanout");
  Histogram& grow_candidates = metrics().histogram("engine.grow_candidates");

  static DriverMetrics& get() {
    static DriverMetrics instance;
    return instance;
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

void ChurnDriver::fail(const char* what) const {
  engine_->dump_flight_recorders(std::cerr);
  throw std::logic_error(what);
}

void ChurnDriver::remember_stale(Lane& lane, ConnectionId id) {
  if (lane.stale.size() < kStaleRing) {
    lane.stale.push_back(id);
  } else {
    lane.stale[lane.stale_cursor] = id;
    lane.stale_cursor = (lane.stale_cursor + 1) % kStaleRing;
  }
}

void ChurnDriver::tick(Lane& lane) {
  DriverMetrics& instruments = DriverMetrics::get();
  MultistageSwitch& sw = engine_->shard_switch(lane.shard);
  ThreeStageNetwork& network = sw.network();
  ShardChurnStats& stats = lane.stats;
  SimStats& sim = stats.sim;

  ++sim.steps;
  sim.active_connection_steps += lane.active.size();

  // Stale-id probe: replay a disposed (possibly slot-reused) id against the
  // shard; the generation tag must reject it without touching anything.
  if (!lane.stale.empty() && lane.rng.next_bool(config_.stale_probe_fraction)) {
    ++stats.stale_probes;
    const ConnectionId stale =
        lane.stale[lane.rng.next_below(lane.stale.size())];
    if (network.try_release(stale)) {
      ++stats.stale_accepted;  // corruption; surfaced by every caller's checks
    } else {
      ++stats.stale_rejected;
      metrics().counter("engine.stale_rejected").add();
    }
  }

  const bool arrive =
      lane.active.empty() || lane.rng.next_bool(config_.arrival_fraction);
  if (arrive) {
    const auto request = random_admissible_request(
        lane.rng, network, config_.fanout, engine_->owned_ports(lane.shard));
    if (request) {
      ++sim.attempts;
      instruments.arrivals.add();
      instruments.request_fanout.record(request->outputs.size());
      if (const auto id = engine_->connect_locked(lane.shard, *request)) {
        ++sim.admitted;
        sim.conversions += conversions_in_route(network.connections().at(*id));
        lane.active.push_back(*id);
        sim.max_concurrent = std::max(sim.max_concurrent, lane.active.size());
      } else {
        ++sim.blocked;
        instruments.blocked.add();
      }
    }
  } else if (lane.rng.next_bool(config_.grow_fraction)) {
    grow_tick(lane, static_cast<std::size_t>(
                        lane.rng.next_below(lane.active.size())));
  } else {
    const std::size_t victim =
        static_cast<std::size_t>(lane.rng.next_below(lane.active.size()));
    const ConnectionId id = lane.active[victim];
    if (!engine_->disconnect_locked(lane.shard, id)) {
      fail("ChurnDriver: live session rejected as stale");
    }
    remember_stale(lane, id);
    lane.active[victim] = lane.active.back();
    lane.active.pop_back();
    ++sim.departures;
  }

  if (config_.self_check_every != 0 &&
      sim.steps % config_.self_check_every == 0) {
    network.self_check();
  }
}

void ChurnDriver::grow_tick(Lane& lane, std::size_t victim) {
  ShardChurnStats& stats = lane.stats;
  ++stats.grow_attempts;
  ThreeStageNetwork& network = engine_->shard_switch(lane.shard).network();
  const ConnectionId id = lane.active[victim];
  if (!network.connections().contains(id)) {
    fail("ChurnDriver: lost track of a live session");
  }
  const ThreeStageNetwork::RecordView session = network.connections().at(id);
  const auto outputs = session.outputs();
  const std::size_t N = network.port_count();
  const std::size_t k = network.lane_count();

  // One wavelength per output port: only ports the session does not already
  // deliver to can take the new destination.
  auto port_used = [&outputs](std::size_t port) {
    return std::any_of(outputs.begin(), outputs.end(),
                       [port](const WavelengthEndpoint& out) {
                         return out.port == port;
                       });
  };

  // Candidate destinations under the network model's lane discipline
  // (mirrors random_admissible_request's per-model rules).
  std::vector<WavelengthEndpoint> candidates;
  switch (network.network_model()) {
    case MulticastModel::kMSW:
    case MulticastModel::kMSDW: {
      // MSW fans out on the source lane; MSDW on the request's (single)
      // destination lane. Both pin every destination to one lane.
      const Wavelength lane_required = network.network_model() ==
                                               MulticastModel::kMSW
                                           ? session.input().lane
                                           : outputs[0].lane;
      for (std::size_t port = 0; port < N; ++port) {
        if (!port_used(port) &&
            (network.output_lanes_busy(port) >> lane_required & 1u) == 0) {
          candidates.push_back({port, lane_required});
        }
      }
      break;
    }
    case MulticastModel::kMAW: {
      for (std::size_t port = 0; port < N; ++port) {
        if (port_used(port)) continue;
        if (const auto free_lane =
                draw_free_lane(lane.rng, network.output_lanes_busy(port), k)) {
          candidates.push_back({port, *free_lane});
        }
      }
      break;
    }
  }
  DriverMetrics::get().grow_candidates.record(candidates.size());
  if (candidates.empty()) {
    ++stats.grow_blocked;
    metrics().counter("engine.grow_blocked").add();
    return;
  }

  const WavelengthEndpoint destination =
      candidates[lane.rng.next_below(candidates.size())];
  const GrowResult result = engine_->grow_locked(lane.shard, id, destination);
  switch (result.status) {
    case GrowResult::Status::kGrown:
      ++stats.grows;
      break;
    case GrowResult::Status::kBlocked:
      ++stats.grow_blocked;
      break;
    case GrowResult::Status::kStaleSession:
      fail("ChurnDriver: grow lost a live session");
  }
  // Break-before-make: the session carries a fresh id either way, and the
  // old id is exactly the stale-probe material we want.
  remember_stale(lane, id);
  lane.active[victim] = result.connection;
}

ChurnStats ChurnDriver::merge(std::vector<std::unique_ptr<Lane>>& lanes) const {
  ChurnStats out;
  out.per_shard.reserve(lanes.size());
  for (const auto& lane : lanes) {  // ascending shard order, always
    const ShardChurnStats& stats = lane->stats;
    out.per_shard.push_back(stats);
    out.total.sim += stats.sim;
    out.total.grow_attempts += stats.grow_attempts;
    out.total.grows += stats.grows;
    out.total.grow_blocked += stats.grow_blocked;
    out.total.stale_probes += stats.stale_probes;
    out.total.stale_rejected += stats.stale_rejected;
    out.total.stale_accepted += stats.stale_accepted;
    out.leftover_sessions += lane->active.size();
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
