#include "engine/sharded_engine.h"

#include <algorithm>
#include <exception>
#include <iostream>
#include <stdexcept>

#include "engine/shard_executor.h"
#include "faults/fault_model.h"
#include "util/metrics.h"

namespace wdm::engine {

namespace {

/// Engine-plane instruments (see docs/BENCHMARKS.md glossary). All counters
/// here track deterministic per-shard outcomes, so their totals are
/// bit-identical at any thread count.
struct EngineMetrics {
  Counter& connects = metrics().counter("engine.connects");
  Counter& disconnects = metrics().counter("engine.disconnects");
  Counter& grows = metrics().counter("engine.grows");
  Counter& grow_blocked = metrics().counter("engine.grow_blocked");
  Counter& stale_rejected = metrics().counter("engine.stale_rejected");
  Counter& snapshot_publishes = metrics().counter("obs.snapshot_publishes");
  Counter& snapshot_reads = metrics().counter("obs.snapshot_reads");
  Counter& snapshot_retries = metrics().counter("obs.snapshot_retries");

  static EngineMetrics& get() {
    static EngineMetrics instance;
    return instance;
  }
};

/// splitmix64 finalizer: the bijective mixer behind Rng seeding, reused here
/// to score (port, shard) pairs for rendezvous hashing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t rendezvous_shard(std::size_t port, std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("rendezvous_shard: shard_count must be > 0");
  }
  std::size_t winner = 0;
  std::uint64_t best = 0;
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    // Score both inputs through one mix so neither port nor shard ordering
    // leaks into the weights.
    const std::uint64_t weight =
        mix64(mix64(static_cast<std::uint64_t>(port)) ^
              static_cast<std::uint64_t>(shard) * 0xD1B54A32D192ED03ull);
    if (shard == 0 || weight > best) {
      winner = shard;
      best = weight;
    }
  }
  return winner;
}

ShardedEngine::Shard::Shard(std::uint32_t index, const EngineConfig& config)
    : sw(config.params, config.construction, config.network_model,
         config.policy),
      flight(index),
      health(obs::EngineHealthSnapshot::encoded_words(config.params.m,
                                                      config.params.r)) {
  if (config.repack.enabled) sw.enable_repack(config.repack);
}

ShardedEngine::ShardedEngine(const EngineConfig& config)
    : config_(config),
      bound_(theorem_min_m(config.params.n, config.params.r, config.params.k,
                           config.construction)) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ShardedEngine: need at least one shard");
  }
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(static_cast<std::uint32_t>(s),
                                              config_));
    // Publish the empty-fabric snapshot so readers never see version 0 /
    // all-zero geometry, even before the first session arrives.
    publish_health(*shards_.back());
  }
  owned_ports_.resize(config_.shards);
  for (std::size_t port = 0; port < port_count(); ++port) {
    owned_ports_[rendezvous_shard(port, config_.shards)].push_back(port);
  }
}

void ShardedEngine::publish_health(Shard& shard) {
  ThreeStageNetwork& network = shard.sw.network();
  const ClosParams& params = network.params();
  const FaultModel* faults = network.active_fault_model();
  const std::uint64_t failed =
      faults == nullptr ? 0 : faults->failed_middle_count();
  const std::uint64_t effective = failed >= params.m ? 0 : params.m - failed;
  const std::int64_t margin = static_cast<std::int64_t>(effective) -
                              static_cast<std::int64_t>(bound_.m);
  const repack::RepackEngine* repacker = shard.sw.repack_engine();
  const std::uint64_t header[obs::EngineHealthSnapshot::kHeaderWords] = {
      ++shard.publish_version,
      shard.flight.shard(),
      params.m,
      params.r,
      network.active_connections(),
      network.busy_middle_lanes(),
      shard.connects,
      shard.disconnects,
      shard.grows,
      shard.grow_blocked,
      shard.stale_rejected,
      bound_.m,
      failed,
      static_cast<std::uint64_t>(margin),
      margin >= 0 ? 1u : 0u,
      repacker == nullptr ? 0 : repacker->sessions_moved_total(),
      repacker == nullptr ? 0 : repacker->max_chain_length(),
  };
  // The payload stays resident: besides the header, only the counts of the
  // middles whose occupancy changed since the last publish are rewritten
  // (all m on the constructor's first publish; see drain_dirty_middles).
  shard.health.update([&](const obs::SeqlockSnapshotSlot::Writer& out) {
    for (std::size_t i = 0; i < obs::EngineHealthSnapshot::kHeaderWords; ++i) {
      out.store(i, header[i]);
    }
    network.drain_dirty_middles([&](std::size_t j, std::size_t lanes) {
      out.store(obs::EngineHealthSnapshot::kHeaderWords + j, lanes);
    });
  });
  EngineMetrics::get().snapshot_publishes.add();
}

obs::EngineHealthSnapshot ShardedEngine::health_snapshot(
    std::size_t shard) const {
  const Shard& owner = *shards_.at(shard);
  // The read takes no lock. It copies into one heap buffer sized from the
  // (immutable) geometry, which becomes the snapshot's middle_busy.
  std::vector<std::uint64_t> buffer(owner.health.capacity());
  std::size_t retries = 0;
  owner.health.read(buffer.data(), buffer.size(), &retries);
  EngineMetrics& counters = EngineMetrics::get();
  counters.snapshot_reads.add();
  if (retries != 0) counters.snapshot_retries.add(retries);
  return obs::EngineHealthSnapshot::decode(std::move(buffer));
}

std::vector<obs::EngineHealthSnapshot> ShardedEngine::health_snapshots() const {
  std::vector<obs::EngineHealthSnapshot> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out.push_back(health_snapshot(s));
  }
  return out;
}

obs::FlightRecorder::Dump ShardedEngine::flight_dump(std::size_t shard) const {
  return shards_.at(shard)->flight.dump();
}

void ShardedEngine::dump_flight_recorders(std::ostream& os) const {
  for (const auto& shard : shards_) {
    obs::FlightRecorder::print(shard->flight.dump(), os);
  }
}

std::size_t ShardedEngine::shard_of(std::size_t source_port) const {
  return rendezvous_shard(source_port, shards_.size());
}

const std::vector<std::size_t>& ShardedEngine::owned_ports(
    std::size_t shard) const {
  return owned_ports_.at(shard);
}

MultistageSwitch& ShardedEngine::shard_switch(std::size_t shard) {
  return shards_.at(shard)->sw;
}

std::optional<SessionId> ShardedEngine::connect(const MulticastRequest& request) {
  const std::size_t shard = shard_of(request.input.port);
  std::optional<ConnectionId> id;
  with_shard_exclusive(shard, [&] { id = connect_locked(shard, request); });
  if (!id) return std::nullopt;
  return SessionId{static_cast<std::uint32_t>(shard), *id};
}

bool ShardedEngine::disconnect(SessionId session) {
  if (session.shard >= shards_.size()) return false;
  bool released = false;
  with_shard_exclusive(session.shard, [&] {
    released = disconnect_locked(session.shard, session.connection);
  });
  return released;
}

GrowResult ShardedEngine::grow(SessionId session,
                               const WavelengthEndpoint& destination) {
  if (session.shard >= shards_.size()) return {};
  GrowResult result;
  with_shard_exclusive(session.shard, [&] {
    result = grow_locked(session.shard, session.connection, destination);
  });
  return result;
}

void ShardedEngine::attach_executor(ShardExecutor* executor) {
  executor_.store(executor, std::memory_order_release);
}

bool ShardedEngine::claim_inline(std::size_t shard) const {
  Shard& owner = *shards_.at(shard);
  ShardExecutor* exec = executor();
  if (exec == nullptr) {
    spin_then_yield([&owner] { return try_claim(owner); });
    return true;
  }
  if (!try_claim(owner)) return false;
  // Queued ops were submitted before this call began, so they run first.
  if (exec->queue_empty(shard)) return true;
  release_claim(shard);
  return false;
}

void ShardedEngine::run_on_executor(std::size_t shard, void (*body)(void*),
                                    void* ctx) const {
  struct Task {
    void (*body)(void*);
    void* ctx;
    std::exception_ptr error;
  } task{body, ctx, nullptr};
  OpTicket ticket;
  executor()->submit_task(
      shard,
      [](void* raw, std::uint64_t) {
        // Caught here: an exception escaping a worker would terminate the
        // process instead of failing the caller.
        auto& queued = *static_cast<Task*>(raw);
        try {
          queued.body(queued.ctx);
        } catch (...) {
          queued.error = std::current_exception();
        }
      },
      &task, 0, &ticket);
  ticket.wait();
  if (task.error) std::rethrow_exception(task.error);
}

std::size_t ShardedEngine::active_sessions() const {
  // Lock-free: the per-shard session counts ride the seqlock health spine,
  // and a header-prefix read is a valid consistent read
  // (obs/health_snapshot.h). Each term is exact as of that shard's latest
  // publish; at quiescence the sum equals active_sessions_locked().
  std::uint64_t header[obs::EngineHealthSnapshot::kHeaderWords];
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    shard->health.read(header, obs::EngineHealthSnapshot::kHeaderWords);
    total += static_cast<std::size_t>(header[4]);  // sessions word
  }
  EngineMetrics::get().snapshot_reads.add(shards_.size());
  return total;
}

std::size_t ShardedEngine::active_sessions_locked() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    with_shard_exclusive(s, [&] { total += shards_[s]->sw.active_connections(); });
  }
  return total;
}

bool ShardedEngine::is_active(SessionId session) const {
  if (session.shard >= shards_.size()) return false;
  return shards_[session.shard]->session_table.is_active(
      ThreeStageNetwork::slot_of_id(session.connection),
      ThreeStageNetwork::generation_of_id(session.connection));
}

std::optional<SessionProbe> ShardedEngine::find_session(
    SessionId session) const {
  if (!is_active(session)) return std::nullopt;
  return SessionProbe{session.shard,
                      ThreeStageNetwork::slot_of_id(session.connection),
                      ThreeStageNetwork::generation_of_id(session.connection)};
}

AdmissionPrecheck ShardedEngine::admission_precheck(std::size_t shard) const {
  std::uint64_t header[obs::EngineHealthSnapshot::kHeaderWords];
  shards_.at(shard)->health.read(header,
                                 obs::EngineHealthSnapshot::kHeaderWords);
  EngineMetrics::get().snapshot_reads.add();
  AdmissionPrecheck out;
  out.version = header[0];
  out.sessions = header[4];
  out.margin = static_cast<std::int64_t>(header[13]);
  out.admit = header[14] != 0;
  return out;
}

void ShardedEngine::self_check() const {
  try {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      with_shard_exclusive(s, [&] { shards_[s]->sw.network().self_check(); });
    }
  } catch (...) {
    // The post-mortem window: what the shards did leading up to the
    // corruption, before the exception unwinds the run away.
    dump_flight_recorders(std::cerr);
    throw;
  }
}

void ShardedEngine::note_session_active(Shard& shard, ConnectionId id) {
  shard.session_table.mark_active(ThreeStageNetwork::slot_of_id(id),
                                  ThreeStageNetwork::generation_of_id(id));
}

void ShardedEngine::note_session_released(Shard& shard, ConnectionId id) {
  shard.session_table.mark_released(ThreeStageNetwork::slot_of_id(id),
                                    ThreeStageNetwork::generation_of_id(id));
}

std::optional<ConnectionId> ShardedEngine::connect_locked(
    std::size_t shard, const MulticastRequest& request) {
  Shard& owner = *shards_[shard];
  const auto id = owner.sw.connect_with_repack(request);
  if (id) {
    note_session_active(owner, *id);
    EngineMetrics::get().connects.add();
    ++owner.connects;
    // A repack admission gets its own op kind with the chain length as the
    // detail, so flight dumps show which admits rearranged standing sessions.
    const repack::RepackEngine* repacker = owner.sw.repack_engine();
    const std::size_t chain =
        repacker == nullptr ? 0 : repacker->last_moved().size();
    owner.flight.record(chain != 0 ? obs::EngineOp::kRepack
                                   : obs::EngineOp::kConnect,
                        obs::EngineOpOutcome::kAdmitted, *id,
                        static_cast<std::uint32_t>(chain));
  } else {
    owner.flight.record(obs::EngineOp::kConnect,
                        obs::EngineOpOutcome::kBlocked, 0);
  }
  publish_health(owner);
  return id;
}

bool ShardedEngine::disconnect_locked(std::size_t shard, ConnectionId id) {
  EngineMetrics& counters = EngineMetrics::get();
  Shard& owner = *shards_[shard];
  if (!owner.sw.try_disconnect(id)) {
    counters.stale_rejected.add();
    ++owner.stale_rejected;
    owner.flight.record(obs::EngineOp::kDisconnect,
                        obs::EngineOpOutcome::kStale, id);
    publish_health(owner);
    return false;
  }
  note_session_released(owner, id);
  counters.disconnects.add();
  ++owner.disconnects;
  owner.flight.record(obs::EngineOp::kDisconnect,
                      obs::EngineOpOutcome::kAdmitted, id);
  publish_health(owner);
  return true;
}

GrowResult ShardedEngine::grow_locked(std::size_t shard, ConnectionId id,
                                      const WavelengthEndpoint& destination) {
  EngineMetrics& counters = EngineMetrics::get();
  Shard& owner = *shards_[shard];
  MultistageSwitch& sw = owner.sw;
  ThreeStageNetwork& network = sw.network();

  if (!network.connections().contains(id)) {
    counters.stale_rejected.add();
    ++owner.stale_rejected;
    owner.flight.record(obs::EngineOp::kGrow, obs::EngineOpOutcome::kStale, id);
    publish_health(owner);
    return {};
  }

  // Copies must be taken before the release frees the record: the grown
  // request (the original plus one destination) and the record's words.
  const ThreeStageNetwork::RecordView session = network.connections().at(id);
  MulticastRequest& grown = owner.grow_request;
  grown.input = session.input();
  const auto outputs = session.outputs();
  grown.outputs.assign(outputs.begin(), outputs.end());
  grown.outputs.push_back(destination);
  owner.grow_words.assign(session.words().begin(), session.words().end());

  // Break-before-make: the grown request reuses the session's own input
  // wavelength, so it is inadmissible while the session stands. The internal
  // try_connect is a grow, not an admission -- it bumps no connect tallies.
  network.release(id);
  if (const auto grown_id = sw.try_connect(grown)) {
    // The session renewed its id either way; the old one is stale forever.
    // Released-before-active keeps the table's per-slot word monotone.
    note_session_released(owner, id);
    note_session_active(owner, *grown_id);
    counters.grows.add();
    ++owner.grows;
    owner.flight.record(obs::EngineOp::kGrow, obs::EngineOpOutcome::kGrown,
                        *grown_id);
    publish_health(owner);
    return {GrowResult::Status::kGrown, *grown_id};
  }

  // Roll back. The release freed exactly the original route's resources and
  // the failed try_connect installed nothing, so reinstalling the original
  // record cannot fail.
  const ThreeStageNetwork::RecordView original(owner.grow_words, network.params().n);
  const ConnectionId restored = network.install(original.request(), original.route());
  note_session_released(owner, id);
  note_session_active(owner, restored);
  counters.grow_blocked.add();
  ++owner.grow_blocked;
  owner.flight.record(obs::EngineOp::kGrow,
                      obs::EngineOpOutcome::kGrowBlocked, restored);
  publish_health(owner);
  return {GrowResult::Status::kBlocked, restored};
}

CrossGrowResult ShardedEngine::grow_to_shard(
    SessionId session, const WavelengthEndpoint& destination,
    std::size_t target) {
  if (session.shard >= shards_.size() || target >= shards_.size()) return {};
  if (target == session.shard) {
    // Degenerate case: an ordinary local grow (break-before-make).
    const GrowResult local = grow(session, destination);
    return {local.status, SessionId{session.shard, local.connection}};
  }
  EngineMetrics& counters = EngineMetrics::get();
  Shard& source = *shards_[session.shard];
  Shard& dest = *shards_[target];

  // Phase 1 (source exclusive): copy the live request. Unlike the local
  // grow, nothing is released yet -- shard replicas have independent
  // endpoints, so the grown copy can coexist with the original.
  std::optional<MulticastRequest> grown;
  with_shard_exclusive(session.shard, [&] {
    const auto connections = source.sw.network().connections();
    if (connections.contains(session.connection)) {
      grown = connections.at(session.connection).request();
      return;
    }
    counters.stale_rejected.add();
    ++source.stale_rejected;
    source.flight.record(obs::EngineOp::kMigrateOut,
                         obs::EngineOpOutcome::kStale, session.connection);
    publish_health(source);
  });
  if (!grown) return {};
  grown->outputs.push_back(destination);

  // Phase 2 (target exclusive): admit the grown copy. A migration, not a
  // fresh admission -- it bumps no connect tallies; a refusal counts as a
  // blocked grow on the shard that refused.
  std::optional<ConnectionId> grown_id;
  with_shard_exclusive(target, [&] {
    grown_id = dest.sw.try_connect(*grown);
    if (grown_id) {
      note_session_active(dest, *grown_id);
      dest.flight.record(obs::EngineOp::kMigrateIn,
                         obs::EngineOpOutcome::kAdmitted, *grown_id);
    } else {
      counters.grow_blocked.add();
      ++dest.grow_blocked;
      dest.flight.record(obs::EngineOp::kMigrateIn,
                         obs::EngineOpOutcome::kBlocked, 0);
    }
    publish_health(dest);
  });
  if (!grown_id) return {GrowResult::Status::kBlocked, session};

  if (cross_grow_between_phases_hook) {
    cross_grow_between_phases_hook(session, SessionId{
        static_cast<std::uint32_t>(target), *grown_id});
  }

  // Phase 3 (source exclusive): release the original, generation-validated.
  // A concurrent disconnect may have beaten us here; then the migration
  // loses and must roll the copy back.
  bool released = false;
  with_shard_exclusive(session.shard, [&] {
    if (source.sw.try_disconnect(session.connection)) {
      released = true;
      note_session_released(source, session.connection);
      counters.grows.add();
      ++source.grows;
      source.flight.record(obs::EngineOp::kMigrateOut,
                           obs::EngineOpOutcome::kAdmitted, session.connection);
    } else {
      counters.stale_rejected.add();
      ++source.stale_rejected;
      source.flight.record(obs::EngineOp::kMigrateOut,
                           obs::EngineOpOutcome::kStale, session.connection);
    }
    publish_health(source);
  });
  if (released) {
    return {GrowResult::Status::kGrown,
            SessionId{static_cast<std::uint32_t>(target), *grown_id}};
  }

  // Rollback (target exclusive): the session died mid-migration, so the
  // grown copy must not survive it. The copy's id never escaped (it is
  // returned only on success), so releasing it leaks nothing.
  with_shard_exclusive(target, [&] {
    // Through the router, not a raw network release: the copy was admitted
    // by try_connect, so its teardown keeps routing.disconnects counted.
    // It cannot fail: the copy's id never left this function, so nothing
    // else could release it.
    dest.sw.try_disconnect(*grown_id);
    note_session_released(dest, *grown_id);
    dest.flight.record(obs::EngineOp::kMigrateIn, obs::EngineOpOutcome::kStale,
                       *grown_id);
    publish_health(dest);
  });
  return {};
}

CrossGrowResult ShardedEngine::grow_anywhere(
    SessionId session, const WavelengthEndpoint& destination) {
  // Home shard first: the cheap path, and the only one that needs no
  // migration. Remember that a BLOCKED local grow still renews the id.
  const GrowResult local = grow(session, destination);
  SessionId current{session.shard, local.connection};
  if (local.status != GrowResult::Status::kBlocked) {
    return {local.status, current};
  }

  // Candidates ordered by the lock-free pre-check: largest margin first,
  // then fewest sessions, then shard index (a total order, so the retry
  // sequence is deterministic for a given snapshot state).
  struct Candidate {
    std::size_t shard;
    AdmissionPrecheck pre;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(shards_.size() - 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s == session.shard) continue;
    candidates.push_back({s, admission_precheck(s)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.pre.margin != b.pre.margin) return a.pre.margin > b.pre.margin;
              if (a.pre.sessions != b.pre.sessions) return a.pre.sessions < b.pre.sessions;
              return a.shard < b.shard;
            });
  for (const Candidate& candidate : candidates) {
    const CrossGrowResult result =
        grow_to_shard(current, destination, candidate.shard);
    if (result.status != GrowResult::Status::kBlocked) return result;
    current = result.session;  // unchanged on kBlocked, but stay exact
  }
  return {GrowResult::Status::kBlocked, current};
}

}  // namespace wdm::engine
