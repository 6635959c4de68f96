// Sharded concurrent session engine over ThreeStageNetwork replicas.
//
// A ThreeStageNetwork/Router pair is single-threaded by construction (the
// routing hot path runs on mutable per-object scratch; see network.h), so
// one fabric can never use more than one core for connect/disconnect churn.
// The engine scales the session plane the way modular Clos deployments scale
// hardware -- and the way the AWG-based Clos literature decomposes fabrics
// into independent planes: S full MultistageSwitch replicas ("shards"), each
// with exactly one writer at a time, with every session pinned to the shard
// that owns its source port.
//
// Port ownership uses rendezvous (highest-random-weight) hashing: shard s
// owns port p iff mix(p, s) is the maximum over all shards. That gives the
// consistent-hash properties the session plane needs with no ring state:
//   * deterministic and uniform (each shard owns ~N/S ports),
//   * stable -- adding a shard moves only the ~N/(S+1) ports the new shard
//     wins; no port ever moves between two surviving shards.
//
// Thread-safety contract: a shard's state belongs to whoever holds the
// shard's *claim*, one atomic word per shard. Taking it is an acquire
// exchange that synchronizes-with the previous holder's release store, so
// every mutation the last writer made happens-before the next writer reads.
//
//   * connect / disconnect / grow, active_sessions_locked, self_check and
//     with_shard_exclusive claim exactly the shard they touch, run the body
//     on the calling thread and release it; sessions on distinct shards
//     never contend. A contended caller spins, then yields, until the claim
//     frees.
//   * While a ShardExecutor is attached (shard_executor.h, DESIGN.md §3.13)
//     its workers drain per-shard queues under the same claim. A caller
//     still runs inline when the claim is free and the shard's queue is
//     empty; otherwise it queues its body behind the pending ops and waits,
//     so one thread's ops keep their order.
//   * shard_switch() and the *_locked bodies require the claim: call them
//     inside with_shard_exclusive or inside a task the executor runs on
//     that shard. A claim is not reentrant -- never ask for a shard while
//     holding it (holding several distinct shards at once is fine).
//
// Lock-free reads take no claim: is_active / find_session probe the
// per-shard session-generation table (obs/session_table.h) and
// admission_precheck / active_sessions read the seqlock health-snapshot
// spine (obs/health_snapshot.h) -- safe from any thread, even while every
// shard's claim is held.
//
// Determinism across thread counts is a driver property: the engine itself
// is deterministic per shard because a shard is just a serial
// MultistageSwitch with one writer at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "multistage/builder.h"
#include "multistage/nonblocking.h"
#include "obs/flight_recorder.h"
#include "obs/health_snapshot.h"
#include "obs/session_table.h"
#include "repack/repack.h"

namespace wdm::engine {

class ShardExecutor;

/// A live session: the owning shard plus the shard-local connection id.
struct SessionId {
  std::uint32_t shard = 0;
  ConnectionId connection = 0;

  friend bool operator==(const SessionId&, const SessionId&) = default;
};

struct EngineConfig {
  /// Geometry of each shard replica.
  ClosParams params{4, 4, 5, 2};
  Construction construction = Construction::kMswDominant;
  MulticastModel network_model = MulticastModel::kMSW;
  /// Routing policy per shard; nullopt = Router::recommended_policy.
  std::optional<RoutingPolicy> policy;
  std::size_t shards = 4;
  /// Per-shard repack engine (rearrangeable mode, DESIGN.md §3.12). Disabled
  /// by default: the classic connect path -- decisions, counters, flight
  /// records -- stays bit-identical unless a config opts in.
  repack::RepackPolicy repack{.enabled = false};
};

/// Rendezvous hash: the shard that owns `port` among `shard_count` shards.
/// Exposed standalone so tests can verify the consistent-hash properties.
[[nodiscard]] std::size_t rendezvous_shard(std::size_t port,
                                           std::size_t shard_count);

/// The outcome of a grow() call. Growing is break-before-make (the grown
/// request reuses the session's own input wavelength, so the old route must
/// come down before the new one can be admitted); consequently the session
/// carries a NEW id after both kGrown and kBlocked -- on kBlocked the
/// original route is reinstalled under a fresh generation. kStaleSession
/// means the id no longer names a live session; nothing changed.
struct GrowResult {
  enum class Status { kGrown, kBlocked, kStaleSession };
  Status status = Status::kStaleSession;
  ConnectionId connection = 0;  // the session's id after the call
};

/// The outcome of a cross-shard grow (grow_to_shard / grow_anywhere).
/// kGrown: `session` names the migrated session on its new shard. kBlocked:
/// the target shard could not admit the grown request; the original session
/// is untouched and `session` still names it. kStaleSession: the id named no
/// live session (either at the start, or -- for the rollback race -- the
/// session was torn down concurrently after the grown copy was admitted; the
/// copy is then released and nothing leaks).
struct CrossGrowResult {
  GrowResult::Status status = GrowResult::Status::kStaleSession;
  SessionId session;
};

/// A successful lock-free session probe (find_session): where the session
/// lives and the generation under which its slot is currently active.
struct SessionProbe {
  std::uint32_t shard = 0;
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;
};

/// A lock-free admission pre-check for one shard: the live Theorem-1/2
/// margin read off the health-snapshot spine. `admit` is advisory -- the
/// margin can change between the probe and a subsequent connect() -- but it
/// is exact as of snapshot `version`, so admission control loops can shed
/// load without ever claiming a shard.
struct AdmissionPrecheck {
  bool admit = false;
  /// bound_m - peak middle-stage occupancy (negative = over the bound, which
  /// rearrangeable/repack configs can legally reach).
  std::int64_t margin = 0;
  std::uint64_t sessions = 0;  // live sessions on the shard at `version`
  std::uint64_t version = 0;   // the shard's publish version probed
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const EngineConfig& config);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Ports per shard replica (every replica has the same geometry).
  [[nodiscard]] std::size_t port_count() const { return config_.params.port_count(); }

  /// The shard that owns sessions originating at `source_port`.
  [[nodiscard]] std::size_t shard_of(std::size_t source_port) const;
  /// The source ports shard `shard` owns, ascending.
  [[nodiscard]] const std::vector<std::size_t>& owned_ports(std::size_t shard) const;

  // -- session API (thread-safe: each call claims its shard, see header) ----
  /// Route + install on the owning shard; nullopt when inadmissible or
  /// blocked there.
  [[nodiscard]] std::optional<SessionId> connect(const MulticastRequest& request);
  /// Tear down; false for stale ids (double-disconnect safe).
  bool disconnect(SessionId session);
  /// Add one destination to a live session (multicast grow); see GrowResult.
  GrowResult grow(SessionId session, const WavelengthEndpoint& destination);
  /// Move a live session to shard `target` while growing it by
  /// `destination` -- the cross-shard escape hatch when the home shard's
  /// margin is exhausted. Make-before-break two-phase (DESIGN.md §3.13):
  /// shard replicas have independent endpoints, so the grown copy is
  /// admitted on `target` BEFORE the original comes down; if the original
  /// vanishes between the phases (concurrent disconnect), the copy is rolled
  /// back and the call reports kStaleSession. Never holds two shards
  /// exclusively at once.
  CrossGrowResult grow_to_shard(SessionId session,
                                const WavelengthEndpoint& destination,
                                std::size_t target);
  /// grow() on the home shard first; if blocked there, retry via
  /// grow_to_shard on candidate shards ordered by the lock-free admission
  /// pre-check (largest margin first). Note a blocked local grow still
  /// renews the session id (break-before-make), so the returned session must
  /// always replace the caller's handle.
  CrossGrowResult grow_anywhere(SessionId session,
                                const WavelengthEndpoint& destination);
  /// Live sessions across all shards -- lock-free (sums the health-snapshot
  /// spine; each shard's count is individually consistent as of its latest
  /// publish). At quiescence this equals active_sessions_locked() exactly.
  [[nodiscard]] std::size_t active_sessions() const;
  /// The exclusive reference count (claims each shard briefly); for tests
  /// that verify the snapshot spine against ground truth at quiescence.
  [[nodiscard]] std::size_t active_sessions_locked() const;
  /// Deep-check every shard replica (throws std::logic_error on corruption,
  /// after dumping every shard's flight recorder to stderr).
  void self_check() const;

  // -- lock-free session reads (obs/session_table.h) ------------------------
  /// True iff `session` currently names a live session: its slot's
  /// generation table entry is active under exactly the id's generation.
  /// Takes no claim; safe while every shard queue is saturated.
  /// Never true for a stale id -- generations are monotone per slot, so a
  /// released-and-reused slot carries a later generation than the stale id.
  [[nodiscard]] bool is_active(SessionId session) const;
  /// Lock-free probe: where `session` lives, or nullopt when stale. The
  /// result is a consistent point-in-time fact (the session WAS live at the
  /// probe), not a lease -- it can be torn down the next instant.
  [[nodiscard]] std::optional<SessionProbe> find_session(SessionId session) const;
  /// Lock-free Theorem-margin read for shard `shard` (see AdmissionPrecheck).
  [[nodiscard]] AdmissionPrecheck admission_precheck(std::size_t shard) const;

  // -- lock-free observability (src/obs) ------------------------------------
  /// The Theorem-1/2 bound for one shard replica's geometry (computed once
  /// at construction; Theorem 1 for MSW-dominant, Theorem 2 for
  /// MAW-dominant).
  [[nodiscard]] const NonblockingBound& theorem_bound() const { return bound_; }

  /// The shard's latest published health snapshot, read without claiming
  /// the shard (seqlock retry loop; see obs/health_snapshot.h). Safe from
  /// any thread at any time -- including while every shard's claim is held
  /// by someone else. Shards publish at every commit point (connect /
  /// disconnect / grow), plus once at construction, so the result is
  /// always a complete, internally consistent snapshot.
  [[nodiscard]] obs::EngineHealthSnapshot health_snapshot(std::size_t shard) const;
  /// All shards' snapshots, ascending shard order. Lock-free like
  /// health_snapshot(); the per-shard snapshots are individually (not
  /// mutually) consistent.
  [[nodiscard]] std::vector<obs::EngineHealthSnapshot> health_snapshots() const;

  /// A coherent copy of one shard's flight-recorder ring (oldest first).
  [[nodiscard]] obs::FlightRecorder::Dump flight_dump(std::size_t shard) const;
  /// Render every shard's ring to `os` (the on-failure diagnostic; also
  /// written to WDM_FLIGHT_DUMP by run_benches for CI artifacts).
  void dump_flight_recorders(std::ostream& os) const;

  // -- shard plumbing for drivers -------------------------------------------
  /// Run `fn()` with exclusive access to shard `shard` and return once it
  /// has run: on the calling thread under the shard's claim, or -- with an
  /// executor attached and the shard busy or backlogged -- as a task on the
  /// executor, waited for. An exception thrown by `fn` reaches the caller
  /// either way. The unit of the two-phase cross-shard grow.
  template <typename Fn>
  void with_shard_exclusive(std::size_t shard, Fn&& fn) const;
  /// The shard's replica; requires the shard's claim (or a quiescent engine).
  [[nodiscard]] MultistageSwitch& shard_switch(std::size_t shard);

  /// connect/disconnect/grow bodies; callers hold the shard's claim.
  /// connect_locked does NOT re-check ownership of the request's source
  /// port -- drivers that generate per-shard traffic from owned_ports()
  /// satisfy it by construction.
  [[nodiscard]] std::optional<ConnectionId> connect_locked(
      std::size_t shard, const MulticastRequest& request);
  bool disconnect_locked(std::size_t shard, ConnectionId id);
  GrowResult grow_locked(std::size_t shard, ConnectionId id,
                         const WavelengthEndpoint& destination);

  // -- executor seam (shard_executor.h, DESIGN.md §3.13) --------------------
  /// Let `executor`'s workers share the shard claims, and queue a caller's
  /// body behind a backlogged shard's pending ops. Pass nullptr to detach
  /// (the executor does this from its destructor after quiescing).
  /// Attach/detach only at quiescence -- an in-flight call could otherwise
  /// queue onto an executor that is going away.
  void attach_executor(ShardExecutor* executor);
  [[nodiscard]] ShardExecutor* executor() const {
    return executor_.load(std::memory_order_acquire);
  }

 private:
  friend class ShardExecutor;
  /// Claim + replica, heap-pinned and padded so two shards' hot state never
  /// shares a cache line. The observability tail (tallies, flight ring,
  /// seqlock slot) is written only under the claim; the seqlock slot is
  /// additionally read lock-free.
  struct alignas(64) Shard {
    Shard(std::uint32_t index, const EngineConfig& config);
    /// The single-writer claim (see the header note).
    std::atomic<bool> claimed{false};
    MultistageSwitch sw;
    // Deterministic per-shard churn tallies (mirror the engine.* counters).
    std::uint64_t connects = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t grows = 0;
    std::uint64_t grow_blocked = 0;
    std::uint64_t stale_rejected = 0;
    std::uint64_t publish_version = 0;
    obs::FlightRecorder flight;
    obs::SeqlockSnapshotSlot health;
    /// grow_locked's scratch, reused once warm: the grown request, and the
    /// session's record words a rollback rebuilds the original from.
    MulticastRequest grow_request;
    std::vector<std::uint32_t> grow_words;
    /// Lock-free session-generation table: written at every commit point
    /// under the claim, probed by is_active/find_session from any
    /// thread with no lock (obs/session_table.h).
    obs::SessionGenTable session_table;
  };

  /// Publish the shard's current state through the seqlock slot: the
  /// header, plus the busy counts of the middles touched since the last
  /// publish. Requires exclusive shard access (the single-writer contract).
  void publish_health(Shard& shard);

  /// Take the claim iff it is free. Acquire on success.
  static bool try_claim(Shard& shard) {
    return !shard.claimed.load(std::memory_order_relaxed) &&
           !shard.claimed.exchange(true, std::memory_order_acquire);
  }
  /// Take shard `shard`'s claim for an inline run and return true -- waiting
  /// out a contended claim when no executor is attached. Returns false
  /// without the claim when an attached executor must run the body instead
  /// (the claim is held, or ops are queued ahead of the caller).
  bool claim_inline(std::size_t shard) const;
  void release_claim(std::size_t shard) const {
    shards_[shard]->claimed.store(false, std::memory_order_release);
  }
  /// Run `body(ctx)` as a task on the attached executor's shard `shard`
  /// queue and wait for it; rethrows whatever the body threw.
  void run_on_executor(std::size_t shard, void (*body)(void*),
                       void* ctx) const;

  /// Sync the session-generation table after an op that renewed or released
  /// ids. Requires exclusive shard access.
  void note_session_active(Shard& shard, ConnectionId id);
  void note_session_released(Shard& shard, ConnectionId id);

  EngineConfig config_;
  NonblockingBound bound_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<std::size_t>> owned_ports_;  // [shard] -> ports
  std::atomic<ShardExecutor*> executor_{nullptr};

 public:
  /// Test seam: runs between phase 2 (grown copy admitted on the target) and
  /// phase 3 (original released) of every grow_to_shard. Lets tests inject a
  /// concurrent disconnect deterministically to exercise the rollback path.
  /// Not for production use; default is empty.
  std::function<void(SessionId original, SessionId grown)>
      cross_grow_between_phases_hook;
};

template <typename Fn>
void ShardedEngine::with_shard_exclusive(std::size_t shard, Fn&& fn) const {
  if (!claim_inline(shard)) {
    using Body = std::remove_reference_t<Fn>;
    run_on_executor(
        shard, [](void* body) { (*static_cast<Body*>(body))(); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
    return;
  }
  struct Release {
    const ShardedEngine* engine;
    std::size_t shard;
    ~Release() { engine->release_claim(shard); }
  } release{this, shard};
  fn();
}

}  // namespace wdm::engine
