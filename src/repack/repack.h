// Repack-on-block: rearrangeable operation below the strict-sense bound.
//
// The paper buys zero blocking by provisioning the middle stage at the
// Theorem 1/2 bound -- hardware that sits idle almost always. The repack
// engine recovers most of it: run a smaller m and, when a request blocks,
// *migrate* a bounded set of existing sessions out of its way (the
// Slepian-Duguid rearrangement behind src/multistage/rearrange.h, executed
// against live traffic). Three pieces (protocol in DESIGN.md §3.12):
//
//   RepackPlanner  - maps a blocked request to the session occupying the
//                    lane that blocks it. Keeps a lane-owner index over flat
//                    (module, port, lane) slots, and reads each target's
//                    link lane from the Router's own rule
//                    (required_link_lane: MSW-dominant holds the source
//                    lane; MAW-dominant takes any link12 lane and the
//                    destination lane into MSW output modules) and each
//                    link's lanes as free & usable words, like the search,
//                    so it chases exactly the lanes the search needed.
//   RepackExecutor - a break-before-make transaction over a Router: release
//                    victims, admit, re-route the victims, commit -- or roll
//                    back, reinstating every victim's original route.
//                    Rollback is generation-tagged: occupancy is bit-exact
//                    afterwards and every victim is revived under its
//                    ORIGINAL id (ThreeStageNetwork::reinstall re-arms the
//                    slot generation), so a rolled-back transaction is
//                    invisible to anyone holding session ids.
//   RepackEngine   - the admit loop: classic try_connect first (a disabled
//                    or idle engine never perturbs the classic path), then
//                    propose / break / retry under a move budget. When a
//                    displaced victim itself blocks, it displaces another
//                    session -- the alternating chains of Paull's algorithm
//                    emerge from the work list without recursion.
//
// restore_connections (src/faults/resilience.cpp) runs on the same executor
// in DropPolicy::kAllowDrops mode: fault restoration is repacking under
// failure, one migration core for both.
//
// Instruments: counters repack.attempts / .admits / .failed / .rollbacks /
// .sessions_moved, histogram repack.chain_length, timer repack.migrate_ns
// (see docs/BENCHMARKS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "multistage/routing.h"

namespace wdm::repack {

/// How RepackExecutor::reroute_released treats a victim that no longer fits.
enum class DropPolicy {
  /// Any victim that cannot be re-routed rolls the whole transaction back
  /// (the repack-on-block admit path: all-or-nothing).
  kTransactional,
  /// Keep the victims that re-route, report the rest as dropped (fault
  /// restoration: the hardware is gone, partial recovery beats none).
  kAllowDrops,
};

struct RepackPolicy {
  bool enabled = true;
  /// Most sessions migrated per admit attempt (the chain/move budget).
  std::size_t max_moves = 8;
};

/// Where a reroute pass left each released victim.
struct MigrationOutcome {
  /// Re-routed successfully: (old id, new id), in release order.
  std::vector<std::pair<ConnectionId, ConnectionId>> restored;
  /// Could not be re-routed (kAllowDrops only); the request is returned so
  /// callers can retry after a repair.
  std::vector<std::pair<ConnectionId, MulticastRequest>> dropped;
  /// False iff a kTransactional pass failed (the transaction was rolled
  /// back and restored/dropped are meaningless).
  bool complete = true;
};

/// Break-before-make migration transaction over a Router. Connects and
/// disconnects go through the router (so the routing counters move);
/// rollback revives victims with ThreeStageNetwork::reinstall, which moves
/// no counter. The network keeps its middle-stage rows exact on every path.
/// Single-threaded like the router it drives; engine shards own one each.
class RepackExecutor {
 public:
  explicit RepackExecutor(Router& router) : router_(&router) {}

  /// Start a transaction. No-op bookkeeping reset; cheap.
  void begin();

  /// Break: tear the session down, keeping a copy of its record's words
  /// for re-routing and rollback. False for stale ids (nothing released).
  bool release(ConnectionId id);

  /// Make: route `request` through the freed state. The admitted id is
  /// tracked so rollback can undo it.
  [[nodiscard]] std::optional<ConnectionId> try_admit(const MulticastRequest& request);

  /// Re-route every released victim, in release order (ascending release
  /// time -- for fault restoration that is ascending old id, matching the
  /// legacy pass). kTransactional: a single failure rolls back and returns
  /// outcome.complete = false. kAllowDrops: commits whatever re-routed.
  const MigrationOutcome& reroute_released(DropPolicy policy);

  /// Keep everything done since begin().
  void commit();

  /// Undo everything since begin(): admissions released in reverse admit
  /// order, then every victim's original route reinstated in reverse
  /// release order (their lanes are free again by then, so reinstallation
  /// cannot block). Occupancy is bit-exact afterwards, every victim keeps
  /// its pre-transaction id (ThreeStageNetwork::reinstall revives the
  /// generation), and
  /// each is spliced back at its pre-transaction ConnectionView position
  /// (release() captures the predecessor as an undo log), so callers'
  /// stored ids AND iteration order survive a rollback unchanged.
  void rollback();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::size_t released_count() const { return victims_.size(); }
  /// Was `id` admitted during this transaction? (Planner exclusion: a
  /// session placed by the transaction must not be proposed as a victim,
  /// or the chain would livelock.)
  [[nodiscard]] bool did_admit(ConnectionId id) const;
  /// The request of victim `index` (release order), rebuilt from its
  /// words into executor scratch: valid until the next call.
  [[nodiscard]] const MulticastRequest& victim_request(std::size_t index);
  [[nodiscard]] ConnectionId victim_id(std::size_t index) const {
    return victims_[index].old_id;
  }

 private:
  struct Victim {
    ConnectionId old_id = 0;
    ConnectionId prev_id = 0;  // ConnectionView predecessor at release (0 = head)
    std::size_t first_word = 0;  // its record's words in words_
    std::size_t word_count = 0;
  };

  /// Victim `index`'s record, read from the copied words.
  [[nodiscard]] ThreeStageNetwork::RecordView victim_view(std::size_t index) const;

  Router* router_;
  std::vector<Victim> victims_;      // release order
  std::vector<std::uint32_t> words_;  // victims' record words; begin() clears
  MulticastRequest request_;          // victim_request scratch
  std::vector<ConnectionId> admitted_;  // admit order
  MigrationOutcome outcome_;
  bool active_ = false;
};

/// Proposes, for a blocked request, the live session whose migration most
/// directly unblocks it: scan middles in the router's ascending probe order
/// for the first blocking lane (a non-candidate link12 lane, or the first
/// unserved target's link23 lane) whose owner is live, healthy, and not a
/// session this transaction already placed.
class RepackPlanner {
 public:
  explicit RepackPlanner(Router& router);

  /// Rebuild the lane-owner index from the live connection table. O(active
  /// sessions x route size); called per proposal, off the classic hot path.
  void refresh();

  /// The victim to break for `request`, or nullopt when nothing actionable
  /// remains (every obstacle is already-placed, stale, or failed hardware).
  [[nodiscard]] std::optional<ConnectionId> propose(
      const MulticastRequest& request, const RepackExecutor& txn) const;

 private:
  static constexpr ConnectionId kNoOwner = ~ConnectionId{0};

  /// Owner of link12 lane (i -> j, lane), kNoOwner when free/unknown.
  [[nodiscard]] ConnectionId owner12(std::size_t i, std::size_t j,
                                     Wavelength lane) const {
    const ClosParams& params = network_->params();
    return owner12_[(i * params.m + j) * params.k + lane];
  }
  /// Owner of link23 lane (j -> p, lane), kNoOwner when free/unknown.
  [[nodiscard]] ConnectionId owner23(std::size_t j, std::size_t p,
                                     Wavelength lane) const {
    const ClosParams& params = network_->params();
    return owner23_[(j * params.r + p) * params.k + lane];
  }
  /// A proposable owner: indexed, still live, and not placed by `txn`.
  [[nodiscard]] bool viable(ConnectionId owner, const RepackExecutor& txn) const;

  Router* router_;
  ThreeStageNetwork* network_;
  // Flat lane-owner vectors: owner12_[(i*m + j)*k + lane],
  // owner23_[(j*r + p)*k + lane].
  std::vector<ConnectionId> owner12_;
  std::vector<ConnectionId> owner23_;
  // Per-propose scratch: (output module, required link lane) demands of the
  // blocked request, under required_link_lane like Router::build_demands.
  mutable std::vector<std::pair<std::size_t, Wavelength>> targets_;
};

/// The admit loop gluing planner and executor together; owned by a
/// MultistageSwitch (enable_repack) or used standalone in tests/benches.
class RepackEngine {
 public:
  RepackEngine(Router& router, RepackPolicy policy)
      : router_(&router), policy_(policy), planner_(router), executor_(router) {}

  /// try_connect with repack-on-block. The classic attempt always runs
  /// first; only a kBlocked rejection with the policy enabled triggers
  /// planning. On a repack admit, last_moved() reports the migrated
  /// sessions (old id -> new id) until the next call. On failure the
  /// transaction is rolled back (occupancy untouched) and the router's
  /// last_error() explains the final obstacle.
  [[nodiscard]] std::optional<ConnectionId> connect(const MulticastRequest& request);

  [[nodiscard]] const RepackPolicy& policy() const { return policy_; }
  /// Sessions migrated by the most recent connect() (empty after a classic
  /// admit or a failure). Old ids in the pairs are stale by construction.
  [[nodiscard]] std::span<const std::pair<ConnectionId, ConnectionId>> last_moved() const {
    return moved_;
  }
  /// Cumulative sessions migrated by admitted repacks (monotone; feeds the
  /// engine health snapshot's repack_moves field).
  [[nodiscard]] std::uint64_t sessions_moved_total() const { return moved_total_; }
  /// Longest committed chain so far (sessions moved by one admit).
  [[nodiscard]] std::size_t max_chain_length() const { return max_chain_; }

  /// Test seam for the migration-atomicity hammer: invoked after every
  /// break (victim released, occupancy torn) and before the next make
  /// attempt; return true to simulate a mid-chain failure. The engine then
  /// rolls the transaction back and reports the request blocked.
  void set_failure_injection(std::function<bool(std::size_t moves_so_far)> hook) {
    failure_injection_ = std::move(hook);
  }

 private:
  Router* router_;
  RepackPolicy policy_;
  RepackPlanner planner_;
  RepackExecutor executor_;
  std::vector<std::pair<ConnectionId, ConnectionId>> moved_;
  std::uint64_t moved_total_ = 0;
  std::size_t max_chain_ = 0;
  std::function<bool(std::size_t)> failure_injection_;
};

}  // namespace wdm::repack
