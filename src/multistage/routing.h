// The paper's routing strategy for three-stage WDM multicast networks.
//
// Each connection is realized through at most x middle modules (the spread;
// §3.2). Routing therefore reduces to a small set-cover feasibility
// question, which is exactly Lemma 4: x middle modules can carry the request
// iff every required output module is *served* by at least one of them,
// i.e. the intersection of their (restricted) destination sets is empty.
//
//   MSW-dominant: the connection stays on its source lane end-to-end through
//   stages 1-2, so middle module j is a candidate iff lane lambda is free on
//   the link in->j, and serves output module p iff lambda is free on j->p
//   (the per-wavelength-plane reduction of §3.2).
//
//   MAW-dominant: stages 1-2 convert freely, so j is a candidate iff the
//   link in->j has any free lane, and serves p iff the link j->p can carry
//   one more connection on whichever lane the *output* module's model needs:
//   any free lane for MSDW/MAW output modules, the destination lane itself
//   for MSW output modules (they cannot convert).
//
// required_link_lane states that lane rule once; the repack planner reads
// it too, so it chases exactly the lanes the search needed.
//
// The default search is exhaustive (complete within the spread limit):
// branch on the uncovered output module with the fewest serving candidates.
// A greedy most-coverage-first variant exists for ablation; it can block
// where the exhaustive search would not.
//
// Both searches pick middles in one specified order: the middle covering
// the most still-uncovered targets first, ties broken by the lower middle
// index. When one middle serves every uncovered target, the AND of those
// targets' serve rows names it directly (its lowest set bit is the order's
// first pick), so the common single-middle route costs one pass over the
// rows and no branching (the full-cover fast path).
//
// Hot-path data layout (see DESIGN.md): the candidate and serve sets are
// gathered from the network's always-live middle-stage rows (m-bit word
// masks, ThreeStageNetwork::candidate_row/serve_row), so no request probes
// individual middle modules. A row bit means the link has a lane that is
// free and usable under the attached fault model (the network re-derives
// the rows when the model's epoch moves; gather_rows syncs them first), so
// one body serves faulted and fault-free networks alike; link lanes are
// picked from free & usable. The search then runs entirely on per-router
// scratch buffers -- demands in a flat array indexed by output module (with
// stamp-based reset), the serves relation and cover state as 64-bit word
// masks, and the result route in a scratch Route rebuilt through the
// router's own RoutePool, whose branches and legs keep their capacity -- so
// steady-state find_route + try_connect performs zero heap allocations. The scratch makes a Router single-threaded by
// construction (as it already was via its network).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "multistage/network.h"
#include "multistage/nonblocking.h"

namespace wdm {

enum class RouteSearch { kExhaustive, kGreedy };

/// The link lane a middle -> output-module link must carry to deliver a
/// request from `source_lane` to a destination on `dest_lane` (Lemma 4's
/// lane rule): the source lane in MSW-dominant networks (stages 1-2 hold
/// it), the destination lane into the MSW output modules of an MAW-dominant
/// network (they cannot convert), else kNoWavelength (any free lane).
[[nodiscard]] Wavelength required_link_lane(Construction construction,
                                            MulticastModel output_model,
                                            Wavelength source_lane, Wavelength dest_lane);

/// The lanes a link may use to meet a lane requirement (bit = lane):
/// `lane` alone, or every lane for kNoWavelength.
[[nodiscard]] inline std::uint64_t accepted_lanes(Wavelength lane) {
  return lane == kNoWavelength ? ~std::uint64_t{0} : std::uint64_t{1} << lane;
}

/// Which lane an MAW-dominant route picks on a link when several are free
/// (MSW-dominant routes have no choice -- they hold the source lane).
///   kFirstFit     - lowest-numbered free lane (packs low lanes first);
///   kPreferSource - the connection's source lane when free, else first
///                   fit: minimizes wavelength conversions performed by the
///                   stage-1/2 MAW modules at no cost in routability.
enum class LanePolicy { kFirstFit, kPreferSource };

struct RoutingPolicy {
  /// Maximum middle modules per connection (the x of Theorems 1-2).
  std::size_t max_spread = 1;
  RouteSearch search = RouteSearch::kExhaustive;
  LanePolicy lanes = LanePolicy::kFirstFit;
};

class Router {
 public:
  Router(ThreeStageNetwork& network, RoutingPolicy policy);

  /// Policy with the spread that optimizes the relevant theorem bound for
  /// this geometry (Theorem 1 for MSW-dominant, Theorem 2 for MAW-dominant).
  [[nodiscard]] static RoutingPolicy recommended_policy(const ClosParams& params,
                                                        Construction construction);

  [[nodiscard]] const RoutingPolicy& policy() const { return policy_; }
  [[nodiscard]] ThreeStageNetwork& network() { return *network_; }
  [[nodiscard]] const ThreeStageNetwork& network() const { return *network_; }

  /// Find a route for an (assumed admissible) request under the current
  /// network state. nullopt = blocked at the middle stage. The returned
  /// Route is a copy of the router's scratch; try_connect avoids the copy.
  [[nodiscard]] std::optional<Route> find_route(const MulticastRequest& request) const;

  /// Admission + routing + installation. nullopt on failure; the reason is
  /// retained in last_error().
  [[nodiscard]] std::optional<ConnectionId> try_connect(const MulticastRequest& request);

  void disconnect(ConnectionId id);

  /// Non-throwing disconnect; false (and no counter movement) for stale ids.
  bool try_disconnect(ConnectionId id);

  [[nodiscard]] ConnectError last_error() const { return last_error_; }

 private:
  /// Per-output-module delivery requirements of one request (scratch slot;
  /// `destinations` keeps its capacity across requests).
  struct ModuleDemand {
    std::vector<WavelengthEndpoint> destinations;
    /// Set when the output module cannot convert (MSW): the one link lane
    /// that can feed it. kNoWavelength = any free lane acceptable.
    Wavelength required_link_lane = kNoWavelength;
  };

  /// The uninstrumented search: fills the scratch `route_` and returns its
  /// address, or nullptr when blocked at the middle stage.
  [[nodiscard]] const Route* find_route_impl(const MulticastRequest& request) const;
  // find_route_impl runs in stages:
  //   build_demands      - stamp per-output-module demands; false = a demand
  //                        is unsatisfiable under the output model (blocked
  //                        before the middle stage is consulted).
  //   gather_rows        - cand_mask_ and serves_ from the network's rows,
  //                        synced with the fault model first; false = no
  //                        candidate middle.
  //   cover_and_materialize - Lemma-4 cover search + route materialization.
  [[nodiscard]] bool build_demands(const MulticastRequest& request) const;
  [[nodiscard]] bool gather_rows(std::size_t in_module, Wavelength source_lane) const;
  [[nodiscard]] const Route* cover_and_materialize(const MulticastRequest& request) const;
  /// find_route_impl wrapped with the route-attempt counters and the
  /// "routing.find_route" timer (see docs/BENCHMARKS.md); the result still
  /// points into the router's scratch.
  [[nodiscard]] const Route* find_route_instrumented(
      const MulticastRequest& request) const;
  /// Lane choice among a link's free, usable lanes (bit = lane) honoring
  /// the lane policy: `preferred` under kPreferSource when its bit is set,
  /// else the lowest set bit; nullopt when none is set.
  [[nodiscard]] std::optional<Wavelength> pick_lane(std::uint64_t free_usable,
                                                    Wavelength preferred) const;

  ThreeStageNetwork* network_;
  RoutingPolicy policy_;
  ConnectError last_error_ = ConnectError::kBlocked;

  // -- reusable per-request scratch (see the header comment) ---------------
  // Demand slot per output module; a slot is live for the current request
  // iff its stamp equals demand_gen_ (no clearing between requests).
  mutable std::vector<ModuleDemand> demands_;
  mutable std::vector<std::uint64_t> demand_stamp_;
  mutable std::uint64_t demand_gen_ = 0;
  mutable std::vector<std::size_t> targets_;  // modules with demand, ascending
  std::size_t cand_words_ = 0;                // words per middle mask (m middles)
  // serves_[t * cand_words_ + w]: bit j of word w set iff candidate middle j
  // can feed target t (target-major over middle-module indices; bits of
  // non-candidate middles are zero). covered_/assigned_ are word masks over
  // targets; cand_mask_/chosen_mask_ are word masks over middles (the
  // candidate set and the middles already chosen). full_cover_ is the AND
  // of the uncovered targets' serves_ rows over unchosen middles: the
  // middles that alone complete the cover. chosen_ holds middle module
  // indices.
  mutable std::vector<std::uint64_t> serves_;
  mutable std::vector<std::uint64_t> covered_;
  mutable std::vector<std::uint64_t> assigned_;
  mutable std::vector<std::uint64_t> cand_mask_;
  mutable std::vector<std::uint64_t> chosen_mask_;
  mutable std::vector<std::uint64_t> full_cover_;
  mutable std::vector<std::size_t> chosen_;
  // Counting sort of a pivot's options into the specified order, sized at
  // construction: gain_by_mid_[j] is middle j's coverage gain (only option
  // slots are meaningful), gain_start_ holds one bucket per gain value
  // (gains never exceed the target count, so r + 1 buckets), and
  // options_ holds each DFS level's sorted options in its own m-entry
  // stripe (a search is at most min(max_spread, r) levels deep: every level
  // covers a new target).
  mutable std::vector<std::uint32_t> gain_by_mid_;
  mutable std::vector<std::uint32_t> gain_start_;
  mutable std::vector<std::uint32_t> options_;
  // Per-DFS-level scratch: the targets newly covered at each level (word
  // mask rows).
  mutable std::vector<std::uint64_t> newly_stack_;
  // Scratch result route, rebuilt in place for every request.
  mutable Route route_;
  mutable RoutePool route_pool_;

  // Spread expansions of the in-flight search, flushed to the registry by
  // find_route_instrumented so the search loop touches no atomics.
  mutable std::uint64_t pending_spread_ = 0;
};

/// Number of wavelength conversions a connection's route performs inside the
/// network: one whenever a link lane differs from the lane the signal arrived
/// on (stages 1-2), plus one per destination whose lane differs from the last
/// link lane (stage 3). Zero for any MSW-dominant route of an MSW request.
[[nodiscard]] std::size_t conversions_in_route(const ThreeStageNetwork::RecordView& view);

}  // namespace wdm
