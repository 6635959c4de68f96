// Three-stage WDM multicast network state (paper §3, Fig. 8).
//
// ThreeStageNetwork embeds the full module grid -- r input modules (n x m),
// m middle modules (r x r), r output modules (m x n), every consecutive pair
// joined by one k-lane link -- and tracks which (link, lane) each active
// connection occupies. Stage-module models come from the construction
// (§3.1): MSW-dominant or MAW-dominant for stages 1-2, the network model for
// stage 3.
//
// A Route describes how one multicast connection threads the network: it
// splits at its input module toward at most x middle modules (branches);
// each branch's middle module fans out to the output modules it is
// responsible for (legs); each leg's output module delivers to the final
// destination wavelengths. install() validates a route end-to-end against
// every module's lane discipline before committing it, so the network state
// can never become physically meaningless; the Router (routing.h) is the
// component that *finds* routes.
//
// Hot-path data layout (see DESIGN.md): endpoint occupancy is the edge
// modules' per-port lane words (first-stage inbound, third-stage outbound)
// and the connection/transit tables are generation-checked free-list slots
// threaded on an insertion-order list, so install()/release() are O(route
// size) with zero steady-state heap allocations, and iteration over
// connections() preserves the old map's ascending-id (i.e. insertion) order.
// Like install/release themselves, the const validation queries reuse
// per-network scratch buffers, so a network must not be shared across
// threads without external synchronization (workloads that parallelize,
// e.g. sim/sweep, use one network per task; src/engine shards sessions
// across replicas, one mutex per network).
//
// Thread-safety contract, per method class:
//   * install/release/try_release and check_route mutate network state or
//     the mutable validation scratch -- exclusive access required.
//   * check_admissible, the *_busy queries, find_connection, connections(),
//     and the topology getters read only committed state (edge-module port
//     words + slot table, no scratch), so concurrent readers are safe with
//     each other -- though still not with a concurrent writer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "combinatorics/multiset.h"
#include "core/connection.h"
#include "multistage/clos_params.h"
#include "multistage/module.h"

namespace wdm {

class FaultModel;

/// One output-module delivery of a route branch.
struct DeliveryLeg {
  std::size_t out_module = 0;
  /// Lane used on the middle-module -> output-module link.
  Wavelength link_lane = 0;
  /// Final destinations, all inside `out_module`.
  std::vector<WavelengthEndpoint> destinations;

  friend bool operator==(const DeliveryLeg&, const DeliveryLeg&) = default;
};

/// One middle-module subtree of a route.
struct RouteBranch {
  std::size_t middle = 0;
  /// Lane used on the input-module -> middle-module link.
  Wavelength link_lane = 0;
  std::vector<DeliveryLeg> legs;

  friend bool operator==(const RouteBranch&, const RouteBranch&) = default;
};

struct Route {
  std::vector<RouteBranch> branches;

  /// Number of middle modules used (the routing spread).
  [[nodiscard]] std::size_t spread() const { return branches.size(); }
  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Route&, const Route&) = default;
};

class ThreeStageNetwork {
 public:
  /// Read-only view over the active connections, map-compatible: iterates
  /// (id, (request, route)) pairs in insertion order -- which is ascending
  /// creation order, exactly what the former std::map produced -- and
  /// supports at()/contains() in O(1) via the slot index embedded in the id.
  class ConnectionView {
   public:
    using Entry = std::pair<MulticastRequest, Route>;

    class const_iterator {
     public:
      using value_type = std::pair<ConnectionId, const Entry&>;

      const_iterator(const ThreeStageNetwork* network, std::uint32_t slot)
          : network_(network), slot_(slot) {}
      [[nodiscard]] value_type operator*() const;
      const_iterator& operator++();
      [[nodiscard]] bool operator==(const const_iterator&) const = default;

     private:
      const ThreeStageNetwork* network_;
      std::uint32_t slot_;
    };

    [[nodiscard]] const_iterator begin() const;
    [[nodiscard]] const_iterator end() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] bool contains(ConnectionId id) const;
    /// Throws std::out_of_range for unknown ids (map::at contract).
    [[nodiscard]] const Entry& at(ConnectionId id) const;

   private:
    friend class ThreeStageNetwork;
    explicit ConnectionView(const ThreeStageNetwork* network) : network_(network) {}
    const ThreeStageNetwork* network_;
  };

  ThreeStageNetwork(ClosParams params, Construction construction,
                    MulticastModel network_model);

  [[nodiscard]] const ClosParams& params() const { return params_; }
  [[nodiscard]] Construction construction() const { return construction_; }
  [[nodiscard]] MulticastModel network_model() const { return network_model_; }
  [[nodiscard]] MulticastModel inner_model() const;
  [[nodiscard]] std::size_t port_count() const { return params_.port_count(); }
  [[nodiscard]] std::size_t lane_count() const { return params_.k; }

  // -- topology helpers -----------------------------------------------------
  [[nodiscard]] std::size_t input_module_of(std::size_t port) const {
    return port / params_.n;
  }
  [[nodiscard]] std::size_t output_module_of(std::size_t port) const {
    return port / params_.n;
  }
  [[nodiscard]] std::size_t local_port(std::size_t port) const {
    return port % params_.n;
  }

  [[nodiscard]] const SwitchModule& input_module(std::size_t i) const;
  [[nodiscard]] const SwitchModule& middle_module(std::size_t j) const;
  [[nodiscard]] const SwitchModule& output_module(std::size_t p) const;

  // -- fault awareness (src/faults) -----------------------------------------
  /// Attach (or detach, with nullptr) a fault model whose geometry matches
  /// this network; the caller keeps ownership. While attached, routing and
  /// route validation treat failed resources as unusable. With no model
  /// attached -- or an attached model carrying no active fault -- behavior
  /// is bit-identical to a fault-free network.
  void attach_fault_model(const FaultModel* faults);
  [[nodiscard]] const FaultModel* fault_model() const { return faults_; }

  /// The fault model, but only when it currently carries at least one
  /// active fault (the routing fast path: nullptr means "take the
  /// fault-free code path").
  [[nodiscard]] const FaultModel* active_fault_model() const;

  /// Middle module j is powered and reachable (true when no faults active).
  [[nodiscard]] bool middle_usable(std::size_t j) const;
  /// Lane `lane` of the input-module-i -> middle-j link can carry a signal.
  [[nodiscard]] bool link12_lane_usable(std::size_t i, std::size_t j,
                                        Wavelength lane) const;
  /// Lane `lane` of the middle-j -> output-module-p link can carry a signal.
  [[nodiscard]] bool link23_lane_usable(std::size_t j, std::size_t p,
                                        Wavelength lane) const;

  // -- middle-stage occupancy rows (DESIGN.md §3.10) ------------------------
  /// Words per row: ceil(m / 64). Bit j of a row stands for middle module j.
  [[nodiscard]] std::size_t row_words() const { return row_words_; }
  /// Candidate row of input module `in_module`: bit j set iff lane `lane` is
  /// free on the link in_module -> j, or, with lane == kNoWavelength, iff
  /// some lane of that link is free.
  [[nodiscard]] const std::uint64_t* candidate_row(std::size_t in_module,
                                                   Wavelength lane) const {
    return lane == kNoWavelength
               ? cand_any_.data() + in_module * row_words_
               : cand_lane_.data() + (in_module * params_.k + lane) * row_words_;
  }
  /// Serve row of output module `out_module`: bit j set iff lane `lane` is
  /// free on the link j -> out_module, or, with lane == kNoWavelength, iff
  /// some lane of that link is free.
  [[nodiscard]] const std::uint64_t* serve_row(std::size_t out_module,
                                               Wavelength lane) const {
    return lane == kNoWavelength
               ? serve_any_.data() + out_module * row_words_
               : serve_lane_.data() + (out_module * params_.k + lane) * row_words_;
  }

  // -- admission ------------------------------------------------------------
  /// Shape legality under the network model plus endpoint availability.
  [[nodiscard]] std::optional<ConnectError> check_admissible(
      const MulticastRequest& request) const;

  /// Detailed route validation; nullopt = the route would install cleanly.
  [[nodiscard]] std::optional<std::string> check_route(
      const MulticastRequest& request, const Route& route) const;

  /// Commit a route. Throws std::logic_error with the check_route reason on
  /// any inconsistency.
  ConnectionId install(const MulticastRequest& request, const Route& route);

  /// Commit a route into the slot a released id names, reviving that EXACT
  /// id: after reinstall(id, ...), find_connection(id) is live again with
  /// the given request/route. This is the rollback primitive of the repack
  /// executor (repack/repack.h) -- undoing a break-before-make transaction
  /// must hand sessions back under the ids callers already hold. Requires
  /// `id` to name a currently-free slot (released, not reused); throws
  /// std::logic_error otherwise, and validates like install(). By default
  /// the revived connection joins the insertion-order view at the tail
  /// (same as any release + re-install); pass `after` to splice it back at
  /// an exact position instead -- directly after the live connection
  /// `*after` (or at the head when `*after == 0`). The repack executor
  /// captures each victim's predecessor_of() before releasing it and undoes
  /// in reverse, so a rolled-back transaction restores connections()
  /// iteration order bit-exactly. Re-arming the generation means ids the
  /// slot minted between the release and the reinstall may be minted again
  /// by a future occupant -- callers must guarantee no such intermediate id
  /// escaped (the repack executor does: its rollback tears every
  /// transaction-internal admission down before any reinstall, and those
  /// ids die with the transaction).
  ConnectionId reinstall(ConnectionId id, const MulticastRequest& request,
                         const Route& route,
                         std::optional<ConnectionId> after = std::nullopt);

  /// Id of the connection immediately before `id` in connections()
  /// iteration (insertion) order, or 0 when `id` is the first. Throws
  /// std::out_of_range for stale/unknown ids. This is the undo-log capture
  /// for reinstall(..., after): record it before releasing a connection and
  /// the pair (release, reinstall-after-predecessor) round-trips the view
  /// order exactly.
  [[nodiscard]] ConnectionId predecessor_of(ConnectionId id) const;

  /// Tear down a connection; throws std::out_of_range for unknown ids.
  void release(ConnectionId id);

  /// Non-throwing release. Returns false -- touching no state at all -- when
  /// `id` is stale: an unknown slot, a double-release, or a
  /// generation-tagged id from a slot that has since been disposed (and
  /// possibly reused by a newer connection). The free list and the live
  /// occupant of a reused slot are untouched either way.
  bool try_release(ConnectionId id);

  /// O(1) lookup of an active connection's (request, route); nullptr for
  /// stale ids. Reads only committed state (no validation scratch), so it is
  /// safe alongside other concurrent readers.
  [[nodiscard]] const ConnectionView::Entry* find_connection(ConnectionId id) const;

  /// The id encoding, exposed for layers that mirror the slot table without
  /// exclusive network access (the engine's lock-free session-generation
  /// table, obs/session_table.h): id = generation << 32 | slot. The
  /// generation is monotone per slot across reuse, which is what makes
  /// stale-id rejection -- here and in the lock-free mirror -- sound.
  [[nodiscard]] static std::uint32_t slot_of_id(ConnectionId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  [[nodiscard]] static std::uint32_t generation_of_id(ConnectionId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Shared route-storage pools (emptied branches/legs whose nested vectors
  /// keep their capacity). The slot copy machinery (copy_route_into) and the
  /// Router's scratch recycling draw from the SAME pools, so one economy
  /// keeps the total object population monotone and the churn loop
  /// allocation-free once warm.
  [[nodiscard]] std::vector<RouteBranch>& branch_pool() {
    return spare_route_branches_;
  }
  [[nodiscard]] std::vector<DeliveryLeg>& leg_pool() {
    return spare_route_legs_;
  }

  /// One port's k lanes (bit = lane, 1 = busy): the word its first-stage
  /// (input) or third-stage (output) module keeps. Requires port < N.
  [[nodiscard]] std::uint64_t input_lanes_busy(std::size_t port) const {
    return inputs_[port / params_.n].in_word(port % params_.n);
  }
  [[nodiscard]] std::uint64_t output_lanes_busy(std::size_t port) const {
    return outputs_[port / params_.n].out_word(port % params_.n);
  }
  /// One endpoint's bit of the words above; false for out-of-range endpoints.
  [[nodiscard]] bool input_busy(const WavelengthEndpoint& e) const {
    return e.port < port_count() && e.lane < params_.k &&
           (input_lanes_busy(e.port) >> e.lane & 1u);
  }
  [[nodiscard]] bool output_busy(const WavelengthEndpoint& e) const {
    return e.port < port_count() && e.lane < params_.k &&
           (output_lanes_busy(e.port) >> e.lane & 1u);
  }
  [[nodiscard]] std::size_t active_connections() const { return active_count_; }
  [[nodiscard]] ConnectionView connections() const { return ConnectionView(this); }

  // -- analysis views (§3.3) ------------------------------------------------
  /// The destination multiset M_j of middle module j: multiplicity of output
  /// module p = number of lanes in use on the link j -> p (eq. 2).
  [[nodiscard]] DestinationMultiset middle_destination_multiset(std::size_t j) const;

  /// MSW-plane view: the set of output modules whose link from middle j has
  /// `lane` occupied (the ordinary destination set of §3.2).
  [[nodiscard]] std::vector<bool> middle_plane_destinations(std::size_t j,
                                                            Wavelength lane) const;

  /// Deep consistency check: every module self-checks, the edge modules'
  /// endpoint words (first-stage inbound, third-stage outbound) match a
  /// rebuild from the connection table, and all four middle-stage row
  /// families match a re-derivation from the module occupancy words. Throws
  /// std::logic_error on failure.
  void self_check() const;

 private:
  friend class ConnectionView;

  struct InstalledTransits {
    SwitchModule::TransitId input_transit = 0;
    std::vector<std::pair<std::size_t, SwitchModule::TransitId>> middle_transits;
    std::vector<std::pair<std::size_t, SwitchModule::TransitId>> output_transits;
  };

  /// One connection of the slot-reuse table. `entry`'s request/route vectors
  /// and the transit lists keep their capacity across slot reuse;
  /// `generation` is embedded in the public ConnectionId so stale ids are
  /// rejected in O(1); prev/next thread the insertion-order list behind
  /// ConnectionView.
  struct ConnectionSlot {
    ConnectionView::Entry entry;
    InstalledTransits transits;
    std::uint32_t generation = 0;
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    bool active = false;
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  static ConnectionId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<ConnectionId>(generation) << 32) | slot;
  }
  /// Slot index of an id if it names an active connection, else kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(ConnectionId id) const;

  /// Pop a free connection slot (or grow the table by one).
  [[nodiscard]] std::uint32_t acquire_slot();
  /// Shared tail of install() and reinstall(): install the transits of the
  /// (validated) route already stored in `slot` and update the middle-stage
  /// rows.
  ConnectionId commit_slot(std::uint32_t slot);
  /// Bring the row bits a route touches up to date after its lanes were
  /// taken (`installed`) or freed: each branch's candidate bits and each
  /// leg's serve bits. O(route size).
  void update_rows(std::size_t in_module, const Route& route, bool installed);
  /// Unlink `slot` from the insertion-order list and re-link it directly
  /// after `prev_slot` (kNoSlot = new head). Occupancy is untouched; this
  /// is the reinstall(..., after) splice.
  void move_slot_after(std::uint32_t slot, std::uint32_t prev_slot);

  /// Structural copy of `src` into a slot's stored route that conserves
  /// nested-vector capacity: shrinking hands surplus branches/legs to the
  /// spare pools instead of destroying them, growing pulls them back. Plain
  /// vector copy-assign would free the nested buffers on every shrink, so a
  /// slot alternating between route shapes would re-allocate forever.
  void copy_route_into(Route& dst, const Route& src);

  ClosParams params_;
  Construction construction_;
  MulticastModel network_model_;

  std::vector<SwitchModule> inputs_;
  std::vector<SwitchModule> middles_;
  std::vector<SwitchModule> outputs_;

  const FaultModel* faults_ = nullptr;  // not owned; nullptr = fault-free

  std::vector<ConnectionSlot> connection_slots_;
  std::vector<std::uint32_t> free_connection_slots_;
  // Branch/leg pools behind copy_route_into AND the Router's scratch
  // recycling (see branch_pool()/leg_pool()). Pooled objects hold emptied
  // but capacity-bearing nested vectors; since buffers are pooled rather
  // than freed, every buffer's capacity grows monotonically toward the
  // workload maximum and steady-state install() performs no heap
  // allocations.
  std::vector<RouteBranch> spare_route_branches_;
  std::vector<DeliveryLeg> spare_route_legs_;
  std::uint32_t head_ = kNoSlot;  // oldest active connection
  std::uint32_t tail_ = kNoSlot;  // newest active connection
  std::size_t active_count_ = 0;

  // Middle-stage occupancy rows, row_words_ words each (see candidate_row /
  // serve_row). Exact after every install/reinstall/release; they hold
  // occupancy only -- the Router filters faults on top.
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> cand_lane_;   // (i * k + lane) * row_words_
  std::vector<std::uint64_t> cand_any_;    // i * row_words_
  std::vector<std::uint64_t> serve_lane_;  // (p * k + lane) * row_words_
  std::vector<std::uint64_t> serve_any_;   // p * row_words_

  // Reusable scratch for check_route/install (capacity survives calls, so
  // steady-state validation is allocation-free). The stamp arrays implement
  // "was this seen during generation g" sets without clearing: a cell is set
  // iff it equals the current generation counter.
  mutable std::vector<ModulePortLane> portlane_scratch_;
  mutable std::vector<WavelengthEndpoint> routed_scratch_;  // route's destinations
  mutable std::vector<std::uint64_t> middle_stamp_;  // per middle module
  mutable std::vector<std::uint64_t> module_stamp_;  // per output module
  mutable std::uint64_t stamp_generation_ = 0;
};

}  // namespace wdm
