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
// Hot-path data layout (DESIGN.md §3.6b): occupancy lives only in the
// modules' per-port lane words, and each connection is stored once, as one
// record of 32-bit words in a per-network arena (see records_),
//
//   input | F | outputs[F] | B | heads[B] | per branch: L | legs[L] |
//   per leg: D | destinations[D]
//
// whose words pack index << 6 | lane: `input` and `outputs` are the
// request's endpoints in request order, a head is (middle, link lane), a leg
// (output module, link lane) and a destination (port local to the leg's
// output module, lane), so each transit's outputs are module-local.
// Readers see a record through a RecordView, the one parser of this layout:
// it walks the route tree in place, and its request()/route() build values.
//
// Thread-safety contract, per method class:
//   * install/reinstall/release/try_release, check_route, find_connection,
//     sync_fault_rows and self_check (both may re-derive the middle-stage
//     rows) write network state or mutable scratch -- exclusive access required.
//     find_connection materializes a view into one network-owned entry; it
//     is kept only for the session benchmark's mirror (sessionbench/), and
//     in-tree readers use views instead.
//   * check_admissible, the *_busy queries, connections() (iteration, at,
//     contains, size), RecordView, predecessor_of and the topology getters
//     read only committed state (module words, slot headers, records), so
//     concurrent readers are safe with each other -- though still not with a
//     concurrent writer, and a view is valid only until the next mutation.
//     Lock-free session lookups go through the engine's SessionGenTable
//     (obs/session_table.h), never through the network.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "combinatorics/multiset.h"
#include "core/connection.h"
#include "faults/fault_model.h"
#include "multistage/clos_params.h"
#include "multistage/module.h"

namespace wdm {

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

/// Spare branches and legs whose nested vectors keep their capacity, so the
/// Router's scratch route is rebuilt in place, allocating nothing once warm:
/// recycle() parks all of a route, add_branch()/add_leg() append an empty
/// one, drop_last_branch() parks a branch that got no legs.
class RoutePool {
 public:
  void recycle(Route& route);
  RouteBranch& add_branch(Route& route);
  DeliveryLeg& add_leg(RouteBranch& branch);
  void drop_last_branch(Route& route);

 private:
  std::vector<RouteBranch> branches_;
  std::vector<DeliveryLeg> legs_;
};

class ThreeStageNetwork {
 public:
  /// Read-only view over one connection record's words (layout in the
  /// header comment). It writes nothing, so readers may share a network; a
  /// view of a live record is valid until the next mutation, one of copied
  /// words() as long as the copy.
  class RecordView {
   public:
    /// Record words unpacked as (index + base, lane).
    template <typename T>
    struct Unpack {
      std::size_t base;
      T operator()(std::uint32_t word) const { return {base + index_of(word), lane_of(word)}; }
    };
    using Words = std::span<const std::uint32_t>;
    /// (module, link lane) hops: branch heads (middle) or legs (output module).
    using Hops = std::ranges::transform_view<Words, Unpack<ModulePortLane>>;
    /// Global (port, lane) endpoints.
    using Endpoints = std::ranges::transform_view<Words, Unpack<WavelengthEndpoint>>;

    /// A view over the words of a record of a network with n =
    /// `ports_per_module` ports per edge module (e.g. a copy of words()).
    RecordView(Words words, std::size_t ports_per_module)
        : words_(words), n_(ports_per_module) {}

    [[nodiscard]] WavelengthEndpoint input() const {
      return Unpack<WavelengthEndpoint>{0}(words_[0]);
    }
    /// The request's outputs, in request order.
    [[nodiscard]] Endpoints outputs() const { return {words_.subspan(2, words_[1]), {0}}; }
    /// The branch heads, (middle, link lane) each; spread() of them.
    [[nodiscard]] Hops branches() const {
      return {words_.subspan(3 + words_[1], spread()), {0}};
    }
    [[nodiscard]] std::size_t spread() const { return words_[2 + words_[1]]; }
    [[nodiscard]] Words words() const { return words_; }

    /// Walk the route tree in record order: on_branch(middle, link_lane,
    /// legs) per branch, then on_leg(out_module, link_lane, destinations)
    /// per leg of it; `legs` are its Hops, `destinations` Endpoints.
    template <typename OnBranch, typename OnLeg>
    void walk(OnBranch&& on_branch, OnLeg&& on_leg) const {
      std::size_t at = 3 + words_[1] + spread();
      for (const ModulePortLane head : branches()) {
        const Words legs = words_.subspan(at + 1, words_[at]);
        on_branch(head.port, head.lane, Hops(legs, {0}));
        at += 1 + legs.size();
        for (const std::uint32_t leg : legs) {
          const Words destinations = words_.subspan(at + 1, words_[at]);
          on_leg(index_of(leg), lane_of(leg), Endpoints(destinations, {index_of(leg) * n_}));
          at += 1 + destinations.size();
        }
      }
    }

    /// The record as values: the request, and the route install() took.
    [[nodiscard]] MulticastRequest request() const;
    [[nodiscard]] Route route() const;

   private:
    Words words_;
    std::size_t n_;
  };

  /// Read-only view over the active connections, map-compatible: iterates
  /// (id, RecordView) pairs in insertion order -- which is ascending
  /// creation order, exactly what the former std::map produced -- and
  /// supports at()/contains() in O(1) via the slot index embedded in the id.
  class ConnectionView {
   public:
    /// A materialized connection, as find_connection hands it out.
    using Entry = std::pair<MulticastRequest, Route>;

    class const_iterator {
     public:
      using value_type = std::pair<ConnectionId, RecordView>;

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
    [[nodiscard]] RecordView at(ConnectionId id) const;

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
  /// this network, and re-derive the middle-stage rows under it; the caller
  /// keeps ownership. While attached, routing and route validation treat
  /// failed resources as unusable. With no model attached -- or an attached
  /// model carrying no active fault -- behavior is bit-identical to a
  /// fault-free network.
  void attach_fault_model(const FaultModel* faults);
  [[nodiscard]] const FaultModel* fault_model() const { return faults_; }

  /// The fault model, but only when it currently carries at least one
  /// active fault (nullptr = every lane of every link is usable).
  [[nodiscard]] const FaultModel* active_fault_model() const {
    return faults_ != nullptr && faults_->any() ? faults_ : nullptr;
  }

  /// Lanes of the input-module-i -> middle-j link that can carry a signal
  /// (bit = lane, like a port's occupancy word): all k lanes with no active
  /// fault, else FaultModel::link12_usable_lanes.
  [[nodiscard]] std::uint64_t link12_usable_lanes(std::size_t i, std::size_t j) const {
    const FaultModel* faults = active_fault_model();
    return faults == nullptr ? inputs_[i].out_lane_mask() : faults->link12_usable_lanes(i, j);
  }
  /// Same for the middle-j -> output-module-p link.
  [[nodiscard]] std::uint64_t link23_usable_lanes(std::size_t j, std::size_t p) const {
    const FaultModel* faults = active_fault_model();
    return faults == nullptr ? middles_[j].out_lane_mask() : faults->link23_usable_lanes(j, p);
  }

  // -- middle-stage rows (DESIGN.md §3.10) ----------------------------------
  /// Words per row: ceil(m / 64). Bit j of a row stands for middle module j.
  [[nodiscard]] std::size_t row_words() const { return row_words_; }
  /// Re-derive the rows when the attached fault model's epoch has moved
  /// since they were last derived; one compare otherwise. The rows reflect
  /// the fault state as of the last sync (the Router syncs before every
  /// gather, self_check before it checks).
  void sync_fault_rows() const {
    if (faults_ != nullptr && faults_->epoch() != rows_epoch_) {
      derive_rows(rows_);
      rows_epoch_ = faults_->epoch();
    }
  }
  /// Candidate row of input module `in_module`: bit j set iff lane `lane` is
  /// free and usable on the link in_module -> j, or, with lane ==
  /// kNoWavelength, iff some lane of that link is.
  [[nodiscard]] const std::uint64_t* candidate_row(std::size_t in_module,
                                                   Wavelength lane) const {
    return rows_.data() + row_offset(in_module, lane);
  }
  /// Serve row of output module `out_module`: bit j set iff lane `lane` is
  /// free and usable on the link j -> out_module, or, with lane ==
  /// kNoWavelength, iff some lane of that link is.
  [[nodiscard]] const std::uint64_t* serve_row(std::size_t out_module,
                                               Wavelength lane) const {
    return rows_.data() + row_offset(params_.r + out_module, lane);
  }

  // -- middle-stage busy counts (the engine's health publish) ----------------
  /// Busy lanes on every middle module's outgoing links: the sum of
  /// middle_module(j).busy_out_lanes(), kept by delta in O(route).
  [[nodiscard]] std::size_t busy_middle_lanes() const { return busy_middle_lanes_; }
  /// Visit each middle module a record was committed through or released
  /// from since the last drain (every middle, on the first drain) once, in
  /// index order, as visit(j, middle_module(j).busy_out_lanes()), and clear
  /// the marks. O(touched middles + row_words()).
  template <typename Visit>
  void drain_dirty_middles(Visit&& visit) {
    for (std::size_t w = 0; w < row_words_; ++w) {
      for (std::uint64_t bits = std::exchange(dirty_middles_[w], 0); bits != 0;
           bits &= bits - 1) {
        const std::size_t j = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        visit(j, middles_[j].busy_out_lanes());
      }
    }
  }

  // -- admission ------------------------------------------------------------
  /// Shape legality under the network model plus endpoint availability.
  [[nodiscard]] std::optional<ConnectError> check_admissible(
      const MulticastRequest& request) const;

  /// Detailed route validation; nullopt = the route would install cleanly.
  [[nodiscard]] std::optional<std::string> check_route(
      const MulticastRequest& request, const Route& route) const;

  /// Commit a route. Throws std::logic_error, changing nothing, when the
  /// request is malformed or check_route rejects the route -- including a
  /// busy input or output endpoint, which the edge modules' dry runs catch.
  ConnectionId install(const MulticastRequest& request, const Route& route);

  /// Commit a route into the slot a released id names, reviving that EXACT
  /// id: after reinstall(id, ...), connections().at(id) is live again with
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

  /// The connection as one materialized (request, route) entry, or nullptr
  /// for stale ids. The entry is network scratch, overwritten by the next
  /// call, so this needs exclusive access. Kept only for the session
  /// benchmark's mirror; read connections().at(id) instead.
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

  /// Deep consistency check: vacating every connection record from copies of
  /// the modules succeeds and leaves them idle (no lane held twice, none
  /// held without a record), every busy-lane count matches its words, the
  /// output endpoint words match the records' request outputs, all four
  /// middle-stage row families (synced first) match a re-derivation from
  /// the module occupancy and usable-lane words, and busy_middle_lanes()
  /// matches the middles' counts. Throws std::logic_error on failure.
  void self_check() const;

 private:
  friend class ConnectionView;

  /// One connection of the slot-reuse table: a header pointing at the
  /// connection's record in records_. `generation` is embedded in the public
  /// ConnectionId so stale ids are rejected in O(1); prev/next thread the
  /// insertion-order list behind ConnectionView.
  struct ConnectionSlot {
    std::uint32_t generation = 0;
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    std::uint32_t offset = 0;  // first record word in records_
    std::uint32_t length = 0;  // record words; 0 = the slot is free
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  static ConnectionId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<ConnectionId>(generation) << 32) | slot;
  }
  /// Slot index of an id if it names an active connection, else kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(ConnectionId id) const;

  /// Throw std::logic_error, prefixed with `caller`, unless the request is
  /// well-formed and check_route accepts the route.
  void validate_or_throw(const char* caller, const MulticastRequest& request,
                         const Route& route) const;
  /// Pop a free connection slot (or grow the table by one).
  [[nodiscard]] std::uint32_t acquire_slot();
  /// Serialize a validated (request, route) into an arena block for `slot`.
  void store_record(std::uint32_t slot, const MulticastRequest& request,
                    const Route& route);
  /// Shared tail of install() and reinstall(): occupy the lanes of the
  /// record stored in `slot` and link it into the view after `prev_slot`
  /// (kNoSlot = the head).
  ConnectionId commit_slot(std::uint32_t slot, std::uint32_t prev_slot);

  // Record words pack index << 6 | lane (k <= 64; see the header comment).
  static std::uint32_t pack(std::size_t index, Wavelength lane) {
    return static_cast<std::uint32_t>(index << 6 | lane);
  }
  static std::size_t index_of(std::uint32_t word) { return word >> 6; }
  static Wavelength lane_of(std::uint32_t word) { return word & 63u; }

  /// Which module column a transit passes (indexes the stage arrays).
  enum class Stage { kInput = 0, kMiddle = 1, kOutput = 2 };
  /// Visit a record's transits in layout order -- the input transit, then
  /// per branch its middle transit followed by its legs' output transits --
  /// as visit(stage, module, inbound, outbound) with module-local ports;
  /// `outbound` is portlane_scratch_.
  template <typename Visit>
  void for_each_transit(const RecordView& view, Visit&& visit) const;
  /// Occupy (or vacate) every transit of a record and bring the
  /// middle-stage row bits they touch up to date. O(route size).
  void apply_record(const RecordView& view, bool occupy);

  /// Offset in rows_ of row `lane` of edge row e: e = i holds input module
  /// i's candidate rows, e = r + p output module p's serve rows, each its k
  /// per-lane rows and then the any-lane row (lane == kNoWavelength).
  [[nodiscard]] std::size_t row_offset(std::size_t e, Wavelength lane) const {
    return (e * (params_.k + 1) + (lane == kNoWavelength ? params_.k : lane)) * row_words_;
  }
  /// Fill every row of `rows` from the module occupancy words and the
  /// usable-lane words, writing into its storage once sized. One 64 x 64
  /// bit transpose per 64 middles, edge module and stage: O(r * m) words.
  void derive_rows(std::vector<std::uint64_t>& rows) const;
  /// The record of an active slot.
  [[nodiscard]] RecordView view_of(std::uint32_t slot) const {
    const ConnectionSlot& entry = connection_slots_[slot];
    return {{records_.data() + entry.offset, entry.length}, params_.n};
  }
  /// Insertion-order list surgery: take `slot` out, or put it directly
  /// after `prev_slot` (kNoSlot = the head).
  void unlink(std::uint32_t slot);
  void link_after(std::uint32_t slot, std::uint32_t prev_slot);

  ClosParams params_;
  Construction construction_;
  MulticastModel network_model_;

  std::vector<SwitchModule> inputs_;
  std::vector<SwitchModule> middles_;
  std::vector<SwitchModule> outputs_;

  const FaultModel* faults_ = nullptr;  // not owned; nullptr = fault-free

  std::vector<ConnectionSlot> connection_slots_;
  std::vector<std::uint32_t> free_connection_slots_;
  std::uint32_t head_ = kNoSlot;  // oldest active connection
  std::uint32_t tail_ = kNoSlot;  // newest active connection
  std::size_t active_count_ = 0;

  // Record arena (layout in the header comment). Blocks come in size classes
  // of 4, 6, 8, 12, 16, 24, ... words; free_blocks_[c] heads class c's free
  // list, threaded through each free block's first word (kNoSlot ends it),
  // and the next record of that class reuses the block, so steady-state
  // install/release allocate nothing.
  std::vector<std::uint32_t> records_;
  std::vector<std::uint32_t> free_blocks_;

  // The entry find_connection hands out.
  mutable ConnectionView::Entry found_;

  // Middle-stage rows: a bit means free and usable. install, reinstall and
  // release keep them exact in O(route); sync_fault_rows catches a fault
  // change since rows_epoch_, also under a const self_check, hence mutable.
  std::size_t row_words_ = 0;
  mutable std::vector<std::uint64_t> rows_;  // see row_offset
  mutable std::uint64_t rows_epoch_ = 0;  // the attached model's epoch they reflect

  // Middles touched since the last drain_dirty_middles, one bit each in a
  // row laid out like the rows above, and their busy lanes' running total.
  std::vector<std::uint64_t> dirty_middles_;
  std::size_t busy_middle_lanes_ = 0;

  // Reusable scratch for check_route and the record walks (capacity
  // survives calls, so steady-state validation is allocation-free). The
  // stamp arrays implement "was this seen during generation g" sets without
  // clearing: a cell is set iff it equals the current generation counter.
  mutable std::vector<ModulePortLane> portlane_scratch_;
  mutable std::vector<WavelengthEndpoint> routed_scratch_;  // route's destinations
  mutable std::vector<std::uint64_t> middle_stamp_;  // per middle module
  mutable std::vector<std::uint64_t> module_stamp_;  // per output module
  mutable std::uint64_t stamp_generation_ = 0;
};

}  // namespace wdm
