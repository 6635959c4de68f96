#include "multistage/network.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "faults/fault_model.h"

namespace wdm {

std::string Route::to_string() const {
  std::ostringstream os;
  os << "Route[";
  for (std::size_t b = 0; b < branches.size(); ++b) {
    if (b != 0) os << "; ";
    const RouteBranch& branch = branches[b];
    os << "mid " << branch.middle << '@' << wavelength_name(branch.link_lane) << " -> ";
    for (std::size_t l = 0; l < branch.legs.size(); ++l) {
      if (l != 0) os << ", ";
      os << "om" << branch.legs[l].out_module << '@'
         << wavelength_name(branch.legs[l].link_lane);
    }
  }
  os << ']';
  return os.str();
}

// -- ConnectionView ----------------------------------------------------------

ThreeStageNetwork::ConnectionView::const_iterator::value_type
ThreeStageNetwork::ConnectionView::const_iterator::operator*() const {
  const ConnectionSlot& slot = network_->connection_slots_[slot_];
  return {make_id(slot_, slot.generation), slot.entry};
}

ThreeStageNetwork::ConnectionView::const_iterator&
ThreeStageNetwork::ConnectionView::const_iterator::operator++() {
  slot_ = network_->connection_slots_[slot_].next;
  return *this;
}

ThreeStageNetwork::ConnectionView::const_iterator
ThreeStageNetwork::ConnectionView::begin() const {
  return {network_, network_->head_};
}

ThreeStageNetwork::ConnectionView::const_iterator
ThreeStageNetwork::ConnectionView::end() const {
  return {network_, kNoSlot};
}

std::size_t ThreeStageNetwork::ConnectionView::size() const {
  return network_->active_count_;
}

bool ThreeStageNetwork::ConnectionView::contains(ConnectionId id) const {
  return network_->slot_of(id) != kNoSlot;
}

const ThreeStageNetwork::ConnectionView::Entry&
ThreeStageNetwork::ConnectionView::at(ConnectionId id) const {
  const std::uint32_t slot = network_->slot_of(id);
  if (slot == kNoSlot) {
    throw std::out_of_range("ThreeStageNetwork: unknown connection id");
  }
  return network_->connection_slots_[slot].entry;
}

std::uint32_t ThreeStageNetwork::slot_of(ConnectionId id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= connection_slots_.size() || !connection_slots_[slot].active ||
      connection_slots_[slot].generation != generation) {
    return kNoSlot;
  }
  return slot;
}

// -- ThreeStageNetwork -------------------------------------------------------

ThreeStageNetwork::ThreeStageNetwork(ClosParams params, Construction construction,
                                     MulticastModel network_model)
    : params_(params), construction_(construction), network_model_(network_model) {
  params_.validate();
  const MulticastModel inner = inner_model();
  inputs_.reserve(params_.r);
  outputs_.reserve(params_.r);
  middles_.reserve(params_.m);
  for (std::size_t i = 0; i < params_.r; ++i) {
    inputs_.emplace_back(params_.n, params_.m, params_.k, inner,
                         "in" + std::to_string(i));
    outputs_.emplace_back(params_.m, params_.n, params_.k, network_model,
                          "out" + std::to_string(i));
  }
  for (std::size_t j = 0; j < params_.m; ++j) {
    middles_.emplace_back(params_.r, params_.r, params_.k, inner,
                          "mid" + std::to_string(j));
  }
  middle_stamp_.assign(params_.m, 0);
  module_stamp_.assign(params_.r, 0);

  // Every row starts all-free: bits 0..m-1 set, padding bits clear.
  row_words_ = (params_.m + 63) / 64;
  std::vector<std::uint64_t> all_free(row_words_, ~0ull);
  if (params_.m % 64 != 0) all_free.back() = (1ull << (params_.m % 64)) - 1;
  const auto fill_rows = [&](std::vector<std::uint64_t>& rows, std::size_t count) {
    rows.resize(count * row_words_);
    for (std::size_t row = 0; row < count; ++row) {
      std::copy(all_free.begin(), all_free.end(), rows.begin() + row * row_words_);
    }
  };
  fill_rows(cand_lane_, params_.r * params_.k);
  fill_rows(cand_any_, params_.r);
  fill_rows(serve_lane_, params_.r * params_.k);
  fill_rows(serve_any_, params_.r);
}

MulticastModel ThreeStageNetwork::inner_model() const {
  return construction_ == Construction::kMswDominant ? MulticastModel::kMSW
                                                     : MulticastModel::kMAW;
}

void ThreeStageNetwork::attach_fault_model(const FaultModel* faults) {
  if (faults != nullptr && !(faults->params() == params_)) {
    throw std::invalid_argument(
        "ThreeStageNetwork::attach_fault_model: fault model geometry " +
        faults->params().to_string() + " does not match network " +
        params_.to_string());
  }
  faults_ = faults;
}

const FaultModel* ThreeStageNetwork::active_fault_model() const {
  return faults_ != nullptr && faults_->any() ? faults_ : nullptr;
}

bool ThreeStageNetwork::middle_usable(std::size_t j) const {
  const FaultModel* faults = active_fault_model();
  return faults == nullptr || !faults->middle_failed(j);
}

bool ThreeStageNetwork::link12_lane_usable(std::size_t i, std::size_t j,
                                           Wavelength lane) const {
  const FaultModel* faults = active_fault_model();
  return faults == nullptr || faults->link12_usable(i, j, lane);
}

bool ThreeStageNetwork::link23_lane_usable(std::size_t j, std::size_t p,
                                           Wavelength lane) const {
  const FaultModel* faults = active_fault_model();
  return faults == nullptr || faults->link23_usable(j, p, lane);
}

const SwitchModule& ThreeStageNetwork::input_module(std::size_t i) const {
  return inputs_.at(i);
}
const SwitchModule& ThreeStageNetwork::middle_module(std::size_t j) const {
  return middles_.at(j);
}
const SwitchModule& ThreeStageNetwork::output_module(std::size_t p) const {
  return outputs_.at(p);
}

std::optional<ConnectError> ThreeStageNetwork::check_admissible(
    const MulticastRequest& request) const {
  if (const auto error = check_request_shape(request, port_count(), params_.k,
                                             network_model_)) {
    return error;
  }
  // The shape check guarantees every endpoint is in range, so the word
  // lookups below cannot go out of bounds.
  if (input_lanes_busy(request.input.port) >> request.input.lane & 1u) {
    return ConnectError::kInputBusy;
  }
  for (const auto& out : request.outputs) {
    if (output_lanes_busy(out.port) >> out.lane & 1u) return ConnectError::kOutputBusy;
  }
  return std::nullopt;
}

std::optional<std::string> ThreeStageNetwork::check_route(
    const MulticastRequest& request, const Route& route) const {
  if (route.branches.empty()) return "route has no branches";

  // One fresh stamp generation per validation: a stamp cell is "in the set"
  // iff it equals the current generation, so the former per-call std::sets
  // become array writes with no clearing and no allocation.
  const std::uint64_t gen = ++stamp_generation_;
  std::vector<WavelengthEndpoint>& routed = routed_scratch_;
  routed.clear();
  std::size_t routed_count = 0;

  // The legs must partition the request's destinations by output module.
  for (const RouteBranch& branch : route.branches) {
    if (branch.middle >= params_.m) return "branch middle module out of range";
    if (middle_stamp_[branch.middle] == gen) {
      return "route uses middle module " + std::to_string(branch.middle) + " twice";
    }
    middle_stamp_[branch.middle] = gen;
    if (branch.legs.empty()) return "branch with no legs";
    if (branch.link_lane >= params_.k) return "branch link lane out of range";
    for (const DeliveryLeg& leg : branch.legs) {
      if (leg.out_module >= params_.r) return "leg output module out of range";
      if (leg.link_lane >= params_.k) return "leg link lane out of range";
      if (module_stamp_[leg.out_module] == gen) {
        return "two legs deliver to output module " + std::to_string(leg.out_module);
      }
      module_stamp_[leg.out_module] = gen;
      if (leg.destinations.empty()) return "leg with no destinations";
      for (const auto& dest : leg.destinations) {
        if (output_module_of(dest.port) != leg.out_module) {
          return "destination " + dest.to_string() + " not in leg's output module";
        }
        // The module-membership check bounds dest.port; a lane beyond k is
        // never recorded as routed (so it is reported missing, not twice),
        // and the module dry-run below rejects it.
        if (dest.lane < params_.k) {
          if (std::find(routed.begin(), routed.end(), dest) != routed.end()) {
            return "destination " + dest.to_string() + " routed twice";
          }
          routed.push_back(dest);
        }
        ++routed_count;
      }
    }
  }
  if (routed_count != request.outputs.size()) {
    return "route covers " + std::to_string(routed_count) + " of " +
           std::to_string(request.outputs.size()) + " destinations";
  }
  for (const auto& out : request.outputs) {
    if (std::find(routed.begin(), routed.end(), out) == routed.end()) {
      return "destination " + out.to_string() + " missing from route";
    }
  }

  // Failed hardware is unusable no matter what the modules would admit.
  if (const FaultModel* faults = active_fault_model()) {
    const std::size_t in = input_module_of(request.input.port);
    for (const RouteBranch& branch : route.branches) {
      if (faults->middle_failed(branch.middle)) {
        return "middle module " + std::to_string(branch.middle) + " is failed";
      }
      if (!faults->link12_usable(in, branch.middle, branch.link_lane)) {
        return "stage 1-2 link " + std::to_string(in) + "->" +
               std::to_string(branch.middle) + " lane " +
               wavelength_name(branch.link_lane) + " is failed";
      }
      for (const DeliveryLeg& leg : branch.legs) {
        if (!faults->link23_usable(branch.middle, leg.out_module, leg.link_lane)) {
          return "stage 2-3 link " + std::to_string(branch.middle) + "->" +
                 std::to_string(leg.out_module) + " lane " +
                 wavelength_name(leg.link_lane) + " is failed";
        }
      }
    }
  }

  // Module-level dry runs (lane discipline + occupancy).
  const std::size_t in_module = input_module_of(request.input.port);
  std::vector<ModulePortLane>& outs = portlane_scratch_;
  outs.clear();
  for (const RouteBranch& branch : route.branches) {
    outs.push_back({branch.middle, branch.link_lane});
  }
  if (const auto reason = inputs_[in_module].check_transit(
          {local_port(request.input.port), request.input.lane}, outs)) {
    return "input module: " + *reason;
  }
  for (const RouteBranch& branch : route.branches) {
    outs.clear();
    for (const DeliveryLeg& leg : branch.legs) {
      outs.push_back({leg.out_module, leg.link_lane});
    }
    if (const auto reason = middles_[branch.middle].check_transit(
            {in_module, branch.link_lane}, outs)) {
      return "middle module " + std::to_string(branch.middle) + ": " + *reason;
    }
    for (const DeliveryLeg& leg : branch.legs) {
      outs.clear();
      for (const auto& dest : leg.destinations) {
        outs.push_back({local_port(dest.port), dest.lane});
      }
      if (const auto reason = outputs_[leg.out_module].check_transit(
              {branch.middle, leg.link_lane}, outs)) {
        return "output module " + std::to_string(leg.out_module) + ": " + *reason;
      }
    }
  }
  return std::nullopt;
}

void ThreeStageNetwork::copy_route_into(Route& dst, const Route& src) {
  while (dst.branches.size() > src.branches.size()) {
    RouteBranch& surplus = dst.branches.back();
    while (!surplus.legs.empty()) {
      surplus.legs.back().destinations.clear();
      spare_route_legs_.push_back(std::move(surplus.legs.back()));
      surplus.legs.pop_back();
    }
    spare_route_branches_.push_back(std::move(surplus));
    dst.branches.pop_back();
  }
  while (dst.branches.size() < src.branches.size()) {
    if (spare_route_branches_.empty()) {
      dst.branches.emplace_back();
    } else {
      dst.branches.push_back(std::move(spare_route_branches_.back()));
      spare_route_branches_.pop_back();
    }
  }
  for (std::size_t b = 0; b < src.branches.size(); ++b) {
    RouteBranch& dst_branch = dst.branches[b];
    const RouteBranch& src_branch = src.branches[b];
    dst_branch.middle = src_branch.middle;
    dst_branch.link_lane = src_branch.link_lane;
    while (dst_branch.legs.size() > src_branch.legs.size()) {
      dst_branch.legs.back().destinations.clear();
      spare_route_legs_.push_back(std::move(dst_branch.legs.back()));
      dst_branch.legs.pop_back();
    }
    while (dst_branch.legs.size() < src_branch.legs.size()) {
      if (spare_route_legs_.empty()) {
        dst_branch.legs.emplace_back();
      } else {
        dst_branch.legs.push_back(std::move(spare_route_legs_.back()));
        spare_route_legs_.pop_back();
      }
    }
    for (std::size_t l = 0; l < src_branch.legs.size(); ++l) {
      DeliveryLeg& dst_leg = dst_branch.legs[l];
      const DeliveryLeg& src_leg = src_branch.legs[l];
      dst_leg.out_module = src_leg.out_module;
      dst_leg.link_lane = src_leg.link_lane;
      dst_leg.destinations = src_leg.destinations;  // flat: capacity reuse
    }
  }
}

ConnectionId ThreeStageNetwork::install(const MulticastRequest& request,
                                        const Route& route) {
  if (const auto error = check_admissible(request)) {
    throw std::logic_error(std::string("ThreeStageNetwork::install: ") +
                           connect_error_name(*error) + " for " + request.to_string());
  }
  if (const auto reason = check_route(request, route)) {
    throw std::logic_error("ThreeStageNetwork::install: " + *reason);
  }
  const std::uint32_t slot = acquire_slot();
  ConnectionSlot& entry = connection_slots_[slot];
  entry.entry.first = request;  // copy-assign: keeps vector capacity
  copy_route_into(entry.entry.second, route);
  return commit_slot(slot);
}

ConnectionId ThreeStageNetwork::reinstall(ConnectionId id,
                                          const MulticastRequest& request,
                                          const Route& route,
                                          std::optional<ConnectionId> after) {
  // Resolve the splice target up front so a bad `after` rejects the whole
  // call before any state moves (kNoSlot doubles as "leave at the tail").
  std::uint32_t after_slot = kNoSlot;
  bool splice = false;
  if (after) {
    splice = true;
    if (*after != 0) {
      after_slot = slot_of(*after);
      if (after_slot == kNoSlot) {
        throw std::logic_error(
            "ThreeStageNetwork::reinstall: `after` does not name a live "
            "connection");
      }
    }
  }
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= connection_slots_.size() || connection_slots_[slot].active ||
      generation == 0) {
    throw std::logic_error(
        "ThreeStageNetwork::reinstall: id does not name a free slot");
  }
  if (const auto error = check_admissible(request)) {
    throw std::logic_error(std::string("ThreeStageNetwork::reinstall: ") +
                           connect_error_name(*error) + " for " +
                           request.to_string());
  }
  if (const auto reason = check_route(request, route)) {
    throw std::logic_error("ThreeStageNetwork::reinstall: " + *reason);
  }
  // Claim the specific slot off the free list (cold path: rollback only).
  bool found = false;
  for (std::size_t i = 0; i < free_connection_slots_.size(); ++i) {
    if (free_connection_slots_[i] == slot) {
      free_connection_slots_[i] = free_connection_slots_.back();
      free_connection_slots_.pop_back();
      found = true;
      break;
    }
  }
  if (!found) {
    throw std::logic_error(
        "ThreeStageNetwork::reinstall: slot missing from the free list");
  }
  ConnectionSlot& entry = connection_slots_[slot];
  entry.entry.first = request;  // copy-assign: keeps vector capacity
  copy_route_into(entry.entry.second, route);
  // commit_slot bumps the generation, so re-arm it one below the target:
  // the id it mints is bit-identical to the one the caller is reviving.
  entry.generation = generation - 1;
  const ConnectionId revived = commit_slot(slot);
  // commit_slot appended at the tail; splice to the requested position.
  if (splice) move_slot_after(slot, after_slot);
  return revived;
}

ConnectionId ThreeStageNetwork::predecessor_of(ConnectionId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::out_of_range(
        "ThreeStageNetwork::predecessor_of: unknown connection id");
  }
  const std::uint32_t prev = connection_slots_[slot].prev;
  if (prev == kNoSlot) return 0;
  return make_id(prev, connection_slots_[prev].generation);
}

void ThreeStageNetwork::move_slot_after(std::uint32_t slot,
                                        std::uint32_t prev_slot) {
  if (prev_slot == slot) return;  // already trivially in place
  ConnectionSlot& entry = connection_slots_[slot];
  if (entry.prev == prev_slot) return;  // nothing to do
  // Unlink.
  if (entry.prev != kNoSlot) {
    connection_slots_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNoSlot) {
    connection_slots_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
  // Re-link after prev_slot (kNoSlot = head).
  if (prev_slot == kNoSlot) {
    entry.prev = kNoSlot;
    entry.next = head_;
    if (head_ != kNoSlot) {
      connection_slots_[head_].prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  } else {
    ConnectionSlot& prev = connection_slots_[prev_slot];
    entry.prev = prev_slot;
    entry.next = prev.next;
    if (prev.next != kNoSlot) {
      connection_slots_[prev.next].prev = slot;
    } else {
      tail_ = slot;
    }
    prev.next = slot;
  }
}

std::uint32_t ThreeStageNetwork::acquire_slot() {
  // Acquire a slot first so the transit lists can be built directly into its
  // reusable vectors (a reused slot performs no allocations here).
  if (!free_connection_slots_.empty()) {
    const std::uint32_t slot = free_connection_slots_.back();
    free_connection_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(connection_slots_.size());
  connection_slots_.emplace_back();
  return slot;
}

void ThreeStageNetwork::update_rows(std::size_t in_module, const Route& route,
                                    bool installed) {
  // A lane that was just taken clears its per-lane bit and leaves the
  // any-lane bit set only while the link still has some other free lane; a
  // lane that was just freed sets both.
  const auto assign_bit = [](std::uint64_t* row, std::size_t j, bool value) {
    const std::uint64_t bit = 1ull << (j & 63);
    row[j >> 6] = value ? row[j >> 6] | bit : row[j >> 6] & ~bit;
  };
  const SwitchModule& input = inputs_[in_module];
  for (const RouteBranch& branch : route.branches) {
    const std::size_t j = branch.middle;
    assign_bit(cand_lane_.data() + (in_module * params_.k + branch.link_lane) * row_words_,
               j, !installed);
    assign_bit(cand_any_.data() + in_module * row_words_, j,
               !installed || input.out_word(j) != input.out_lane_mask());
    const SwitchModule& middle = middles_[j];
    for (const DeliveryLeg& leg : branch.legs) {
      const std::size_t p = leg.out_module;
      assign_bit(serve_lane_.data() + (p * params_.k + leg.link_lane) * row_words_, j,
                 !installed);
      assign_bit(serve_any_.data() + p * row_words_, j,
                 !installed || middle.out_word(p) != middle.out_lane_mask());
    }
  }
}

ConnectionId ThreeStageNetwork::commit_slot(std::uint32_t slot) {
  ConnectionSlot& entry = connection_slots_[slot];
  const MulticastRequest& request = entry.entry.first;
  const Route& route = entry.entry.second;
  const std::size_t in_module = input_module_of(request.input.port);
  InstalledTransits& installed = entry.transits;
  installed.middle_transits.clear();
  installed.output_transits.clear();
  std::vector<ModulePortLane>& outs = portlane_scratch_;
  outs.clear();
  for (const RouteBranch& branch : route.branches) {
    outs.push_back({branch.middle, branch.link_lane});
  }
  installed.input_transit = inputs_[in_module].add_transit(
      {local_port(request.input.port), request.input.lane}, outs);
  for (const RouteBranch& branch : route.branches) {
    outs.clear();
    for (const DeliveryLeg& leg : branch.legs) {
      outs.push_back({leg.out_module, leg.link_lane});
    }
    installed.middle_transits.emplace_back(
        branch.middle,
        middles_[branch.middle].add_transit({in_module, branch.link_lane}, outs));
    for (const DeliveryLeg& leg : branch.legs) {
      outs.clear();
      for (const auto& dest : leg.destinations) {
        outs.push_back({local_port(dest.port), dest.lane});
      }
      installed.output_transits.emplace_back(
          leg.out_module,
          outputs_[leg.out_module].add_transit({branch.middle, leg.link_lane}, outs));
    }
  }
  update_rows(in_module, route, /*installed=*/true);

  // Commit: bump the generation (ids are nonzero because generation >= 1)
  // and link at the tail of the insertion-order list.
  ++entry.generation;
  entry.active = true;
  entry.prev = tail_;
  entry.next = kNoSlot;
  if (tail_ != kNoSlot) {
    connection_slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++active_count_;
  return make_id(slot, entry.generation);
}

void ThreeStageNetwork::release(ConnectionId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::out_of_range("ThreeStageNetwork::release: unknown connection id");
  }
  ConnectionSlot& entry = connection_slots_[slot];
  const auto& [request, route] = entry.entry;
  const InstalledTransits& installed = entry.transits;

  const std::size_t in_module = input_module_of(request.input.port);
  inputs_[in_module].remove_transit(installed.input_transit);
  for (const auto& [module, transit] : installed.middle_transits) {
    middles_[module].remove_transit(transit);
  }
  for (const auto& [module, transit] : installed.output_transits) {
    outputs_[module].remove_transit(transit);
  }
  update_rows(in_module, route, /*installed=*/false);

  if (entry.prev != kNoSlot) {
    connection_slots_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNoSlot) {
    connection_slots_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
  entry.active = false;
  --active_count_;
  free_connection_slots_.push_back(slot);
}

bool ThreeStageNetwork::try_release(ConnectionId id) {
  if (slot_of(id) == kNoSlot) return false;
  release(id);
  return true;
}

const ThreeStageNetwork::ConnectionView::Entry* ThreeStageNetwork::find_connection(
    ConnectionId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot == kNoSlot ? nullptr : &connection_slots_[slot].entry;
}

DestinationMultiset ThreeStageNetwork::middle_destination_multiset(
    std::size_t j) const {
  const SwitchModule& middle = middles_.at(j);
  DestinationMultiset multiset(params_.r, static_cast<std::uint32_t>(params_.k));
  for (std::size_t p = 0; p < params_.r; ++p) {
    const std::size_t used = params_.k - middle.free_out_lanes(p);
    for (std::size_t occurrence = 0; occurrence < used; ++occurrence) multiset.add(p);
  }
  return multiset;
}

std::vector<bool> ThreeStageNetwork::middle_plane_destinations(
    std::size_t j, Wavelength lane) const {
  const SwitchModule& middle = middles_.at(j);
  std::vector<bool> destinations(params_.r);
  for (std::size_t p = 0; p < params_.r; ++p) {
    destinations[p] = !middle.out_lane_free(p, lane);
  }
  return destinations;
}

void ThreeStageNetwork::self_check() const {
  for (const auto& module : inputs_) module.self_check();
  for (const auto& module : middles_) module.self_check();
  for (const auto& module : outputs_) module.self_check();

  // Link mirroring: both endpoint modules of every inter-stage link must
  // agree lane by lane (an input module's output port IS the middle
  // module's input port, and likewise for stage 2 -> 3).
  for (std::size_t i = 0; i < params_.r; ++i) {
    for (std::size_t j = 0; j < params_.m; ++j) {
      for (Wavelength lane = 0; lane < params_.k; ++lane) {
        if (inputs_[i].out_lane_free(j, lane) != middles_[j].in_lane_free(i, lane)) {
          throw std::logic_error(
              "ThreeStageNetwork: stage 1-2 link state diverged between its "
              "endpoint modules");
        }
      }
    }
  }
  for (std::size_t j = 0; j < params_.m; ++j) {
    for (std::size_t p = 0; p < params_.r; ++p) {
      for (Wavelength lane = 0; lane < params_.k; ++lane) {
        if (middles_[j].out_lane_free(p, lane) != outputs_[p].in_lane_free(j, lane)) {
          throw std::logic_error(
              "ThreeStageNetwork: stage 2-3 link state diverged between its "
              "endpoint modules");
        }
      }
    }
  }

  // Re-derive all four row families from the module occupancy words.
  const auto check_row = [&](const std::uint64_t* row, const auto& free_bit,
                             const char* family) {
    for (std::size_t w = 0; w < row_words_; ++w) {
      std::uint64_t expected = 0;
      for (std::size_t j = w * 64; j < std::min(params_.m, w * 64 + 64); ++j) {
        expected |= static_cast<std::uint64_t>(free_bit(j)) << (j & 63);
      }
      if (row[w] != expected) {
        throw std::logic_error(std::string("ThreeStageNetwork: ") + family +
                               " row diverged from module occupancy");
      }
    }
  };
  for (std::size_t i = 0; i < params_.r; ++i) {
    const SwitchModule& input = inputs_[i];
    check_row(candidate_row(i, kNoWavelength),
              [&](std::size_t j) { return input.out_word(j) != input.out_lane_mask(); },
              "cand_any");
    for (Wavelength lane = 0; lane < params_.k; ++lane) {
      check_row(candidate_row(i, lane),
                [&](std::size_t j) { return input.out_lane_free(j, lane); },
                "cand_lane");
    }
  }
  for (std::size_t p = 0; p < params_.r; ++p) {
    check_row(serve_row(p, kNoWavelength),
              [&](std::size_t j) {
                return middles_[j].out_word(p) != middles_[j].out_lane_mask();
              },
              "serve_any");
    for (Wavelength lane = 0; lane < params_.k; ++lane) {
      check_row(serve_row(p, lane),
                [&](std::size_t j) { return middles_[j].out_lane_free(p, lane); },
                "serve_lane");
    }
  }

  // Rebuild the endpoint words (one per port, bit = lane) from the
  // connection table and compare with the edge modules; also re-derive the
  // active count and insertion-list length so slot bookkeeping cannot
  // silently diverge.
  std::vector<std::uint64_t> expected_inputs(port_count(), 0);
  std::vector<std::uint64_t> expected_outputs(port_count(), 0);
  std::size_t walked = 0;
  for (const auto& [id, entry] : connections()) {
    ++walked;
    const MulticastRequest& request = entry.first;
    expected_inputs[request.input.port] |= 1ull << request.input.lane;
    for (const auto& out : request.outputs) {
      expected_outputs[out.port] |= 1ull << out.lane;
    }
  }
  if (walked != active_count_) {
    throw std::logic_error(
        "ThreeStageNetwork: connection list length diverged from active count");
  }
  for (std::size_t port = 0; port < port_count(); ++port) {
    if (expected_inputs[port] != input_lanes_busy(port) ||
        expected_outputs[port] != output_lanes_busy(port)) {
      throw std::logic_error(
          "ThreeStageNetwork: endpoint words diverged from connection table");
    }
  }
}

}  // namespace wdm
