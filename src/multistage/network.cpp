#include "multistage/network.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

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

namespace {

/// Words of arena size class c: 4, 6, 8, 12, 16, 24, ... (two per octave).
std::size_t block_words(std::size_t c) { return (4 + 2 * (c & 1)) << (c >> 1); }
std::size_t block_class(std::size_t words) {
  std::size_t c = 0;
  while (block_words(c) < words) ++c;
  return c;
}

/// Append a parked element to `into` (a fresh one when none is parked).
template <typename T>
T& unpark(std::vector<T>& parked, std::vector<T>& into) {
  if (parked.empty()) return into.emplace_back();
  into.push_back(std::move(parked.back()));
  parked.pop_back();
  return into.back();
}

}  // namespace

void RoutePool::recycle(Route& route) {
  for (RouteBranch& branch : route.branches) {
    for (DeliveryLeg& leg : branch.legs) {
      leg.destinations.clear();
      legs_.push_back(std::move(leg));
    }
    branch.legs.clear();
    branches_.push_back(std::move(branch));
  }
  route.branches.clear();
}

RouteBranch& RoutePool::add_branch(Route& route) { return unpark(branches_, route.branches); }

DeliveryLeg& RoutePool::add_leg(RouteBranch& branch) { return unpark(legs_, branch.legs); }

void RoutePool::drop_last_branch(Route& route) {
  branches_.push_back(std::move(route.branches.back()));
  route.branches.pop_back();
}

// -- RecordView --------------------------------------------------------------

MulticastRequest ThreeStageNetwork::RecordView::request() const {
  const Endpoints endpoints = outputs();
  return {input(), {endpoints.begin(), endpoints.end()}};
}

Route ThreeStageNetwork::RecordView::route() const {
  Route route;
  walk(
      [&](std::size_t middle, Wavelength link_lane, const Hops&) {
        route.branches.push_back({middle, link_lane, {}});
      },
      [&](std::size_t out_module, Wavelength link_lane, const Endpoints& destinations) {
        route.branches.back().legs.push_back(
            {out_module, link_lane, {destinations.begin(), destinations.end()}});
      });
  return route;
}

// -- ConnectionView ----------------------------------------------------------

ThreeStageNetwork::ConnectionView::const_iterator::value_type
ThreeStageNetwork::ConnectionView::const_iterator::operator*() const {
  return {make_id(slot_, network_->connection_slots_[slot_].generation),
          network_->view_of(slot_)};
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

ThreeStageNetwork::RecordView ThreeStageNetwork::ConnectionView::at(ConnectionId id) const {
  const std::uint32_t slot = network_->slot_of(id);
  if (slot == kNoSlot) {
    throw std::out_of_range("ThreeStageNetwork: unknown connection id");
  }
  return network_->view_of(slot);
}

std::uint32_t ThreeStageNetwork::slot_of(ConnectionId id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= connection_slots_.size() || connection_slots_[slot].length == 0 ||
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
  if (std::max(port_count(), params_.m) >= std::size_t{1} << 26) {
    throw std::invalid_argument(
        "ThreeStageNetwork: ports and middle modules must number below 2^26 "
        "(connection records pack index << 6 | lane into 32 bits)");
  }
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
  // Every middle starts marked, so the first drain reads out all m counts.
  dirty_middles_ = all_free;
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

void ThreeStageNetwork::validate_or_throw(const char* caller,
                                          const MulticastRequest& request,
                                          const Route& route) const {
  // No endpoint-busy precheck: the edge modules' dry runs in check_route
  // reject a busy input or output wavelength.
  const auto error = check_request_shape(request, port_count(), params_.k, network_model_);
  const auto reason = error ? std::string(connect_error_name(*error)) + " for " +
                                  request.to_string()
                            : check_route(request, route);
  if (reason) {
    throw std::logic_error(std::string("ThreeStageNetwork::") + caller + ": " + *reason);
  }
}

ConnectionId ThreeStageNetwork::install(const MulticastRequest& request,
                                        const Route& route) {
  validate_or_throw("install", request, route);
  const std::uint32_t slot = acquire_slot();
  store_record(slot, request, route);
  return commit_slot(slot, tail_);
}

ConnectionId ThreeStageNetwork::reinstall(ConnectionId id,
                                          const MulticastRequest& request,
                                          const Route& route,
                                          std::optional<ConnectionId> after) {
  // Resolve the position up front so a bad `after` rejects the whole call
  // before any state moves: by default the tail, else directly after
  // `*after` (kNoSlot = the head).
  std::uint32_t prev_slot = tail_;
  if (after) {
    prev_slot = *after == 0 ? kNoSlot : slot_of(*after);
    if (*after != 0 && prev_slot == kNoSlot) {
      throw std::logic_error(
          "ThreeStageNetwork::reinstall: `after` does not name a live "
          "connection");
    }
  }
  const std::uint32_t slot = slot_of_id(id);
  const std::uint32_t generation = generation_of_id(id);
  if (slot >= connection_slots_.size() || connection_slots_[slot].length != 0 ||
      generation == 0) {
    throw std::logic_error(
        "ThreeStageNetwork::reinstall: id does not name a free slot");
  }
  validate_or_throw("reinstall", request, route);
  // Claim the specific slot off the free list (cold path: rollback only).
  const auto free_slot = std::find(free_connection_slots_.begin(),
                                   free_connection_slots_.end(), slot);
  if (free_slot == free_connection_slots_.end()) {
    throw std::logic_error(
        "ThreeStageNetwork::reinstall: slot missing from the free list");
  }
  *free_slot = free_connection_slots_.back();
  free_connection_slots_.pop_back();
  store_record(slot, request, route);
  // commit_slot bumps the generation, so re-arm it one below the target:
  // the id it mints is bit-identical to the one the caller is reviving.
  connection_slots_[slot].generation = generation - 1;
  return commit_slot(slot, prev_slot);
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

void ThreeStageNetwork::unlink(std::uint32_t slot) {
  const ConnectionSlot& entry = connection_slots_[slot];
  (entry.prev != kNoSlot ? connection_slots_[entry.prev].next : head_) = entry.next;
  (entry.next != kNoSlot ? connection_slots_[entry.next].prev : tail_) = entry.prev;
}

void ThreeStageNetwork::link_after(std::uint32_t slot, std::uint32_t prev_slot) {
  ConnectionSlot& entry = connection_slots_[slot];
  entry.prev = prev_slot;
  entry.next = prev_slot != kNoSlot ? connection_slots_[prev_slot].next : head_;
  (entry.next != kNoSlot ? connection_slots_[entry.next].prev : tail_) = slot;
  (prev_slot != kNoSlot ? connection_slots_[prev_slot].next : head_) = slot;
}

std::uint32_t ThreeStageNetwork::acquire_slot() {
  if (!free_connection_slots_.empty()) {
    const std::uint32_t slot = free_connection_slots_.back();
    free_connection_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(connection_slots_.size());
  connection_slots_.emplace_back();
  return slot;
}

void ThreeStageNetwork::store_record(std::uint32_t slot,
                                     const MulticastRequest& request,
                                     const Route& route) {
  std::size_t length = 3 + request.outputs.size() + route.branches.size();
  for (const RouteBranch& branch : route.branches) {
    length += 1 + branch.legs.size();
    for (const DeliveryLeg& leg : branch.legs) length += 1 + leg.destinations.size();
  }
  // Take a free block of the record's size class, else carve one off the
  // arena's end.
  const std::size_t c = block_class(length);
  if (c >= free_blocks_.size()) free_blocks_.resize(c + 1, kNoSlot);
  std::uint32_t offset = free_blocks_[c];
  if (offset != kNoSlot) {
    free_blocks_[c] = records_[offset];
  } else {
    if (records_.size() + block_words(c) >= kNoSlot) {
      throw std::length_error("ThreeStageNetwork: connection record arena full");
    }
    offset = static_cast<std::uint32_t>(records_.size());
    records_.resize(records_.size() + block_words(c));
  }
  ConnectionSlot& entry = connection_slots_[slot];
  entry.offset = offset;
  entry.length = static_cast<std::uint32_t>(length);

  std::uint32_t* w = records_.data() + offset;
  *w++ = pack(request.input.port, request.input.lane);
  *w++ = static_cast<std::uint32_t>(request.outputs.size());
  for (const auto& out : request.outputs) *w++ = pack(out.port, out.lane);
  *w++ = static_cast<std::uint32_t>(route.branches.size());
  for (const RouteBranch& branch : route.branches) {
    *w++ = pack(branch.middle, branch.link_lane);
  }
  for (const RouteBranch& branch : route.branches) {
    *w++ = static_cast<std::uint32_t>(branch.legs.size());
    for (const DeliveryLeg& leg : branch.legs) *w++ = pack(leg.out_module, leg.link_lane);
    for (const DeliveryLeg& leg : branch.legs) {
      *w++ = static_cast<std::uint32_t>(leg.destinations.size());
      for (const auto& dest : leg.destinations) {
        *w++ = pack(local_port(dest.port), dest.lane);
      }
    }
  }
}

template <typename Visit>
void ThreeStageNetwork::for_each_transit(const RecordView& view, Visit&& visit) const {
  // Each transit's outputs are contiguous record words, module-local as
  // stored (the views' base() spans); unpack them into the scratch.
  std::vector<ModulePortLane>& outs = portlane_scratch_;
  const auto unpack = [&outs](RecordView::Words words) -> const auto& {
    outs.resize(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) outs[i] = {index_of(words[i]), lane_of(words[i])};
    return outs;
  };
  const WavelengthEndpoint input = view.input();
  const std::size_t in_module = input_module_of(input.port);
  visit(Stage::kInput, in_module, ModulePortLane{local_port(input.port), input.lane},
        unpack(view.branches().base()));
  std::size_t middle = 0;
  view.walk(
      [&](std::size_t j, Wavelength link_lane, const RecordView::Hops& legs) {
        middle = j;
        visit(Stage::kMiddle, j, ModulePortLane{in_module, link_lane}, unpack(legs.base()));
      },
      [&](std::size_t p, Wavelength link_lane, const RecordView::Endpoints& destinations) {
        visit(Stage::kOutput, p, ModulePortLane{middle, link_lane},
              unpack(destinations.base()));
      });
}

void ThreeStageNetwork::apply_record(const RecordView& view, bool occupy) {
  // Row bits follow the module words: a lane just taken clears its per-lane
  // bit and leaves the any-lane bit set only while the link still has
  // another free lane; a lane just freed sets both.
  const auto assign_bit = [](std::uint64_t* row, std::size_t j, bool value) {
    const std::uint64_t bit = 1ull << (j & 63);
    row[j >> 6] = value ? row[j >> 6] | bit : row[j >> 6] & ~bit;
  };
  for_each_transit(view, [&](Stage stage, std::size_t module,
                               const ModulePortLane& in,
                               const std::vector<ModulePortLane>& outs) {
    std::vector<SwitchModule>& modules =
        stage == Stage::kInput ? inputs_ : stage == Stage::kMiddle ? middles_ : outputs_;
    occupy ? modules[module].occupy(in, outs) : modules[module].vacate(in, outs);
    if (stage == Stage::kMiddle) {  // link in.port -> module, lane in.lane
      dirty_middles_[module >> 6] |= 1ull << (module & 63);
      busy_middle_lanes_ = occupy ? busy_middle_lanes_ + outs.size()
                                  : busy_middle_lanes_ - outs.size();
      const SwitchModule& input = inputs_[in.port];
      assign_bit(cand_lane_.data() + (in.port * params_.k + in.lane) * row_words_,
                 module, !occupy);
      assign_bit(cand_any_.data() + in.port * row_words_, module,
                 !occupy || input.out_word(module) != input.out_lane_mask());
    } else if (stage == Stage::kOutput) {  // link in.port -> module
      const SwitchModule& middle = middles_[in.port];
      assign_bit(serve_lane_.data() + (module * params_.k + in.lane) * row_words_,
                 in.port, !occupy);
      assign_bit(serve_any_.data() + module * row_words_, in.port,
                 !occupy || middle.out_word(module) != middle.out_lane_mask());
    }
  });
}

ConnectionId ThreeStageNetwork::commit_slot(std::uint32_t slot,
                                            std::uint32_t prev_slot) {
  apply_record(view_of(slot), /*occupy=*/true);
  // Ids are nonzero because the generation is >= 1 after the bump.
  ConnectionSlot& entry = connection_slots_[slot];
  ++entry.generation;
  link_after(slot, prev_slot);
  ++active_count_;
  return make_id(slot, entry.generation);
}

void ThreeStageNetwork::release(ConnectionId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::out_of_range("ThreeStageNetwork::release: unknown connection id");
  }
  apply_record(view_of(slot), /*occupy=*/false);
  ConnectionSlot& entry = connection_slots_[slot];

  // The block heads its size class's free list.
  const std::size_t c = block_class(entry.length);
  records_[entry.offset] = free_blocks_[c];
  free_blocks_[c] = entry.offset;
  entry.length = 0;
  unlink(slot);
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
  if (slot == kNoSlot) return nullptr;
  const RecordView view = view_of(slot);
  found_ = {view.request(), view.route()};
  return &found_;
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

  // Vacate every record's transits from copies of the modules: a lane that
  // no module holds, or that two records hold, makes vacate() throw, and a
  // lane still held afterwards belongs to no record. The output endpoints'
  // words are rebuilt from the records' request outputs.
  std::vector<SwitchModule> copies[] = {inputs_, middles_, outputs_};
  std::vector<std::uint64_t> endpoints(port_count(), 0);
  std::size_t walked = 0;
  for (std::uint32_t slot = head_; slot != kNoSlot;
       slot = connection_slots_[slot].next) {
    ++walked;
    const RecordView view = view_of(slot);
    for (const WavelengthEndpoint out : view.outputs()) {
      endpoints[out.port] |= 1ull << out.lane;
    }
    for_each_transit(view, [&](Stage stage, std::size_t module,
                                 const ModulePortLane& in,
                                 const std::vector<ModulePortLane>& outs) {
      copies[static_cast<int>(stage)][module].vacate(in, outs);
    });
  }
  if (walked != active_count_) {
    throw std::logic_error(
        "ThreeStageNetwork: connection list length diverged from active count");
  }
  for (const auto& stage : copies) {
    for (const SwitchModule& module : stage) {
      bool idle = module.busy_out_lanes() == 0;
      for (std::size_t port = 0; port < module.in_ports(); ++port) {
        idle = idle && module.in_word(port) == 0;
      }
      if (!idle) {
        throw std::logic_error("ThreeStageNetwork: " + module.name() +
                               " holds lanes no connection record names");
      }
    }
  }
  for (std::size_t port = 0; port < port_count(); ++port) {
    if (endpoints[port] != output_lanes_busy(port)) {
      throw std::logic_error(
          "ThreeStageNetwork: endpoint words diverged from connection table");
    }
  }
  std::size_t middle_busy = 0;
  for (const SwitchModule& middle : middles_) middle_busy += middle.busy_out_lanes();
  if (middle_busy != busy_middle_lanes_) {
    throw std::logic_error(
        "ThreeStageNetwork: busy-lane total diverged from the middle modules");
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
}

}  // namespace wdm
