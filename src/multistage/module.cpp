#include "multistage/module.h"

#include <bit>
#include <stdexcept>

namespace wdm {

std::string ModulePortLane::to_string() const {
  return "(port " + std::to_string(port) + ", " + wavelength_name(lane) + ")";
}

SwitchModule::SwitchModule(std::size_t in_ports, std::size_t out_ports,
                           std::size_t lanes, MulticastModel model, std::string name)
    : lanes_(lanes), model_(model), name_(std::move(name)) {
  if (in_ports == 0 || out_ports == 0 || lanes == 0) {
    throw std::invalid_argument("SwitchModule: ports and lanes must be >= 1");
  }
  if (lanes > kMaxLanes) {
    throw std::invalid_argument(
        "SwitchModule: lanes must be <= 64 (per-port occupancy is one "
        "64-bit word; requested " + std::to_string(lanes) + ")");
  }
  lane_mask_ = lanes == 64 ? ~0ull : (1ull << lanes) - 1;
  in_used_.assign(in_ports, 0);
  out_used_.assign(out_ports, 0);
}

std::optional<std::string> SwitchModule::check_transit(
    const ModulePortLane& in, const std::vector<ModulePortLane>& outs) const {
  if (outs.empty()) return "transit has no outputs";
  if (in.port >= in_ports() || in.lane >= lanes_) {
    return "inbound " + in.to_string() + " out of range";
  }
  if (in_used_[in.port] >> in.lane & 1u) {
    return "inbound " + in.to_string() + " already carries a connection";
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const ModulePortLane& out = outs[i];
    if (out.port >= out_ports() || out.lane >= lanes_) {
      return "outbound " + out.to_string() + " out of range";
    }
    // Duplicate-port scan instead of a std::set: outs is small (one entry
    // per distinct output port) and this keeps the check allocation-free.
    for (std::size_t j = 0; j < i; ++j) {
      if (outs[j].port == out.port) {
        return "two outbound lanes on port " + std::to_string(out.port) +
               " in one transit";
      }
    }
    if (out_used_[out.port] >> out.lane & 1u) {
      return "outbound " + out.to_string() + " already carries a connection";
    }
  }
  switch (model_) {
    case MulticastModel::kMSW:
      for (const auto& out : outs) {
        if (out.lane != in.lane) {
          return "MSW module cannot convert " + wavelength_name(in.lane) +
                 " to " + wavelength_name(out.lane);
        }
      }
      break;
    case MulticastModel::kMSDW: {
      const Wavelength lane = outs.front().lane;
      for (const auto& out : outs) {
        if (out.lane != lane) {
          return "MSDW module requires a single outbound lane per transit";
        }
      }
      break;
    }
    case MulticastModel::kMAW:
      break;
  }
  return std::nullopt;
}

SwitchModule::TransitId SwitchModule::add_transit(
    const ModulePortLane& in, const std::vector<ModulePortLane>& outs) {
  if (const auto reason = check_transit(in, outs)) {
    throw std::logic_error("SwitchModule[" + name_ + "]::add_transit: " + *reason);
  }
  in_used_[in.port] |= 1ull << in.lane;
  for (const auto& out : outs) out_used_[out.port] |= 1ull << out.lane;
  busy_out_lanes_ += outs.size();  // check_transit rejected busy lanes

  std::uint32_t slot;
  if (!free_transit_slots_.empty()) {
    slot = free_transit_slots_.back();
    free_transit_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(transit_slots_.size());
    transit_slots_.emplace_back();
  }
  TransitSlot& entry = transit_slots_[slot];
  entry.in = in;
  entry.outs = outs;  // copy-assign: a reused slot keeps its capacity
  ++entry.generation;
  entry.active = true;
  ++active_transits_;
  return make_id(slot, entry.generation);
}

void SwitchModule::remove_transit(TransitId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= transit_slots_.size() || !transit_slots_[slot].active ||
      transit_slots_[slot].generation != generation) {
    throw std::out_of_range("SwitchModule[" + name_ + "]: unknown transit id");
  }
  TransitSlot& entry = transit_slots_[slot];
  in_used_[entry.in.port] &= ~(1ull << entry.in.lane);
  for (const auto& out : entry.outs) out_used_[out.port] &= ~(1ull << out.lane);
  busy_out_lanes_ -= entry.outs.size();
  entry.active = false;
  --active_transits_;
  free_transit_slots_.push_back(slot);
}

std::size_t SwitchModule::free_out_lanes(std::size_t port) const {
  if (port >= out_used_.size()) {
    throw std::out_of_range("SwitchModule[" + name_ + "]: port out of range");
  }
  return static_cast<std::size_t>(
      std::popcount(~out_used_[port] & lane_mask_));
}

std::size_t SwitchModule::free_in_lanes(std::size_t port) const {
  if (port >= in_used_.size()) {
    throw std::out_of_range("SwitchModule[" + name_ + "]: port out of range");
  }
  return static_cast<std::size_t>(std::popcount(~in_used_[port] & lane_mask_));
}

std::optional<Wavelength> SwitchModule::lowest_free_out_lane(std::size_t port) const {
  if (port >= out_used_.size()) {
    throw std::out_of_range("SwitchModule[" + name_ + "]: port out of range");
  }
  const std::uint64_t free = ~out_used_[port] & lane_mask_;
  if (free == 0) return std::nullopt;
  return static_cast<Wavelength>(std::countr_zero(free));
}

void SwitchModule::self_check() const {
  std::vector<std::uint64_t> in_expected(in_ports(), 0);
  std::vector<std::uint64_t> out_expected(out_ports(), 0);
  std::size_t active = 0;
  for (const TransitSlot& entry : transit_slots_) {
    if (!entry.active) continue;
    ++active;
    if (in_expected[entry.in.port] >> entry.in.lane & 1u) {
      throw std::logic_error("SwitchModule[" + name_ +
                             "]: two transits share an inbound wavelength");
    }
    in_expected[entry.in.port] |= 1ull << entry.in.lane;
    for (const auto& out : entry.outs) {
      if (out_expected[out.port] >> out.lane & 1u) {
        throw std::logic_error("SwitchModule[" + name_ +
                               "]: two transits share an outbound wavelength");
      }
      out_expected[out.port] |= 1ull << out.lane;
    }
  }
  if (active != active_transits_) {
    throw std::logic_error("SwitchModule[" + name_ +
                           "]: active transit count diverged from slot table");
  }
  if (in_expected != in_used_ || out_expected != out_used_) {
    throw std::logic_error("SwitchModule[" + name_ +
                           "]: occupancy bitmap diverged from transit list");
  }
  std::size_t busy = 0;
  for (const std::uint64_t word : out_used_) {
    busy += static_cast<std::size_t>(std::popcount(word));
  }
  if (busy != busy_out_lanes_) {
    throw std::logic_error("SwitchModule[" + name_ +
                           "]: busy output-lane count diverged from bitmap");
  }
}

}  // namespace wdm
