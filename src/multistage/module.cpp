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

void SwitchModule::occupy(const ModulePortLane& in,
                          const std::vector<ModulePortLane>& outs) {
  if (const auto reason = check_transit(in, outs)) {
    throw std::logic_error("SwitchModule[" + name_ + "]::occupy: " + *reason);
  }
  in_used_[in.port] |= 1ull << in.lane;
  for (const auto& out : outs) out_used_[out.port] |= 1ull << out.lane;
  busy_out_lanes_ += outs.size();  // check_transit rejected busy lanes
}

void SwitchModule::vacate(const ModulePortLane& in,
                          const std::vector<ModulePortLane>& outs) {
  // Clear lane by lane; a lane that is out of range or already free (named
  // twice, say) restores the lanes cleared so far and throws.
  const auto held = [this](const std::vector<std::uint64_t>& words,
                           const ModulePortLane& at) {
    return at.port < words.size() && at.lane < lanes_ && (words[at.port] >> at.lane & 1u);
  };
  const bool in_held = held(in_used_, in);
  std::size_t cleared = 0;
  while (in_held && cleared < outs.size() && held(out_used_, outs[cleared])) {
    out_used_[outs[cleared].port] &= ~(1ull << outs[cleared].lane);
    ++cleared;
  }
  if (!in_held || cleared != outs.size()) {
    while (cleared-- > 0) out_used_[outs[cleared].port] |= 1ull << outs[cleared].lane;
    throw std::logic_error("SwitchModule[" + name_ + "]::vacate: transit from " +
                           in.to_string() + " names a lane it does not hold");
  }
  in_used_[in.port] &= ~(1ull << in.lane);
  busy_out_lanes_ -= outs.size();
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
