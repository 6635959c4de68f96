// A single switching module inside a multistage network (§3.1).
//
// Modules are crossbar-based and internally nonblocking, so what a module
// contributes to network-level feasibility is (a) occupancy of its port
// wavelengths -- each (port, lane) on either side carries at most one
// connection -- and (b) its model's lane discipline for each *transit*
// (one connection passing through: one input wavelength fanning out to a set
// of output wavelengths, at most one per output port):
//   MSW : every endpoint lane equals the inbound lane (no conversion),
//   MSDW: all outbound lanes equal; inbound lane free (one converter),
//   MAW : all lanes free (converter per outbound wavelength).
// SwitchModule holds occupancy only: occupy() rejects an illegal transit
// eagerly and sets its lanes, vacate() clears lanes that are held. It keeps
// no record of which transit holds which lane -- ThreeStageNetwork stores
// each connection once, as a flat record, and walks it to undo the
// occupancy (network.h). Every link's occupancy is visible from both of its
// endpoint modules, so the network can cross-check them.
//
// Hot-path data layout: per-port lane occupancy is one uint64_t word per
// port (k <= 64, enforced at construction), so the router's feasibility
// queries are word ops -- free_out_lanes is a popcount, lowest_free_out_lane
// a countr_zero -- instead of vector<bool> scans, and occupy/vacate touch
// one word per lane and allocate nothing (see DESIGN.md "Hot-path data
// layout").
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "capacity/models.h"
#include "optics/wavelength.h"

namespace wdm {

struct ModulePortLane {
  std::size_t port = 0;
  Wavelength lane = 0;

  friend auto operator<=>(const ModulePortLane&, const ModulePortLane&) = default;
  [[nodiscard]] std::string to_string() const;
};

class SwitchModule {
 public:
  /// Lanes per fiber are capped so a port's occupancy fits one machine word.
  static constexpr std::size_t kMaxLanes = 64;

  SwitchModule(std::size_t in_ports, std::size_t out_ports, std::size_t lanes,
               MulticastModel model, std::string name = {});

  [[nodiscard]] std::size_t in_ports() const { return in_used_.size(); }
  [[nodiscard]] std::size_t out_ports() const { return out_used_.size(); }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] MulticastModel model() const { return model_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Would this transit be legal and available right now? nullopt = yes,
  /// otherwise a human-readable reason.
  [[nodiscard]] std::optional<std::string> check_transit(
      const ModulePortLane& in, const std::vector<ModulePortLane>& outs) const;

  /// Take a transit's lanes; throws std::logic_error with the check_transit
  /// reason (and changes nothing) when the transit is not legal right now.
  void occupy(const ModulePortLane& in, const std::vector<ModulePortLane>& outs);

  /// Free a transit's lanes; throws std::logic_error (and changes nothing)
  /// unless every lane named is in range and held, each named once.
  void vacate(const ModulePortLane& in, const std::vector<ModulePortLane>& outs);

  [[nodiscard]] bool in_lane_free(std::size_t port, Wavelength lane) const {
    check_slot(port, lane, in_used_.size());
    return (in_used_[port] >> lane & 1u) == 0;
  }
  [[nodiscard]] bool out_lane_free(std::size_t port, Wavelength lane) const {
    check_slot(port, lane, out_used_.size());
    return (out_used_[port] >> lane & 1u) == 0;
  }

  /// Raw occupancy word of an input port; see out_word.
  [[nodiscard]] std::uint64_t in_word(std::size_t port) const { return in_used_[port]; }
  /// Raw occupancy word of an output port (bit = lane, 1 = busy): one load
  /// yields all k lanes (the network's any-lane rows test it against
  /// out_lane_mask()). No range check -- callers index from the network
  /// geometry.
  [[nodiscard]] std::uint64_t out_word(std::size_t port) const {
    return out_used_[port];
  }
  /// Low `lanes()` bits set; out_word(p) == out_lane_mask() means port full.
  [[nodiscard]] std::uint64_t out_lane_mask() const { return lane_mask_; }
  /// Contiguous out_word(0 .. out_ports()-1).
  [[nodiscard]] const std::uint64_t* out_words() const { return out_used_.data(); }

  /// Number of free lanes on an output port (link capacity remaining).
  [[nodiscard]] std::size_t free_out_lanes(std::size_t port) const;
  [[nodiscard]] std::size_t free_in_lanes(std::size_t port) const;

  /// Lowest free lane of an output port, if any.
  [[nodiscard]] std::optional<Wavelength> lowest_free_out_lane(std::size_t port) const;

  /// Busy output lanes summed over every output port: the popcount of
  /// out_words(), kept incrementally by occupy/vacate so the engine's health
  /// publish reads it in O(1).
  [[nodiscard]] std::size_t busy_out_lanes() const { return busy_out_lanes_; }

  /// busy_out_lanes() must equal the out words' popcount; throws
  /// std::logic_error otherwise. Which transit holds which lane is the
  /// network's to check (ThreeStageNetwork::self_check vacates every
  /// connection record from copies of its modules).
  void self_check() const;

 private:
  void check_slot(std::size_t port, Wavelength lane, std::size_t ports) const {
    if (port >= ports || lane >= lanes_) {
      throw std::out_of_range("SwitchModule[" + name_ + "]: port/lane out of range");
    }
  }

  std::size_t lanes_;
  std::uint64_t lane_mask_;  // low `lanes_` bits set
  MulticastModel model_;
  std::string name_;
  // occupancy bitmasks: word per port, bit = lane
  std::vector<std::uint64_t> in_used_;
  std::vector<std::uint64_t> out_used_;
  std::size_t busy_out_lanes_ = 0;
};

}  // namespace wdm
