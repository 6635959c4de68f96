// Component-failure state for a three-stage WDM multicast network.
//
// A production fabric degrades piece by piece: an SOA-gate middle module
// loses power, an inter-stage fiber is cut, a single wavelength of a link
// fails (dirty connector, drifted laser), a shared converter slot burns out.
// FaultModel records exactly that, at the granularity the paper's cost model
// (§2.3) and limited-spread routing (§3.2) already expose:
//
//   * middle modules            -- the m r x r SOA crossbars of Fig. 8,
//   * inter-stage links         -- the one fiber between each stage-adjacent
//                                  module pair (all k lanes at once),
//   * per-lane link wavelengths -- one lane of one link,
//   * converter-pool slots      -- slots of a shared converter bank
//                                  (ConverterPoolSwitch integration).
//
// The model is pure state: fail()/repair() toggle components, and the
// usable-lane queries combine them. A link's failed lanes are one k-bit
// word, like a module port's occupancy word, so link12_usable_lanes /
// link23_usable_lanes answer "which lanes of this link can carry a signal"
// with one word: the healthy lanes, or 0 when the link or its middle module
// is down. The network's middle-stage rows, the router's lane picks and the
// repack planner AND it with the link's free lanes; link12_usable /
// link23_usable read one bit of it. Attach a FaultModel to a
// ThreeStageNetwork and its middle-stage rows treat failed lanes as busy:
// every fail()/repair() that changes state bumps epoch(), and the network
// re-derives its rows when the epoch it last saw has moved, so a model may
// change after it is attached without telling the network. Detached (or
// attached but empty), routing decisions are bit-identical to a fault-free
// build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "multistage/clos_params.h"
#include "optics/wavelength.h"

namespace wdm {

enum class FaultComponentKind : std::uint8_t {
  kMiddleModule,   // a = middle module index
  kLink12,         // a = input module, b = middle module (whole k-lane fiber)
  kLink23,         // a = middle module, b = output module
  kLink12Lane,     // a, b as kLink12, plus the failed lane
  kLink23Lane,     // a, b as kLink23, plus the failed lane
  kConverterSlot,  // a = slot index in a shared converter bank
};

[[nodiscard]] const char* fault_component_kind_name(FaultComponentKind kind);

/// One failable piece of hardware, addressed by kind + indices.
struct FaultComponent {
  FaultComponentKind kind = FaultComponentKind::kMiddleModule;
  std::size_t a = 0;
  std::size_t b = 0;
  Wavelength lane = 0;

  friend auto operator<=>(const FaultComponent&, const FaultComponent&) = default;
  [[nodiscard]] std::string to_string() const;
};

class FaultModel {
 public:
  /// Component space of a three-stage geometry, plus `converter_slots`
  /// failable slots of a shared converter bank (0 = no bank modeled).
  /// Throws std::invalid_argument when k exceeds 64: a link's lanes are one
  /// word.
  explicit FaultModel(const ClosParams& params, std::size_t converter_slots = 0);
  /// Deleted: a network tracks an attached model by its epoch, and another
  /// model's state assigned over it could arrive with an epoch the network
  /// already saw.
  FaultModel& operator=(const FaultModel&) = delete;

  [[nodiscard]] const ClosParams& params() const { return params_; }
  [[nodiscard]] std::size_t converter_slot_count() const {
    return converter_slot_failed_.size();
  }

  /// Mark a component failed / repaired. Idempotent (failing a failed
  /// component is a no-op); throws std::out_of_range on bad indices.
  void fail(const FaultComponent& component);
  void repair(const FaultComponent& component);
  [[nodiscard]] bool failed(const FaultComponent& component) const;

  // -- convenience single-component accessors -------------------------------
  void fail_middle(std::size_t j) { fail({FaultComponentKind::kMiddleModule, j, 0, 0}); }
  void repair_middle(std::size_t j) { repair({FaultComponentKind::kMiddleModule, j, 0, 0}); }
  [[nodiscard]] bool middle_failed(std::size_t j) const;

  // -- aggregate queries ----------------------------------------------------
  /// Any failure currently active? When false every lane is usable and the
  /// network routes exactly as if no fault model were attached.
  [[nodiscard]] bool any() const { return active_faults_ != 0; }
  /// Bumped by every fail()/repair() that changes state (never by a no-op).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t active_faults() const { return active_faults_; }
  [[nodiscard]] std::size_t failed_middle_count() const { return failed_middles_; }
  [[nodiscard]] std::size_t failed_converter_slots() const {
    return failed_converter_slot_count_;
  }
  /// Indices of currently-failed middle modules, ascending.
  [[nodiscard]] std::vector<std::size_t> failed_middles() const;

  // -- usability queries (what routing consumes) ----------------------------
  /// Lanes of the input-module-i -> middle-module-j link that can carry a
  /// signal (bit = lane): 0 if the middle module or the whole link failed,
  /// else the k lanes minus the failed ones.
  [[nodiscard]] std::uint64_t link12_usable_lanes(std::size_t i, std::size_t j) const {
    const std::size_t link = i * params_.m + j;
    return (middle_failed_[j] | link12_failed_[link]) != 0
               ? 0
               : lane_mask_ & ~link12_lanes_failed_[link];
  }
  /// Same for the middle-module-j -> output-module-p link.
  [[nodiscard]] std::uint64_t link23_usable_lanes(std::size_t j, std::size_t p) const {
    const std::size_t link = j * params_.r + p;
    return (middle_failed_[j] | link23_failed_[link]) != 0
               ? 0
               : lane_mask_ & ~link23_lanes_failed_[link];
  }
  /// One lane of link12_usable_lanes / link23_usable_lanes.
  [[nodiscard]] bool link12_usable(std::size_t i, std::size_t j, Wavelength lane) const {
    return (link12_usable_lanes(i, j) >> lane & 1) != 0;
  }
  [[nodiscard]] bool link23_usable(std::size_t j, std::size_t p, Wavelength lane) const {
    return (link23_usable_lanes(j, p) >> lane & 1) != 0;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  /// The word holding `component`'s failed bit, and that bit: bit 0 of a
  /// whole component's word, bit `lane` of a link's lane word. Throws
  /// std::out_of_range on bad indices.
  [[nodiscard]] std::pair<std::uint64_t*, std::uint64_t> locate(
      const FaultComponent& component);

  ClosParams params_;
  std::uint64_t lane_mask_ = 0;  // low k bits
  // One word per component, nonzero = failed.
  std::vector<std::uint64_t> middle_failed_;          // [m]
  std::vector<std::uint64_t> link12_failed_;          // [r*m], index i*m + j
  std::vector<std::uint64_t> link23_failed_;          // [m*r], index j*r + p
  std::vector<std::uint64_t> converter_slot_failed_;  // [converter_slots]
  // One word per link, bit = failed lane; indexed like link12/23_failed_.
  std::vector<std::uint64_t> link12_lanes_failed_;
  std::vector<std::uint64_t> link23_lanes_failed_;
  std::size_t active_faults_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t failed_middles_ = 0;
  std::size_t failed_converter_slot_count_ = 0;
};

}  // namespace wdm
