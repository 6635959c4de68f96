// Nonblocking conditions and multistage cost (paper §3.2-§3.4).
//
// Theorem 1 (MSW-dominant): the network is nonblocking under the
// limited-spread routing strategy (each connection uses at most x middle
// modules) if
//     m > min_{1 <= x <= min(n-1, r)} (n-1) * (x + r^(1/x)).
// Theorem 2 (MAW-dominant):
//     m > min_{1 <= x <= min(n-1, r)} ( floor((nk-1)*x / k) + (n-1) * r^(1/x) ).
// Both reduce to the Yang-Masson electronic bound at k = 1. §3.4 notes that
// choosing x = 2*log r / log log r yields m >= 3(n-1) log r / log log r.
//
// Cost: a module of size a x b contributes k*a*b crosspoints under MSW and
// k^2*a*b under MSDW/MAW; converters are k per output of an MAW module and
// k per input of an MSDW module (§2.3.2 placements applied per module).
#pragma once

#include <cstdint>
#include <string>

#include "capacity/models.h"
#include "multistage/clos_params.h"

namespace wdm {

struct NonblockingBound {
  std::size_t m = 0;        // smallest sufficient number of middle modules
  std::size_t x = 1;        // the spread that attains it
  double raw_bound = 0.0;   // value of the minimized right-hand side

  [[nodiscard]] std::string to_string() const;
};

/// Theorem 1: smallest m guaranteeing nonblocking for the MSW-dominant
/// construction, with the optimizing spread x.
[[nodiscard]] NonblockingBound theorem1_min_m(std::size_t n, std::size_t r);

/// Theorem 2: same for the MAW-dominant construction (depends on k).
[[nodiscard]] NonblockingBound theorem2_min_m(std::size_t n, std::size_t r,
                                              std::size_t k);

/// The bound of `construction`'s theorem: Theorem 1 for MSW-dominant,
/// Theorem 2 for MAW-dominant networks.
[[nodiscard]] NonblockingBound theorem_min_m(std::size_t n, std::size_t r, std::size_t k,
                                             Construction construction);

/// The right-hand side of Theorem 1 / 2 for one specific x (before
/// minimizing). Exposed for tests and for the ablation bench.
[[nodiscard]] double theorem1_rhs(std::size_t n, std::size_t r, std::size_t x);
[[nodiscard]] double theorem2_rhs(std::size_t n, std::size_t r, std::size_t k,
                                  std::size_t x);

/// §3.4 closed forms: x = 2 log r / log log r (rounded to >= 1) and the
/// resulting sufficient m >= 3 (n-1) log r / log log r.
[[nodiscard]] std::size_t closed_form_x(std::size_t r);
[[nodiscard]] double closed_form_m(std::size_t n, std::size_t r);

struct MultistageCost {
  std::uint64_t crosspoints = 0;
  std::uint64_t converters = 0;

  friend bool operator==(const MultistageCost&, const MultistageCost&) = default;
  [[nodiscard]] std::string to_string() const;
};

/// Where an MSDW module keeps its wavelength converters (§3.4's remark):
///   kModuleInputs   - the naive Fig. 3a placement, one per module input
///                     wavelength. For an m x n output module that is m*k
///                     converters -- more than MAW needs.
///   kModuleInternal - the improved placement the paper sketches: convert
///                     between the module's gate matrix and its combiners,
///                     one per *output* wavelength, n*k per module. This
///                     matches the MAW converter count exactly (the paper's
///                     point: even optimally placed, MSDW saves nothing).
/// MSW and MAW modules are unaffected by this knob.
enum class ConverterPlacement { kModuleInputs, kModuleInternal };

/// Exact crosspoint/converter count of a three-stage network with the given
/// geometry, construction (stages 1-2 model) and network model (stage 3).
[[nodiscard]] MultistageCost multistage_cost(
    const ClosParams& params, Construction construction,
    MulticastModel network_model,
    ConverterPlacement placement = ConverterPlacement::kModuleInputs);

/// Convenience: balanced n = r = sqrt(N) geometry with m from Theorem 1/2,
/// i.e. the design point §3.4 evaluates. Throws if N is not a perfect square.
[[nodiscard]] MultistageCost balanced_multistage_cost(std::size_t N, std::size_t k,
                                                      Construction construction,
                                                      MulticastModel network_model);

/// Smallest perfect-square N where the balanced MSW-dominant three-stage
/// network needs fewer crosspoints than the crossbar under the same model
/// (the crossbar-vs-multistage crossover the §3.4 comparison implies).
/// Returns 0 if none found up to `max_N`.
[[nodiscard]] std::size_t multistage_crossover_N(std::size_t k,
                                                 MulticastModel network_model,
                                                 std::size_t max_N = 1u << 20);

}  // namespace wdm
