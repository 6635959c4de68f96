#include "multistage/nonblocking.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "capacity/cost.h"

namespace wdm {

namespace {

// Guard against 0.9999999 artifacts when converting the real-valued bound to
// the smallest sufficient integer m (m must satisfy m > bound strictly).
std::size_t smallest_integer_above(double bound) {
  const double floored = std::floor(bound);
  if (bound - floored < 1e-9 && floored >= 0.0) {
    // bound is (numerically) an integer B: smallest integer > B is B + 1.
    return static_cast<std::size_t>(floored) + 1;
  }
  return static_cast<std::size_t>(std::ceil(bound));
}

// Crosspoints of one a x b module with k lanes under `model` (§2.3.1 applied
// to a rectangular module).
std::uint64_t module_crosspoints(std::size_t a, std::size_t b, std::size_t k,
                                 MulticastModel model) {
  const std::uint64_t base = static_cast<std::uint64_t>(a) * b * k;
  return model == MulticastModel::kMSW ? base : base * k;
}

// Converters of one a x b module with k lanes (§2.3.2 placements):
// MSW none; MSDW one per input wavelength (a*k) -- or, with the improved
// §3.4 internal placement, one per output wavelength (b*k); MAW one per
// output wavelength (b*k).
std::uint64_t module_converters(std::size_t a, std::size_t b, std::size_t k,
                                MulticastModel model,
                                ConverterPlacement placement) {
  switch (model) {
    case MulticastModel::kMSW:
      return 0;
    case MulticastModel::kMSDW:
      return placement == ConverterPlacement::kModuleInputs
                 ? static_cast<std::uint64_t>(a) * k
                 : static_cast<std::uint64_t>(b) * k;
    case MulticastModel::kMAW:
      return static_cast<std::uint64_t>(b) * k;
  }
  return 0;
}

}  // namespace

std::string NonblockingBound::to_string() const {
  std::ostringstream os;
  os << "m=" << m << " (x=" << x << ", bound=" << raw_bound << ")";
  return os.str();
}

double theorem1_rhs(std::size_t n, std::size_t r, std::size_t x) {
  if (x == 0) throw std::invalid_argument("theorem1_rhs: x >= 1 required");
  return static_cast<double>(n - 1) *
         (static_cast<double>(x) +
          std::pow(static_cast<double>(r), 1.0 / static_cast<double>(x)));
}

double theorem2_rhs(std::size_t n, std::size_t r, std::size_t k, std::size_t x) {
  if (x == 0 || k == 0) throw std::invalid_argument("theorem2_rhs: x, k >= 1");
  const auto unavailable = static_cast<double>((n * k - 1) * x / k);  // floor
  return unavailable +
         static_cast<double>(n - 1) *
             std::pow(static_cast<double>(r), 1.0 / static_cast<double>(x));
}

NonblockingBound theorem1_min_m(std::size_t n, std::size_t r) {
  if (n == 0 || r == 0) throw std::invalid_argument("theorem1_min_m: n, r >= 1");
  if (n == 1) {
    // A single input wavelength per lane per module: any m >= 1 suffices
    // (the bound's (n-1) factor vanishes).
    return {1, 1, 0.0};
  }
  NonblockingBound best{};
  const std::size_t x_max = std::min(n - 1, r);
  for (std::size_t x = 1; x <= x_max; ++x) {
    const double rhs = theorem1_rhs(n, r, x);
    if (best.m == 0 || rhs < best.raw_bound) {
      best = {smallest_integer_above(rhs), x, rhs};
    }
  }
  return best;
}

NonblockingBound theorem2_min_m(std::size_t n, std::size_t r, std::size_t k) {
  if (n == 0 || r == 0 || k == 0) {
    throw std::invalid_argument("theorem2_min_m: n, r, k >= 1");
  }
  if (n == 1 && k == 1) return {1, 1, 0.0};
  // x still ranges over [1, min(n-1, r)] as in Theorem 2; for n == 1 the
  // only spread that makes sense is x = 1 (the (n-1) term vanishes but the
  // floor((nk-1)x/k) term does not).
  NonblockingBound best{};
  const std::size_t x_max = std::max<std::size_t>(1, std::min(n - 1, r));
  for (std::size_t x = 1; x <= x_max; ++x) {
    const double rhs = theorem2_rhs(n, r, k, x);
    if (best.m == 0 || rhs < best.raw_bound) {
      best = {smallest_integer_above(rhs), x, rhs};
    }
  }
  return best;
}

NonblockingBound theorem_min_m(std::size_t n, std::size_t r, std::size_t k,
                               Construction construction) {
  return construction == Construction::kMswDominant ? theorem1_min_m(n, r)
                                                    : theorem2_min_m(n, r, k);
}

std::size_t closed_form_x(std::size_t r) {
  if (r < 3) return 1;
  const double lr = std::log(static_cast<double>(r));
  const double llr = std::log(lr);
  if (llr <= 0.0) return 1;
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(2.0 * lr / llr)));
}

double closed_form_m(std::size_t n, std::size_t r) {
  if (n <= 1) return 1.0;
  if (r < 3) return theorem1_rhs(n, r, 1);
  const double lr = std::log(static_cast<double>(r));
  const double llr = std::log(lr);
  if (llr <= 0.0) return theorem1_rhs(n, r, 1);
  return 3.0 * static_cast<double>(n - 1) * lr / llr;
}

std::string MultistageCost::to_string() const {
  std::ostringstream os;
  os << "crosspoints=" << crosspoints << " converters=" << converters;
  return os.str();
}

MultistageCost multistage_cost(const ClosParams& params, Construction construction,
                               MulticastModel network_model,
                               ConverterPlacement placement) {
  params.validate();
  const MulticastModel inner = construction == Construction::kMswDominant
                                   ? MulticastModel::kMSW
                                   : MulticastModel::kMAW;
  const auto [n, r, m, k] = params;
  MultistageCost cost;
  // r input modules (n x m) and m middle modules (r x r) under the dominant
  // model; r output modules (m x n) under the network model.
  cost.crosspoints = r * module_crosspoints(n, m, k, inner) +
                     m * module_crosspoints(r, r, k, inner) +
                     r * module_crosspoints(m, n, k, network_model);
  cost.converters = r * module_converters(n, m, k, inner, placement) +
                    m * module_converters(r, r, k, inner, placement) +
                    r * module_converters(m, n, k, network_model, placement);
  return cost;
}

MultistageCost balanced_multistage_cost(std::size_t N, std::size_t k,
                                        Construction construction,
                                        MulticastModel network_model) {
  const auto root =
      static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(N))));
  if (root * root != N) {
    throw std::invalid_argument("balanced_multistage_cost: N must be a perfect square");
  }
  const NonblockingBound bound = theorem_min_m(root, root, k, construction);
  const ClosParams params{root, root, std::max(bound.m, root), k};
  return multistage_cost(params, construction, network_model);
}

std::size_t multistage_crossover_N(std::size_t k, MulticastModel network_model,
                                   std::size_t max_N) {
  for (std::size_t root = 2; root * root <= max_N; ++root) {
    const std::size_t N = root * root;
    const MultistageCost ms = balanced_multistage_cost(
        N, k, Construction::kMswDominant, network_model);
    const CrossbarCost cb = crossbar_cost(N, k, network_model);
    if (ms.crosspoints < cb.crosspoints) return N;
  }
  return 0;
}

}  // namespace wdm
