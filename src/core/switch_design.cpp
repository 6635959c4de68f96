#include "core/switch_design.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace wdm {

std::string DesignOption::to_string() const {
  std::ostringstream os;
  os << name << " [" << model_name(model) << "]: crosspoints=" << crosspoints
     << " converters=" << converters;
  if (is_multistage) {
    os << ' ' << clos.to_string() << " x=" << routing_spread;
  }
  return os.str();
}

std::pair<std::size_t, std::size_t> balanced_factorization(std::size_t N) {
  if (N < 4) {
    throw std::invalid_argument("balanced_factorization: N >= 4 required");
  }
  for (std::size_t n = static_cast<std::size_t>(std::sqrt(static_cast<double>(N)));
       n >= 2; --n) {
    if (N % n == 0) return {n, N / n};
  }
  throw std::invalid_argument("balanced_factorization: N is prime");
}

std::vector<DesignOption> enumerate_designs(std::size_t N, std::size_t k,
                                            MulticastModel model) {
  if (N == 0 || k == 0) throw std::invalid_argument("enumerate_designs: N, k >= 1");
  std::vector<DesignOption> options;
  const double capacity =
      log10_multicast_capacity(N, k, model, AssignmentKind::kAny);

  {
    DesignOption crossbar;
    crossbar.name = "crossbar";
    crossbar.model = model;
    const CrossbarCost cost = crossbar_cost(N, k, model);
    crossbar.crosspoints = cost.crosspoints;
    crossbar.converters = cost.converters;
    crossbar.log10_capacity_any = capacity;
    options.push_back(std::move(crossbar));
  }

  std::pair<std::size_t, std::size_t> factors;
  try {
    factors = balanced_factorization(N);
  } catch (const std::invalid_argument&) {
    return options;  // no multistage decomposition for tiny/prime N
  }
  const auto [n, r] = factors;

  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    DesignOption option;
    option.name = std::string("3-stage ") + construction_name(construction);
    option.model = model;
    option.is_multistage = true;
    option.construction = construction;
    option.clos = nonblocking_params(n, r, k, construction);
    const NonblockingBound bound = theorem_min_m(n, r, k, construction);
    option.routing_spread = bound.x;
    const MultistageCost cost = multistage_cost(option.clos, construction, model);
    option.crosspoints = cost.crosspoints;
    option.converters = cost.converters;
    option.log10_capacity_any = capacity;
    options.push_back(std::move(option));
  }
  return options;
}

DesignOption recommend_design(std::size_t N, std::size_t k, MulticastModel model) {
  std::vector<DesignOption> options = enumerate_designs(N, k, model);
  return *std::min_element(options.begin(), options.end(),
                           [](const DesignOption& a, const DesignOption& b) {
                             if (a.crosspoints != b.crosspoints) {
                               return a.crosspoints < b.crosspoints;
                             }
                             return a.converters < b.converters;
                           });
}

MultistageSwitch build_switch(const DesignOption& option, MulticastModel model) {
  if (!option.is_multistage) {
    throw std::invalid_argument(
        "build_switch: option is a crossbar; construct a FabricSwitch instead");
  }
  return MultistageSwitch(option.clos, option.construction, model,
                          RoutingPolicy{option.routing_spread});
}

}  // namespace wdm
