#include "sim/load_analysis.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace wdm {

std::vector<LoadPoint> blocking_vs_load(const ClosParams& params,
                                        Construction construction,
                                        MulticastModel network_model,
                                        const RoutingPolicy& policy,
                                        const std::vector<double>& loads,
                                        const SimConfig& base_config,
                                        std::size_t trials) {
  std::vector<LoadPoint> points(loads.size());
  std::mutex merge_mutex;
  default_pool().parallel_for(loads.size() * trials, [&](std::size_t task) {
    const std::size_t point = task / trials;
    MultistageSwitch sw(params, construction, network_model, policy);
    SimConfig config = base_config;
    config.arrival_fraction = loads[point];
    config.seed = Rng(base_config.seed).split(task).next_u64();
    const SimStats stats = run_dynamic_sim(sw, config);
    std::lock_guard lock(merge_mutex);
    points[point].stats += stats;
  });
  const std::size_t capacity = params.port_count() * params.k;
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].load = loads[i];
    points[i].mean_utilization = points[i].stats.mean_utilization(capacity);
  }
  return points;
}

ProvisioningResult provision_middle_stage(std::size_t n, std::size_t r,
                                          std::size_t k, Construction construction,
                                          MulticastModel network_model,
                                          const SimConfig& base_config,
                                          double target_blocking,
                                          std::size_t trials) {
  const NonblockingBound bound = theorem_min_m(n, r, k, construction);
  ProvisioningResult result;
  result.theorem_m = bound.m;

  const auto cost_at = [&](std::size_t m) {
    return multistage_cost(ClosParams{n, r, std::max(m, n), k}, construction,
                           network_model)
        .crosspoints;
  };

  for (std::size_t m = n; m <= bound.m; ++m) {
    const ClosParams params{n, r, m, k};
    SimStats total;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      MultistageSwitch sw(params, construction, network_model,
                          RoutingPolicy{bound.x});
      SimConfig config = base_config;
      config.seed = Rng(base_config.seed ^ m).split(trial).next_u64();
      total += run_dynamic_sim(sw, config);
    }
    if (total.blocking_probability() <= target_blocking) {
      result.chosen_m = m;
      result.observed_blocking = total.blocking_probability();
      result.blocking_ci95_upper = total.blocking_ci95().second;
      result.crosspoint_ratio = static_cast<double>(cost_at(m)) /
                                static_cast<double>(cost_at(bound.m));
      return result;
    }
  }
  // Unreachable in practice: the bound itself observes zero blocking.
  result.chosen_m = bound.m;
  result.crosspoint_ratio = 1.0;
  return result;
}

}  // namespace wdm
