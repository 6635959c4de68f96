#include "sim/sweep.h"

#include <algorithm>
#include <mutex>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace_span.h"

namespace wdm {

std::vector<std::size_t> default_m_range(std::size_t n, std::size_t r, std::size_t k,
                                         Construction construction) {
  const NonblockingBound bound = theorem_min_m(n, r, k, construction);
  const std::size_t low = n;  // structural minimum (ClosParams requires m >= n)
  const std::size_t high = bound.m + std::max<std::size_t>(2, bound.m / 4);
  std::vector<std::size_t> values;
  for (std::size_t m = low; m <= high; ++m) values.push_back(m);
  return values;
}

std::vector<SweepPoint> sweep_middle_count(const SweepConfig& config) {
  const std::vector<std::size_t> m_values =
      config.m_values.empty()
          ? default_m_range(config.n, config.r, config.k, config.construction)
          : config.m_values;
  const NonblockingBound bound =
      theorem_min_m(config.n, config.r, config.k, config.construction);

  std::vector<SweepPoint> points(m_values.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].m = m_values[i];
    points[i].spread = config.spread != 0 ? config.spread : bound.x;
    points[i].theorem_bound_m = bound.m;
  }

  static Counter& point_count = metrics().counter("sweep.points");
  static Counter& trial_count = metrics().counter("sweep.trials");
  static TimerStat& trial_time = metrics().timer("sweep.trial");
  point_count.add(points.size());

  std::mutex merge_mutex;
  const std::size_t total_tasks = points.size() * config.trials;
  default_pool().parallel_for(total_tasks, [&](std::size_t task) {
    trial_count.add();
    ScopedTimer timer(trial_time);
    const std::size_t point = task / config.trials;
    const std::size_t trial = task % config.trials;
    const std::size_t m = m_values[point];
    TraceSpan span("sweep.trial");
    span.arg("m", static_cast<std::int64_t>(m));
    span.arg("trial", static_cast<std::int64_t>(trial));

    const ClosParams params{config.n, config.r, std::max(m, config.n), config.k};
    const RoutingPolicy policy{points[point].spread, config.search};

    // Dynamic-load simulation.
    MultistageSwitch dynamic_switch(params, config.construction,
                                    config.network_model, policy);
    SimConfig sim = config.sim;
    sim.seed = Rng(config.sim.seed).split(task).next_u64();
    const SimStats stats = run_dynamic_sim(dynamic_switch, sim);

    // Structured adversary on a fresh network.
    MultistageSwitch attack_switch(params, config.construction,
                                   config.network_model, policy);
    Rng attack_rng = Rng(config.sim.seed ^ 0xA77A).split(task);
    const AttackResult attack = saturation_attack(attack_switch, attack_rng);

    // Scoped so the trailing span/timer destructors run outside the lock:
    // the critical section covers only the shared-state merge.
    {
      std::lock_guard lock(merge_mutex);
      points[point].stats += stats;
      if (attack.challenge_blocked) ++points[point].attack_blocked;
    }
  });

  return points;
}

}  // namespace wdm
