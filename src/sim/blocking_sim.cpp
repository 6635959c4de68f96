#include "sim/blocking_sim.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "repack/repack.h"
#include "sim/churn_step.h"
#include "util/metrics.h"
#include "util/trace_span.h"

namespace wdm {

namespace {

/// Simulator instruments (see docs/BENCHMARKS.md for definitions).
struct SimMetrics {
  Counter& arrivals = metrics().counter("sim.arrivals");
  Counter& admitted = metrics().counter("sim.admitted");
  Counter& blocked = metrics().counter("sim.blocked");
  Counter& departures = metrics().counter("sim.departures");
  Counter& self_checks = metrics().counter("sim.self_checks");
  Counter& attacks = metrics().counter("sim.attacks");
  Counter& attack_blocked = metrics().counter("sim.attack_blocked");
  Counter& attack_fillers = metrics().counter("sim.attack_fillers");
  TimerStat& self_check = metrics().timer("sim.self_check");
  TimerStat& dynamic_sim = metrics().timer("sim.dynamic_sim");
  TimerStat& connect = metrics().timer("sim.connect");
  TimerStat& disconnect = metrics().timer("sim.disconnect");
  Histogram& request_fanout = metrics().histogram("sim.request_fanout");

  static SimMetrics& get() {
    static SimMetrics instance;
    return instance;
  }
};

/// A bare switch whose connects and disconnects are counted, timed and traced.
struct SimTarget : SwitchChurnTarget {
  SimMetrics& counters;

  std::optional<ConnectionId> connect(const MulticastRequest& request) {
    counters.arrivals.add();
    counters.request_fanout.record(request.outputs.size());
    ScopedTimer timer(counters.connect);
    TraceSpan span("sim.connect");
    span.arg("fanout", static_cast<std::int64_t>(request.outputs.size()));
    const auto id = SwitchChurnTarget::connect(request);
    span.arg("admitted", id ? 1 : 0);
    (id ? counters.admitted : counters.blocked).add();
    return id;
  }
  void disconnect(ConnectionId id) {
    counters.departures.add();
    ScopedTimer timer(counters.disconnect);
    TraceSpan span("sim.disconnect");
    SwitchChurnTarget::disconnect(id);
  }
};

}  // namespace

SimStats& SimStats::operator+=(const SimStats& rhs) {
  attempts += rhs.attempts;
  admitted += rhs.admitted;
  blocked += rhs.blocked;
  departures += rhs.departures;
  max_concurrent = std::max(max_concurrent, rhs.max_concurrent);
  steps += rhs.steps;
  active_connection_steps += rhs.active_connection_steps;
  conversions += rhs.conversions;
  repacked_admits += rhs.repacked_admits;
  repack_moves += rhs.repack_moves;
  return *this;
}

std::pair<double, double> SimStats::blocking_ci95() const {
  if (attempts == 0) return {0.0, 1.0};
  // Wilson score interval, z = 1.96.
  const double z = 1.96;
  const double n = static_cast<double>(attempts);
  const double p = blocking_probability();
  const double denominator = 1.0 + z * z / n;
  const double center = (p + z * z / (2 * n)) / denominator;
  const double margin =
      z * std::sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denominator;
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

std::string SimStats::to_string() const {
  std::ostringstream os;
  os << "attempts=" << attempts << " admitted=" << admitted
     << " blocked=" << blocked << " P(block)=" << blocking_probability()
     << " peak=" << max_concurrent;
  if (repacked_admits != 0) {
    os << " repacked=" << repacked_admits << " moves=" << repack_moves;
  }
  return os.str();
}

SimStats run_dynamic_sim(MultistageSwitch& sw, const SimConfig& config) {
  if (config.repack && sw.repack_engine() == nullptr) {
    sw.enable_repack(repack::RepackPolicy{});
  }
  SimMetrics& counters = SimMetrics::get();
  ScopedTimer sim_timer(counters.dynamic_sim);
  SimTarget target{{sw}, counters};
  ChurnStream stream{Rng(config.seed)};
  const ChurnMix mix{.arrival_fraction = config.arrival_fraction, .fanout = config.fanout};
  for (std::size_t step = 0; step < config.steps; ++step) {
    // Endpoints exhausted at this load: the step offered nothing.
    if (churn_step(target, stream, mix).op == ChurnOutcome::Op::kNoRequest) continue;
    if (config.self_check_every != 0 && step % config.self_check_every == 0) {
      counters.self_checks.add();
      ScopedTimer check_timer(counters.self_check);
      TraceSpan span("sim.self_check");
      sw.network().self_check();
    }
  }
  return stream.tally.sim;
}

std::string AttackResult::to_string() const {
  std::ostringstream os;
  os << (challenge_blocked ? "BLOCKED" : "routed")
     << " unavailable_middles=" << unavailable_middles
     << " fillers=" << filler_connections;
  return os.str();
}

namespace {

/// Try to install `request` over `route`; false (no side effects) if the
/// route is not currently valid.
bool try_install(ThreeStageNetwork& network, const MulticastRequest& request,
                 const Route& route) {
  if (network.check_admissible(request)) return false;
  if (network.check_route(request, route)) return false;
  network.install(request, route);
  return true;
}

}  // namespace

AttackResult saturation_attack(MultistageSwitch& sw, Rng& rng) {
  ThreeStageNetwork& network = sw.network();
  const ClosParams params = network.params();
  const auto [n, r, m, k] = params;
  const std::size_t spread = sw.router().policy().max_spread;
  const bool msw_dominant =
      network.construction() == Construction::kMswDominant;

  AttackResult result;

  // The challenge: input wavelength (port 0, λ1) to the first port of every
  // output module, all on λ1 (legal under every network model).
  MulticastRequest challenge;
  challenge.input = {0, 0};
  for (std::size_t p = 0; p < r; ++p) challenge.outputs.push_back({p * n, 0});

  // Rotating middle index for spreading filler branches.
  std::size_t middle_cursor = rng.next_below(m);
  auto next_middle = [&] {
    const std::size_t j = middle_cursor;
    middle_cursor = (middle_cursor + 1) % m;
    return j;
  };

  // --- Phase 1: burn the challenge module's other input wavelengths -------
  // Each filler takes `spread` destinations in distinct output modules and is
  // explicitly routed over `spread` middle modules (strategy-compliant), so
  // it consumes one in-link lane on each of those middles.
  for (std::size_t q = 0; q < n; ++q) {
    for (Wavelength lane = 0; lane < k; ++lane) {
      if (q == 0 && lane == 0) continue;  // the challenge's own wavelength
      // Under MSW-dominant, only the challenge's own plane matters.
      if (msw_dominant && lane != 0) continue;

      MulticastRequest filler;
      filler.input = {q, lane};
      Route route;
      std::size_t branches_placed = 0;
      for (std::size_t attempt = 0; attempt < m && branches_placed < spread;
           ++attempt) {
        const std::size_t j = next_middle();
        // One destination module per branch, rotated.
        const std::size_t p = (q + branches_placed + attempt) % r;
        // Spare destination port in module p (port 0 of each module is
        // reserved for the challenge).
        std::size_t dest_port = p * n;
        bool found = false;
        for (std::size_t local = (n > 1 ? 1 : 0); local < n; ++local) {
          const WavelengthEndpoint endpoint{p * n + local, lane};
          if (!network.output_busy(endpoint)) {
            dest_port = endpoint.port;
            found = true;
            break;
          }
        }
        if (!found) continue;
        const Wavelength in_link_lane =
            msw_dominant
                ? lane
                : network.input_module(0).lowest_free_out_lane(j).value_or(lane);
        RouteBranch branch{j, in_link_lane, {{p, lane, {{dest_port, lane}}}}};
        Route probe = route;
        probe.branches.push_back(branch);
        filler.outputs.push_back({dest_port, lane});
        if (network.check_route(filler, probe)) {
          filler.outputs.pop_back();  // branch not placeable; try next middle
          continue;
        }
        route = std::move(probe);
        ++branches_placed;
      }
      if (branches_placed == 0) continue;
      if (try_install(network, filler, route)) ++result.filler_connections;
    }
  }

  // --- Phase 2: poison the remaining middles' out-links --------------------
  // From donor input modules (1..r-1), pin unicast connections on λ1 through
  // each still-available middle so it can no longer serve some challenge
  // module on λ1.
  std::size_t donor_module = 1 % r;
  std::size_t donor_port_offset = 0;
  std::size_t victim_module = rng.next_below(r);
  for (std::size_t j = 0; j < m && r > 1; ++j) {
    const bool middle_reachable =
        msw_dominant ? network.input_module(0).out_lane_free(j, 0)
                     : network.input_module(0).free_out_lanes(j) > 0;
    if (!middle_reachable) continue;

    bool poisoned = false;
    for (std::size_t tries = 0; tries < r && !poisoned; ++tries) {
      const std::size_t p = (victim_module + tries) % r;
      if (!network.middle_module(j).out_lane_free(p, 0)) {
        poisoned = true;  // already cannot serve module p on λ1
        break;
      }
      // Spare destination port on λ1 in module p.
      std::size_t dest_port = p * n + 1;
      bool dest_found = false;
      for (std::size_t local = (n > 1 ? 1 : 0); local < n; ++local) {
        if (!network.output_busy({p * n + local, 0})) {
          dest_port = p * n + local;
          dest_found = true;
          break;
        }
      }
      if (!dest_found) continue;
      // Free donor input wavelength on λ1 outside the challenge module.
      bool installed = false;
      for (std::size_t scan = 0; scan < (r - 1) * n && !installed; ++scan) {
        const std::size_t port =
            donor_module * n + (donor_port_offset % n);
        ++donor_port_offset;
        if (donor_port_offset % n == 0) {
          donor_module = donor_module % (r - 1) + 1;
        }
        const WavelengthEndpoint donor{port, 0};
        if (network.input_busy(donor)) continue;
        MulticastRequest poison;
        poison.input = donor;
        poison.outputs = {{dest_port, 0}};
        const Route route{{{j, 0, {{p, 0, {{dest_port, 0}}}}}}};
        if (try_install(network, poison, route)) {
          ++result.filler_connections;
          installed = true;
          poisoned = true;
        }
      }
    }
    ++victim_module;
    victim_module %= r;
  }

  // --- Count middles unusable for the challenge ----------------------------
  for (std::size_t j = 0; j < m; ++j) {
    const bool reachable =
        msw_dominant ? network.input_module(0).out_lane_free(j, 0)
                     : network.input_module(0).free_out_lanes(j) > 0;
    if (!reachable) ++result.unavailable_middles;
  }

  result.challenge_blocked = !sw.try_connect(challenge).has_value();
  SimMetrics& counters = SimMetrics::get();
  counters.attacks.add();
  counters.attack_fillers.add(result.filler_connections);
  if (result.challenge_blocked) counters.attack_blocked.add();
  return result;
}

}  // namespace wdm
