#include "sim/witness.h"

#include <algorithm>
#include <sstream>

#include "sim/churn_step.h"

namespace wdm {

std::string BlockingWitness::to_string() const {
  std::ostringstream os;
  os << "witness at m=" << m << ": " << state.size()
     << " connections block " << blocked_request.to_string();
  return os.str();
}

namespace {

BlockingWitness capture_witness(const ThreeStageNetwork& network,
                                const MulticastRequest& blocked) {
  BlockingWitness witness;
  witness.m = network.params().m;
  witness.blocked_request = blocked;
  for (const auto& [id, view] : network.connections()) {
    witness.state.emplace_back(view.request(), view.route());
  }
  return witness;
}

}  // namespace

std::optional<BlockingWitness> find_blocking_witness(
    const ClosParams& params, Construction construction,
    MulticastModel network_model, const RoutingPolicy& policy,
    const WitnessSearchConfig& config) {
  for (std::size_t restart = 0; restart < config.restarts; ++restart) {
    Rng rng = Rng(config.seed).split(restart);

    // Phase A: the structured adversary often blocks immediately.
    {
      MultistageSwitch sw(params, construction, network_model, policy);
      Rng attack_rng = rng.split(1000);
      const AttackResult attack = saturation_attack(sw, attack_rng);
      if (attack.challenge_blocked) {
        MulticastRequest challenge;
        challenge.input = {0, 0};
        for (std::size_t p = 0; p < params.r; ++p) {
          challenge.outputs.push_back({p * params.n, 0});
        }
        return capture_witness(sw.network(), challenge);
      }
    }

    // Phase B: random churn with routability probes.
    MultistageSwitch sw(params, construction, network_model, policy);
    SwitchChurnTarget target{sw};
    ChurnStream stream{rng};  // the probes draw from the same stream
    for (std::size_t step = 0; step < config.churn_steps; ++step) {
      const ChurnOutcome outcome = churn_step(target, stream, {.arrival_fraction = 0.75});
      if (outcome.op == ChurnOutcome::Op::kBlocked) {
        return capture_witness(sw.network(), *outcome.request);
      }
      // Probe without installing: would some fresh request block right now?
      for (std::size_t probe = 0; probe < config.probes_per_step; ++probe) {
        const auto request = random_admissible_request(stream.rng, sw.network(), {});
        if (request && !sw.router().find_route(*request)) {
          return capture_witness(sw.network(), *request);
        }
      }
    }
  }
  return std::nullopt;
}

namespace {

/// Does `state` (minus the connection at skip_index, if any) still block
/// `request` on a fresh network?
bool still_blocks(const std::vector<std::pair<MulticastRequest, Route>>& state,
                  std::size_t skip_index, const MulticastRequest& request,
                  const ClosParams& params, Construction construction,
                  MulticastModel network_model, const RoutingPolicy& policy) {
  ThreeStageNetwork network(params, construction, network_model);
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (i == skip_index) continue;
    network.install(state[i].first, state[i].second);
  }
  if (network.check_admissible(request)) return false;  // endpoint freed: moot
  Router router(network, policy);
  return !router.find_route(request).has_value();
}

}  // namespace

BlockingWitness shrink_witness(const BlockingWitness& witness,
                               const ClosParams& params,
                               Construction construction,
                               MulticastModel network_model,
                               const RoutingPolicy& policy) {
  constexpr std::size_t kKeepAll = static_cast<std::size_t>(-1);
  if (!still_blocks(witness.state, kKeepAll, witness.blocked_request, params,
                    construction, network_model, policy)) {
    throw std::invalid_argument("shrink_witness: input witness does not block");
  }
  BlockingWitness shrunk = witness;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < shrunk.state.size(); ++i) {
      if (still_blocks(shrunk.state, i, shrunk.blocked_request, params,
                       construction, network_model, policy)) {
        shrunk.state.erase(shrunk.state.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
        break;  // restart: indices shifted
      }
    }
  }
  return shrunk;
}

TightnessReport probe_tightness(std::size_t n, std::size_t r, std::size_t k,
                                Construction construction,
                                MulticastModel network_model,
                                const WitnessSearchConfig& config) {
  const NonblockingBound bound = theorem_min_m(n, r, k, construction);
  TightnessReport report;
  report.theorem_bound_m = bound.m;
  const RoutingPolicy policy{bound.x, RouteSearch::kExhaustive};
  for (std::size_t m = bound.m; m-- > n;) {
    const ClosParams params{n, r, std::max(m, n), k};
    if (find_blocking_witness(params, construction, network_model, policy,
                              config)) {
      report.largest_blocking_m = m;
      return report;
    }
  }
  return report;
}

}  // namespace wdm
