// Lemma 4 as an executable property: the exhaustive router blocks iff no
// set of at most x middle modules covers the request.
//
// The oracle below is independent of the router and of the network's
// middle-stage rows. It reads only SwitchModule::out_lane_free /
// free_out_lanes and the FaultModel's usability predicates, derives which
// middles are candidates and which serve each target output module, and
// then enumerates every subset of at most x candidates. On random small
// geometries (both constructions x MSW/MSDW/MAW network models), with
// occupancy built by churn and, in half the cases, a fault model carrying
// random failures -- some injected after it was attached, so the network is
// never told about them -- it checks:
//   * the exhaustive router finds a route iff the oracle finds a cover;
//   * every route found (exhaustive or greedy) passes check_route;
//   * a greedy route implies the oracle has a cover;
//   * when some single candidate serves every target, both searches route
//     through exactly one branch, on the lowest-indexed such middle (the
//     first pick of the router's gain-then-index order).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault_model.h"
#include "multistage/routing.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {
namespace {

/// Does some lane of the link carry a signal and sit free? Derived from the
/// module's per-lane bits, never from the network's rows.
bool link_has_usable_free_lane(const SwitchModule& module, std::size_t port,
                               const FaultModel* faults, bool stage12,
                               std::size_t from) {
  if (module.free_out_lanes(port) == 0) return false;
  for (Wavelength lane = 0; lane < module.lanes(); ++lane) {
    if (!module.out_lane_free(port, lane)) continue;
    if (faults == nullptr) return true;
    if (stage12 ? faults->link12_usable(from, port, lane)
                : faults->link23_usable(from, port, lane)) {
      return true;
    }
  }
  return false;
}

struct OracleAnswer {
  bool cover = false;
  /// The lowest-indexed candidate that alone serves every target, if any.
  std::optional<std::size_t> single;
};

/// Brute-force Lemma 4: is there a set of at most `x` candidate middles
/// such that every target output module is served by one of them?
OracleAnswer oracle_has_cover(const ThreeStageNetwork& network,
                              const MulticastRequest& request, std::size_t x) {
  const ClosParams& params = network.params();
  const FaultModel* faults = network.active_fault_model();
  const bool msw_dominant = network.construction() == Construction::kMswDominant;
  const std::size_t in = network.input_module_of(request.input.port);
  const Wavelength source = request.input.lane;

  // Targets and the one link lane each needs (kNoWavelength = any lane).
  std::vector<std::size_t> targets;
  std::vector<Wavelength> needed;
  for (const auto& out : request.outputs) {
    const std::size_t p = network.output_module_of(out.port);
    Wavelength lane = kNoWavelength;
    if (msw_dominant) {
      lane = source;
    } else if (network.network_model() == MulticastModel::kMSW) {
      lane = out.lane;
    }
    bool seen = false;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (targets[t] != p) continue;
      seen = true;
      if (needed[t] != lane) return {};  // MSW output module cannot convert
    }
    if (!seen) {
      targets.push_back(p);
      needed.push_back(lane);
    }
  }

  // Candidates, and the targets each one serves (bit t).
  std::vector<std::size_t> candidates;
  std::vector<std::uint64_t> serves;
  const SwitchModule& input = network.input_module(in);
  for (std::size_t j = 0; j < params.m; ++j) {
    if (faults != nullptr && faults->middle_failed(j)) continue;
    const bool candidate =
        msw_dominant ? input.out_lane_free(j, source) &&
                           (faults == nullptr || faults->link12_usable(in, j, source))
                     : link_has_usable_free_lane(input, j, faults, true, in);
    if (!candidate) continue;
    const SwitchModule& middle = network.middle_module(j);
    std::uint64_t mask = 0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::size_t p = targets[t];
      const bool serves_p =
          needed[t] == kNoWavelength
              ? link_has_usable_free_lane(middle, p, faults, false, j)
              : middle.out_lane_free(p, needed[t]) &&
                    (faults == nullptr || faults->link23_usable(j, p, needed[t]));
      if (serves_p) mask |= 1ull << t;
    }
    candidates.push_back(j);
    serves.push_back(mask);
  }

  // Every subset of at most x candidates (recursive enumeration).
  const std::uint64_t all = (1ull << targets.size()) - 1;  // targets <= r <= 5
  const auto search = [&](auto&& self, std::size_t from, std::size_t left,
                          std::uint64_t covered) -> bool {
    if (covered == all) return true;
    if (left == 0) return false;
    for (std::size_t c = from; c < candidates.size(); ++c) {
      if (self(self, c + 1, left - 1, covered | serves[c])) return true;
    }
    return false;
  };
  OracleAnswer answer;
  answer.cover = !candidates.empty() && search(search, 0, x, 0);
  for (std::size_t c = 0; c < candidates.size() && !answer.single; ++c) {
    if (serves[c] == all) answer.single = candidates[c];
  }
  return answer;
}

/// A route through exactly one branch, on `middle`.
void expect_single_branch(const Route& route, std::size_t middle,
                          const char* search) {
  ASSERT_EQ(route.branches.size(), 1u)
      << search << " split a request one middle covers: " << route.to_string();
  EXPECT_EQ(route.branches.front().middle, middle)
      << search << " skipped the lowest full-cover middle: " << route.to_string();
}

/// A random failure anywhere in the three-stage component space.
FaultComponent random_fault(Rng& rng, const ClosParams& params) {
  const auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_below(bound));
  };
  const auto lane = [&] { return static_cast<Wavelength>(rng.next_below(params.k)); };
  switch (rng.next_below(5)) {
    case 0: return {FaultComponentKind::kMiddleModule, pick(params.m), 0, 0};
    case 1: return {FaultComponentKind::kLink12, pick(params.r), pick(params.m), 0};
    case 2: return {FaultComponentKind::kLink23, pick(params.m), pick(params.r), 0};
    case 3:
      return {FaultComponentKind::kLink12Lane, pick(params.r), pick(params.m), lane()};
    default:
      return {FaultComponentKind::kLink23Lane, pick(params.m), pick(params.r), lane()};
  }
}

struct OracleTally {
  std::size_t covers = 0;   // probes the oracle could route
  std::size_t blocks = 0;   // probes it proved blocked
  std::size_t singles = 0;  // probes one candidate could route alone
};

/// One random case: geometry, spread, churned occupancy, optional faults.
/// `m_override` pins the middle-stage size (the two-word-row case).
void run_case(std::uint64_t seed, Construction construction,
              MulticastModel model, bool faulted,
              std::optional<std::size_t> m_override, OracleTally& tally) {
  Rng rng(seed);
  ClosParams params;
  params.n = 2 + rng.next_below(4);  // [2, 5]
  params.r = 2 + rng.next_below(4);  // [2, 5]
  params.k = 1 + rng.next_below(3);  // {1, 2, 3}
  params.m = m_override ? *m_override
                        : params.n + rng.next_below(9 - params.n);  // [n, 8]
  const std::size_t x =
      1 + rng.next_below(m_override ? 2 : 3);  // spread; subsets stay small

  ThreeStageNetwork network(params, construction, model);
  Router exhaustive(network, {x, RouteSearch::kExhaustive, LanePolicy::kFirstFit});
  Router greedy(network, {x, RouteSearch::kGreedy, LanePolicy::kPreferSource});
  FaultModel faults(params);
  if (faulted) {
    network.attach_fault_model(&faults);
    const std::size_t before = rng.next_below(3);
    for (std::size_t f = 0; f < before; ++f) faults.fail(random_fault(rng, params));
  }
  SCOPED_TRACE(params.to_string() + " x=" + std::to_string(x) +
               (faulted ? " faulted" : ""));

  std::vector<ConnectionId> live;
  const std::size_t steps = 6 * params.n * params.r * params.k + 20;
  for (std::size_t step = 0; step < steps; ++step) {
    // Failures injected after attach reach routing without any notice.
    if (faulted && rng.next_bool(0.03)) faults.fail(random_fault(rng, params));

    if (!live.empty() && rng.next_bool(0.3)) {
      const std::size_t victim = rng.next_below(live.size());
      exhaustive.disconnect(live[victim]);
      live[victim] = live.back();
      live.pop_back();
      continue;
    }
    const auto request = random_admissible_request(
        rng, network, FanoutRange{1, params.n * params.r});
    if (!request) continue;

    const OracleAnswer oracle = oracle_has_cover(network, *request, x);
    (oracle.cover ? tally.covers : tally.blocks) += 1;
    if (oracle.single) ++tally.singles;

    const auto greedy_route = greedy.find_route(*request);
    if (greedy_route) {
      EXPECT_TRUE(oracle.cover) << "greedy routed what the oracle calls blocked: "
                                << request->to_string();
      EXPECT_EQ(network.check_route(*request, *greedy_route), std::nullopt);
      if (oracle.single) expect_single_branch(*greedy_route, *oracle.single, "greedy");
    }

    const auto route = exhaustive.find_route(*request);
    ASSERT_EQ(route.has_value(), oracle.cover)
        << "exhaustive router disagrees with the Lemma 4 oracle on "
        << request->to_string();
    if (!route) continue;
    ASSERT_EQ(network.check_route(*request, *route), std::nullopt)
        << route->to_string();
    if (oracle.single) expect_single_branch(*route, *oracle.single, "exhaustive");
    live.push_back(network.install(*request, *route));
    if (step % 16 == 0) network.self_check();
  }
  network.self_check();
}

void run_model(Construction construction, MulticastModel model,
               std::uint64_t seed_base) {
  OracleTally tally;
  for (std::uint64_t c = 0; c < 40; ++c) {
    run_case(seed_base + c, construction, model, /*faulted=*/c % 2 == 1,
             std::nullopt, tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Non-vacuity: the cases must exercise both answers, and single-middle
  // covers as well as covers that need several middles.
  EXPECT_GT(tally.covers, 100u);
  EXPECT_GT(tally.blocks, 10u);
  EXPECT_GT(tally.singles, 50u);
  EXPECT_GT(tally.covers - tally.singles, 10u);
}

TEST(Lemma4Oracle, MswDominantMswModel) {
  run_model(Construction::kMswDominant, MulticastModel::kMSW, 0x1000);
}
TEST(Lemma4Oracle, MswDominantMsdwModel) {
  run_model(Construction::kMswDominant, MulticastModel::kMSDW, 0x2000);
}
TEST(Lemma4Oracle, MswDominantMawModel) {
  run_model(Construction::kMswDominant, MulticastModel::kMAW, 0x3000);
}
TEST(Lemma4Oracle, MawDominantMswModel) {
  run_model(Construction::kMawDominant, MulticastModel::kMSW, 0x4000);
}
TEST(Lemma4Oracle, MawDominantMsdwModel) {
  run_model(Construction::kMawDominant, MulticastModel::kMSDW, 0x5000);
}
TEST(Lemma4Oracle, MawDominantMawModel) {
  run_model(Construction::kMawDominant, MulticastModel::kMAW, 0x6000);
}

TEST(Lemma4Oracle, TwoWordRowsMatchOracle) {
  // m = 65: every middle-stage row spans two words.
  OracleTally tally;
  std::uint64_t seed = 0x7000;
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    for (const MulticastModel model :
         {MulticastModel::kMSW, MulticastModel::kMSDW, MulticastModel::kMAW}) {
      for (const bool faulted : {false, true}) {
        run_case(seed++, construction, model, faulted, 65, tally);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.covers, 100u);
  EXPECT_GT(tally.singles, 50u);
}

TEST(Lemma4Oracle, FaultsInjectedAfterAttachMatchOracle) {
  // Attach an empty fault model, fill the network, then fail resources that
  // carry live routes. The network is never told; the router's fault filter
  // must still agree with the oracle on every probe.
  OracleTally tally;
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    for (std::uint64_t c = 0; c < 20; ++c) {
      Rng rng(0x8000 + c);
      const ClosParams params{2 + rng.next_below(3), 2 + rng.next_below(3), 5,
                              1 + rng.next_below(3)};
      ThreeStageNetwork network(params, construction, MulticastModel::kMAW);
      Router router(network, {2, RouteSearch::kExhaustive, LanePolicy::kFirstFit});
      FaultModel faults(params);
      network.attach_fault_model(&faults);
      std::vector<ConnectionId> live;
      for (int step = 0; step < 12; ++step) {
        if (const auto request = random_admissible_request(rng, network, {1, 2})) {
          if (const auto id = router.try_connect(*request)) live.push_back(*id);
        }
      }
      for (int f = 0; f < 4; ++f) faults.fail(random_fault(rng, params));
      for (int probe = 0; probe < 40; ++probe) {
        // Departures keep the state moving; failed lanes under live routes
        // come free here, still without notice to the network.
        if (!live.empty() && probe % 4 == 3) {
          const std::size_t victim = rng.next_below(live.size());
          router.disconnect(live[victim]);
          live[victim] = live.back();
          live.pop_back();
        }
        const auto request = random_admissible_request(rng, network, {1, 4});
        if (!request) continue;
        const OracleAnswer oracle = oracle_has_cover(network, *request, 2);
        (oracle.cover ? tally.covers : tally.blocks) += 1;
        const auto route = router.find_route(*request);
        ASSERT_EQ(route.has_value(), oracle.cover) << request->to_string();
        if (route) {
          EXPECT_EQ(network.check_route(*request, *route), std::nullopt);
          if (oracle.single) expect_single_branch(*route, *oracle.single, "exhaustive");
        }
      }
      network.self_check();
    }
  }
  EXPECT_GT(tally.covers, 50u);
  EXPECT_GT(tally.blocks, 10u);
}

}  // namespace
}  // namespace wdm
