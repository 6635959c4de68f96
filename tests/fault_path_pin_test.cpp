// Decision pins for the fault-filtered paths: the router's lane choices, the
// repack planner's victims and the availability simulation, all under an
// attached FaultModel.
//
// The Lemma-4 oracle checks that a route exists iff a cover does; it does
// not pin which lanes a route takes. repack_test's fault cases run
// restoration only. These tests pin every decision under faults exactly --
// a hash of every route (middles, link lanes, legs, destinations), every
// SimStats field of a repack-enabled simulation plus a hash of the sessions
// each repack moved, and every AvailabilityStats field -- so a rewrite of
// how routing, the planner or route checks read fault state that moves a
// single lane choice or victim fails here. A change that alters one of
// these decisions on purpose must update its value in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "faults/availability.h"
#include "faults/fault_model.h"
#include "multistage/builder.h"
#include "repack/repack.h"
#include "sim/blocking_sim.h"
#include "sim/churn_step.h"

namespace wdm {
namespace {

/// FNV-1a over 64-bit values.
struct Fnv1a {
  std::uint64_t state = 14695981039346656037ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (value >> (8 * byte)) & 0xFF;
      state *= 1099511628211ull;
    }
  }
};

void hash_route(Fnv1a& hash, const Route& route) {
  hash.add(route.branches.size());
  for (const RouteBranch& branch : route.branches) {
    hash.add(branch.middle);
    hash.add(branch.link_lane);
    hash.add(branch.legs.size());
    for (const DeliveryLeg& leg : branch.legs) {
      hash.add(leg.out_module);
      hash.add(leg.link_lane);
      hash.add(leg.destinations.size());
      for (const WavelengthEndpoint& dest : leg.destinations) {
        hash.add(dest.port);
        hash.add(dest.lane);
      }
    }
  }
}

std::string describe(const SimStats& s) {
  std::ostringstream os;
  os << "attempts=" << s.attempts << " admitted=" << s.admitted
     << " blocked=" << s.blocked << " departures=" << s.departures
     << " max_concurrent=" << s.max_concurrent << " steps=" << s.steps
     << " active_connection_steps=" << s.active_connection_steps
     << " conversions=" << s.conversions
     << " repacked_admits=" << s.repacked_admits
     << " repack_moves=" << s.repack_moves;
  return os.str();
}

std::string describe(const AvailabilityStats& s) {
  std::ostringstream os;
  os.precision(12);
  os << "arrivals=" << s.traffic.arrivals << " admitted=" << s.traffic.admitted
     << " blocked=" << s.traffic.blocked << " abandoned=" << s.traffic.abandoned
     << " time_weighted_sessions=" << s.traffic.time_weighted_sessions
     << " traffic_duration=" << s.traffic.duration
     << " failure_events=" << s.failure_events
     << " repair_events=" << s.repair_events
     << " restore_passes=" << s.restore_passes
     << " sessions_affected=" << s.sessions_affected
     << " sessions_restored=" << s.sessions_restored
     << " sessions_dropped=" << s.sessions_dropped
     << " time_weighted_capacity=" << s.time_weighted_capacity
     << " min_theorem_margin=" << s.min_theorem_margin
     << " duration=" << s.duration;
  return os.str();
}

/// A failed middle, one whole link and single lanes in each gap.
void fail_every_kind(FaultModel& faults) {
  faults.fail({FaultComponentKind::kLink12Lane, 0, 1, 0});
  faults.fail({FaultComponentKind::kLink23Lane, 2, 3, 1});
  faults.fail({FaultComponentKind::kLink12, 1, 3, 0});
  faults.fail_middle(4);
}

struct RouteCase {
  MulticastModel model;
  LanePolicy lanes;
  const char* expected;
};

// MAW-dominant, n = r = 4, k = 3, m = 6 (below the Theorem-2 bound, so
// blocks occur), spread 2. The run starts with a failed middle, a link12
// lane and a link23 lane down; a whole link in each gap and two more lanes
// fail a third of the way in, and one lane is repaired two thirds in.
// Every admitted route is hashed and checked against the fault model.
TEST(FaultPathPin, RoutesUnderFaults) {
  const RouteCase cases[] = {
      {MulticastModel::kMSW, LanePolicy::kFirstFit,
       "attempts=1343 admitted=1255 blocked=88 departures=1225 "
       "max_concurrent=36 steps=4000 active_connection_steps=109274 "
       "conversions=2071 repacked_admits=0 repack_moves=0 "
       "routes=478388de2f0e9f3d"},
      {MulticastModel::kMSW, LanePolicy::kPreferSource,
       "attempts=1343 admitted=1255 blocked=88 departures=1225 "
       "max_concurrent=36 steps=4000 active_connection_steps=109274 "
       "conversions=820 repacked_admits=0 repack_moves=0 "
       "routes=fac4982043d3f21f"},
      {MulticastModel::kMSDW, LanePolicy::kFirstFit,
       "attempts=1332 admitted=1229 blocked=103 departures=1187 "
       "max_concurrent=45 steps=4000 active_connection_steps=148200 "
       "conversions=2830 repacked_admits=0 repack_moves=0 "
       "routes=1fe365930f5ae7ca"},
      {MulticastModel::kMSDW, LanePolicy::kPreferSource,
       "attempts=1332 admitted=1229 blocked=103 departures=1187 "
       "max_concurrent=45 steps=4000 active_connection_steps=148200 "
       "conversions=2268 repacked_admits=0 repack_moves=0 "
       "routes=cc0a986494e04bc8"},
      {MulticastModel::kMAW, LanePolicy::kFirstFit,
       "attempts=1274 admitted=1223 blocked=51 departures=1197 "
       "max_concurrent=36 steps=4000 active_connection_steps=115272 "
       "conversions=3284 repacked_admits=0 repack_moves=0 "
       "routes=41e9f15841afb849"},
      {MulticastModel::kMAW, LanePolicy::kPreferSource,
       "attempts=1274 admitted=1223 blocked=51 departures=1197 "
       "max_concurrent=36 steps=4000 active_connection_steps=115272 "
       "conversions=2624 repacked_admits=0 repack_moves=0 "
       "routes=d363abb4f108358b"},
  };
  constexpr std::size_t kSteps = 4000;
  for (const RouteCase& c : cases) {
    SCOPED_TRACE(std::string(model_name(c.model)) +
                 (c.lanes == LanePolicy::kFirstFit ? " first-fit" : " prefer-source"));
    MultistageSwitch sw({4, 4, 6, 3}, Construction::kMawDominant, c.model,
                        RoutingPolicy{2, RouteSearch::kExhaustive, c.lanes});
    ThreeStageNetwork& network = sw.network();
    FaultModel faults(network.params());
    faults.fail_middle(5);
    faults.fail({FaultComponentKind::kLink12Lane, 0, 1, 0});
    faults.fail({FaultComponentKind::kLink23Lane, 2, 3, 1});
    network.attach_fault_model(&faults);

    SwitchChurnTarget target{sw};
    ChurnStream stream{Rng(0xFA57)};
    const ChurnMix mix{.arrival_fraction = 0.7, .fanout = {1, 4}};
    Fnv1a hash;
    for (std::size_t step = 0; step < kSteps; ++step) {
      if (step == kSteps / 3) {
        faults.fail({FaultComponentKind::kLink12, 2, 0, 0});
        faults.fail({FaultComponentKind::kLink23, 1, 2, 0});
        faults.fail({FaultComponentKind::kLink12Lane, 3, 2, 2});
        faults.fail({FaultComponentKind::kLink23Lane, 4, 0, 0});
      }
      if (step == 2 * kSteps / 3) {
        faults.repair({FaultComponentKind::kLink12Lane, 0, 1, 0});
      }
      const ChurnOutcome outcome = churn_step(target, stream, mix);
      if (outcome.op == ChurnOutcome::Op::kBlocked) hash.add(~0ull);
      if (outcome.op != ChurnOutcome::Op::kAdmitted) continue;
      const Route route = network.connections().at(outcome.id).route();
      hash_route(hash, route);
      // Routed under the faults it saw: no failed resource may carry it.
      const std::size_t in = network.input_module_of(outcome.request->input.port);
      for (const RouteBranch& branch : route.branches) {
        ASSERT_TRUE(faults.link12_usable(in, branch.middle, branch.link_lane));
        for (const DeliveryLeg& leg : branch.legs) {
          ASSERT_TRUE(faults.link23_usable(branch.middle, leg.out_module, leg.link_lane));
        }
      }
    }
    std::ostringstream os;
    os << describe(stream.tally.sim) << " routes=" << std::hex << hash.state;
    EXPECT_EQ(os.str(), c.expected);
  }
}

struct RepackCase {
  Construction construction;
  MulticastModel model;
  const char* expected;
};

// n = r = 4, k = 2, m = 5 with repack on: below both bounds, so the planner
// runs thousands of times, under a failed middle, a whole link12 and single
// lanes in each gap. Pins run_dynamic_sim's SimStats and, from a twin run
// of the same stream, a hash of every (old id, new id) a repack moved.
TEST(FaultPathPin, RepackUnderFaults) {
  const RepackCase cases[] = {
      {Construction::kMswDominant, MulticastModel::kMSW,
       "attempts=8673 admitted=5989 blocked=2684 departures=5974 "
       "max_concurrent=26 steps=20000 active_connection_steps=331326 "
       "conversions=0 repacked_admits=1479 repack_moves=3882 "
       "moved=45c2707ac69f2d37"},
      {Construction::kMawDominant, MulticastModel::kMAW,
       "attempts=7722 admitted=5941 blocked=1781 departures=5927 "
       "max_concurrent=25 steps=20000 active_connection_steps=363162 "
       "conversions=12242 repacked_admits=1285 repack_moves=3890 "
       "moved=a5d43dabb75c1d45"},
  };
  SimConfig config;
  config.steps = 20000;
  config.arrival_fraction = 0.7;
  config.fanout = {1, 4};
  config.seed = 0x5717;
  config.repack = true;
  for (const RepackCase& c : cases) {
    SCOPED_TRACE(construction_name(c.construction));
    const ClosParams params{4, 4, 5, 2};
    const RoutingPolicy policy = Router::recommended_policy(params, c.construction);

    MultistageSwitch sim_switch(params, c.construction, c.model, policy);
    FaultModel sim_faults(params);
    fail_every_kind(sim_faults);
    sim_switch.network().attach_fault_model(&sim_faults);
    const SimStats stats = run_dynamic_sim(sim_switch, config);
    sim_switch.network().self_check();

    MultistageSwitch twin(params, c.construction, c.model, policy);
    FaultModel twin_faults(params);
    fail_every_kind(twin_faults);
    twin.network().attach_fault_model(&twin_faults);
    twin.enable_repack(repack::RepackPolicy{});
    SwitchChurnTarget target{twin};
    ChurnStream stream{Rng(config.seed)};
    const ChurnMix mix{.arrival_fraction = config.arrival_fraction,
                       .fanout = config.fanout};
    Fnv1a moved;
    for (std::size_t step = 0; step < config.steps; ++step) {
      if (churn_step(target, stream, mix).op != ChurnOutcome::Op::kAdmitted) continue;
      for (const auto& [old_id, new_id] : twin.repack_engine()->last_moved()) {
        moved.add(old_id);
        moved.add(new_id);
      }
    }
    EXPECT_EQ(stream.tally.sim, stats);

    std::ostringstream os;
    os << describe(stats) << " moved=" << std::hex << moved.state;
    EXPECT_EQ(os.str(), c.expected);
  }
}

// bench_availability's tiny config (run_benches --tiny): MSW-dominant at
// the Theorem-1 bound plus two spare middles, MTBF/MTTR failures over every
// component kind, restoration on every failure.
TEST(FaultPathPin, AvailabilityTinyStats) {
  const NonblockingBound bound = theorem1_min_m(4, 4);
  MultistageSwitch sw({4, 4, bound.m + 2, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW, RoutingPolicy{bound.x});
  FaultModel faults(sw.network().params());
  AvailabilityConfig config;
  config.traffic.arrival_rate = 6.0;
  config.traffic.mean_holding = 1.0;
  config.traffic.duration = 60.0;
  config.traffic.fanout = {1, 4};
  config.traffic.seed = 0xFA11;
  config.faults.mtbf = 30.0;
  config.faults.mttr = 8.0;
  config.faults.seed = 0xFA17;
  const AvailabilityStats stats = run_availability_sim(sw, faults, config);
  EXPECT_EQ(describe(stats),
            "arrivals=340 admitted=340 blocked=0 abandoned=5 "
            "time_weighted_sessions=344.025220475 traffic_duration=60 "
            "failure_events=25 repair_events=23 restore_passes=25 "
            "sessions_affected=13 sessions_restored=13 sessions_dropped=0 "
            "time_weighted_capacity=53.3530027771 min_theorem_margin=-4 "
            "duration=60");
}

}  // namespace
}  // namespace wdm
