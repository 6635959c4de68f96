// Fault injection, degraded nonblocking bounds, and connection restoration.
#include <algorithm>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/availability.h"
#include "faults/fault_model.h"
#include "faults/fault_process.h"
#include "faults/resilience.h"
#include "sim/blocking_sim.h"
#include "sim/converter_pool.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {
namespace {

ClosParams small_params() { return {2, 3, 4, 2}; }

TEST(FaultModel, MarkRepairAndAggregate) {
  FaultModel faults(small_params());
  EXPECT_FALSE(faults.any());
  EXPECT_EQ(faults.active_faults(), 0u);

  faults.fail_middle(1);
  EXPECT_TRUE(faults.any());
  EXPECT_TRUE(faults.middle_failed(1));
  EXPECT_FALSE(faults.middle_failed(0));
  EXPECT_EQ(faults.failed_middle_count(), 1u);
  EXPECT_EQ(faults.failed_middles(), std::vector<std::size_t>{1});

  faults.fail_middle(1);  // idempotent
  EXPECT_EQ(faults.active_faults(), 1u);

  faults.repair_middle(1);
  EXPECT_FALSE(faults.any());
  faults.repair_middle(1);  // idempotent
  EXPECT_EQ(faults.active_faults(), 0u);
}

TEST(FaultModel, LinkAndLaneUsability) {
  FaultModel faults(small_params());
  // Healthy: everything usable.
  EXPECT_TRUE(faults.link12_usable(0, 0, 0));
  EXPECT_TRUE(faults.link23_usable(3, 2, 1));

  // A failed middle poisons both of its link gaps.
  faults.fail_middle(2);
  EXPECT_FALSE(faults.link12_usable(0, 2, 0));
  EXPECT_FALSE(faults.link23_usable(2, 0, 1));
  EXPECT_TRUE(faults.link12_usable(0, 1, 0));
  faults.repair_middle(2);

  // Whole-link failure kills every lane of that link only.
  faults.fail({FaultComponentKind::kLink12, 1, 3, 0});
  EXPECT_FALSE(faults.link12_usable(1, 3, 0));
  EXPECT_FALSE(faults.link12_usable(1, 3, 1));
  EXPECT_TRUE(faults.link12_usable(0, 3, 0));
  EXPECT_TRUE(faults.link23_usable(3, 1, 0));
  faults.repair({FaultComponentKind::kLink12, 1, 3, 0});

  // Single-lane failure leaves the sibling lane alive.
  faults.fail({FaultComponentKind::kLink23Lane, 0, 1, 1});
  EXPECT_TRUE(faults.link23_usable(0, 1, 0));
  EXPECT_FALSE(faults.link23_usable(0, 1, 1));
  EXPECT_EQ(faults.active_faults(), 1u);
}

TEST(FaultModel, UsableLaneWordsCombineLaneLinkAndMiddle) {
  FaultModel faults(small_params());
  EXPECT_EQ(faults.link12_usable_lanes(0, 3), 0b11u);
  EXPECT_EQ(faults.link23_usable_lanes(3, 2), 0b11u);

  faults.fail({FaultComponentKind::kLink12Lane, 1, 2, 0});
  EXPECT_EQ(faults.link12_usable_lanes(1, 2), 0b10u);
  EXPECT_EQ(faults.link12_usable_lanes(0, 2), 0b11u);
  faults.fail({FaultComponentKind::kLink12, 1, 2, 0});
  EXPECT_EQ(faults.link12_usable_lanes(1, 2), 0u);
  // Repairing the link brings back every lane but the one failed on its own.
  faults.repair({FaultComponentKind::kLink12, 1, 2, 0});
  EXPECT_EQ(faults.link12_usable_lanes(1, 2), 0b10u);
  EXPECT_TRUE(faults.failed({FaultComponentKind::kLink12Lane, 1, 2, 0}));
  EXPECT_FALSE(faults.failed({FaultComponentKind::kLink12Lane, 1, 2, 1}));

  faults.fail_middle(2);
  EXPECT_EQ(faults.link12_usable_lanes(0, 2), 0u);
  EXPECT_EQ(faults.link23_usable_lanes(2, 0), 0u);
  EXPECT_EQ(faults.link23_usable_lanes(1, 0), 0b11u);
}

TEST(FaultModel, SixtyFourLanesFillTheWordAndMoreAreRejected) {
  FaultModel wide({2, 2, 2, 64});
  EXPECT_EQ(wide.link12_usable_lanes(1, 1), ~std::uint64_t{0});
  wide.fail({FaultComponentKind::kLink23Lane, 1, 0, 63});
  EXPECT_EQ(wide.link23_usable_lanes(1, 0), ~std::uint64_t{0} >> 1);
  EXPECT_FALSE(wide.link23_usable(1, 0, 63));
  EXPECT_TRUE(wide.link23_usable(1, 0, 62));
  EXPECT_THROW(FaultModel({2, 2, 2, 65}), std::invalid_argument);
}

TEST(FaultModel, OutOfRangeComponentsThrow) {
  FaultModel faults(small_params(), /*converter_slots=*/2);
  EXPECT_THROW(faults.fail_middle(4), std::out_of_range);
  EXPECT_THROW(faults.fail({FaultComponentKind::kLink12, 3, 0, 0}),
               std::out_of_range);
  EXPECT_THROW(faults.fail({FaultComponentKind::kLink23, 4, 0, 0}),
               std::out_of_range);
  EXPECT_THROW(faults.fail({FaultComponentKind::kLink12Lane, 0, 0, 2}),
               std::out_of_range);
  EXPECT_THROW(faults.fail({FaultComponentKind::kConverterSlot, 2, 0, 0}),
               std::out_of_range);
  EXPECT_NO_THROW(faults.fail({FaultComponentKind::kConverterSlot, 1, 0, 0}));
  EXPECT_EQ(faults.failed_converter_slots(), 1u);
}

TEST(FaultModel, GeometryMismatchRejectedOnAttach) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  FaultModel wrong({2, 3, 5, 2});
  EXPECT_THROW(network.attach_fault_model(&wrong), std::invalid_argument);
  FaultModel right(small_params());
  EXPECT_NO_THROW(network.attach_fault_model(&right));
  EXPECT_EQ(network.fault_model(), &right);
  network.attach_fault_model(nullptr);
  EXPECT_EQ(network.fault_model(), nullptr);
}

TEST(FaultModel, NetworkUsableLanesAreAllLanesWithoutAnActiveFault) {
  ThreeStageNetwork network(small_params(), Construction::kMawDominant,
                            MulticastModel::kMAW);
  EXPECT_EQ(network.link12_usable_lanes(2, 3), 0b11u);
  FaultModel faults(small_params());
  network.attach_fault_model(&faults);
  EXPECT_EQ(network.link23_usable_lanes(3, 2), 0b11u);  // attached, no fault
  faults.fail({FaultComponentKind::kLink23Lane, 3, 2, 1});
  faults.fail_middle(1);
  EXPECT_EQ(network.link23_usable_lanes(3, 2), 0b01u);
  EXPECT_EQ(network.link12_usable_lanes(0, 1), 0u);
  EXPECT_EQ(network.link12_usable_lanes(0, 0), 0b11u);
}

// With a fault model attached but no fault active, every routing decision --
// and therefore every statistic of a seeded churn run -- is bit-identical to
// a run without the model (the zero-cost contract of the subsystem).
TEST(FaultRouting, EmptyFaultModelIsBehaviorIdentical) {
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    const MulticastModel model = construction == Construction::kMswDominant
                                     ? MulticastModel::kMSW
                                     : MulticastModel::kMAW;
    auto plain = MultistageSwitch::nonblocking(3, 3, 2, construction, model);
    auto faulty = MultistageSwitch::nonblocking(3, 3, 2, construction, model);
    FaultModel faults(faulty.network().params());
    faulty.network().attach_fault_model(&faults);

    SimConfig config;
    config.steps = 1500;
    config.seed = 0xD15C;
    config.self_check_every = 256;
    const SimStats a = run_dynamic_sim(plain, config);
    const SimStats b = run_dynamic_sim(faulty, config);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.blocked, b.blocked);
    EXPECT_EQ(a.departures, b.departures);
    EXPECT_EQ(a.max_concurrent, b.max_concurrent);
    EXPECT_EQ(a.conversions, b.conversions);
    EXPECT_EQ(plain.active_connections(), faulty.active_connections());
  }
}

// The heart of the degraded-capacity analysis: a network with f failed
// middle modules admits/blocks exactly the same request sequence as a fresh
// network built with m-f middles, for both constructions and regardless of
// *which* middles failed (routing only sees the ordered surviving set).
TEST(FaultRouting, DegradedNetworkEquivalentToSmallerNetwork) {
  const std::size_t n = 3, r = 3, k = 2, m = 8;
  const std::vector<std::vector<std::size_t>> failure_sets = {
      {6, 7},     // suffix: surviving indices match the fresh network's
      {0, 4, 5},  // scattered: only order-isomorphic to the fresh network
  };
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    const MulticastModel model = construction == Construction::kMswDominant
                                     ? MulticastModel::kMSW
                                     : MulticastModel::kMAW;
    for (const auto& failed : failure_sets) {
      MultistageSwitch degraded({n, r, m, k}, construction, model);
      FaultModel faults(degraded.network().params());
      for (const std::size_t j : failed) faults.fail_middle(j);
      degraded.network().attach_fault_model(&faults);

      MultistageSwitch fresh({n, r, m - failed.size(), k}, construction, model);

      SimConfig config;
      config.steps = 1200;
      config.seed = 0xE9 + failed.size();
      config.self_check_every = 256;
      const SimStats a = run_dynamic_sim(degraded, config);
      const SimStats b = run_dynamic_sim(fresh, config);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.admitted, b.admitted);
      EXPECT_EQ(a.blocked, b.blocked);
      EXPECT_EQ(a.departures, b.departures);
      EXPECT_EQ(a.max_concurrent, b.max_concurrent);
      EXPECT_EQ(a.conversions, b.conversions);
      EXPECT_EQ(degraded.active_connections(), fresh.active_connections());

      // No surviving route crosses a failed middle.
      for (const auto& [id, view] : degraded.network().connections()) {
        for (const RouteBranch& branch : view.route().branches) {
          EXPECT_EQ(std::find(failed.begin(), failed.end(), branch.middle),
                    failed.end());
        }
      }
    }
  }
}

TEST(FaultRouting, FailedMiddleRejectedByCheckRoute) {
  MultistageSwitch sw({2, 2, 3, 1}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  FaultModel faults(sw.network().params());
  sw.network().attach_fault_model(&faults);

  const MulticastRequest request{{0, 0}, {{2, 0}}};
  const auto route = sw.router().find_route(request);
  ASSERT_TRUE(route.has_value());
  faults.fail_middle(route->branches.front().middle);
  const auto reason = sw.network().check_route(request, *route);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("failed"), std::string::npos);
  // The router now routes around the failed middle.
  const auto reroute = sw.router().find_route(request);
  ASSERT_TRUE(reroute.has_value());
  EXPECT_NE(reroute->branches.front().middle, route->branches.front().middle);
}

// -- fault-aware middle-stage rows ---------------------------------------------
// A row bit means free and usable. A fault injected after attach reaches the
// rows at the next sync (self_check syncs first, so it never trips on one),
// and a repair or a detach brings them back to a fault-free twin's.

// An attached network follows its model by epoch; assigning another model's
// state over it could bring back an epoch the network already saw.
static_assert(!std::is_copy_assignable_v<FaultModel>);
static_assert(!std::is_move_assignable_v<FaultModel>);

bool row_bit(const std::uint64_t* row, std::size_t j) {
  return (row[j >> 6] >> (j & 63) & 1) != 0;
}

/// Every row bit against the per-lane definition: bit j of candidate_row(e,
/// lane) iff `lane` is free on link e -> j and usable under `faults`, of
/// candidate_row(e, kNoWavelength) iff some lane is; serve_row(e, .) the same
/// for link j -> e.
void expect_rows_free_and_usable(const ThreeStageNetwork& network,
                                 const FaultModel& faults) {
  const ClosParams& params = network.params();
  for (std::size_t e = 0; e < params.r; ++e) {
    for (std::size_t j = 0; j < params.m; ++j) {
      bool any12 = false;
      bool any23 = false;
      for (Wavelength lane = 0; lane < params.k; ++lane) {
        const bool free12 = network.input_module(e).out_lane_free(j, lane) &&
                            faults.link12_usable(e, j, lane);
        const bool free23 = network.middle_module(j).out_lane_free(e, lane) &&
                            faults.link23_usable(j, e, lane);
        EXPECT_EQ(row_bit(network.candidate_row(e, lane), j), free12)
            << "link " << e << "->" << j << " lane " << int(lane);
        EXPECT_EQ(row_bit(network.serve_row(e, lane), j), free23)
            << "link " << j << "->" << e << " lane " << int(lane);
        any12 = any12 || free12;
        any23 = any23 || free23;
      }
      EXPECT_EQ(row_bit(network.candidate_row(e, kNoWavelength), j), any12);
      EXPECT_EQ(row_bit(network.serve_row(e, kNoWavelength), j), any23);
    }
  }
}

void expect_same_rows(const ThreeStageNetwork& a, const ThreeStageNetwork& b) {
  const ClosParams& params = a.params();
  for (std::size_t e = 0; e < params.r; ++e) {
    for (Wavelength lane = 0; lane <= params.k; ++lane) {
      const Wavelength row = lane == params.k ? kNoWavelength : lane;
      for (std::size_t w = 0; w < a.row_words(); ++w) {
        EXPECT_EQ(a.candidate_row(e, row)[w], b.candidate_row(e, row)[w])
            << "candidate row " << e << " lane " << int(row);
        EXPECT_EQ(a.serve_row(e, row)[w], b.serve_row(e, row)[w])
            << "serve row " << e << " lane " << int(row);
      }
    }
  }
}

/// Bits of the rows `component` takes out: (stage-1-2 link?, edge module,
/// middle, lane or kNoWavelength for every lane).
struct KilledLink {
  bool link12;
  std::size_t edge;
  std::size_t middle;
  Wavelength lane;
};

std::vector<KilledLink> killed_links(const FaultComponent& c, std::size_t r) {
  switch (c.kind) {
    case FaultComponentKind::kMiddleModule: {
      std::vector<KilledLink> links;
      for (std::size_t e = 0; e < r; ++e) {
        links.push_back({true, e, c.a, kNoWavelength});
        links.push_back({false, e, c.a, kNoWavelength});
      }
      return links;
    }
    case FaultComponentKind::kLink12: return {{true, c.a, c.b, kNoWavelength}};
    case FaultComponentKind::kLink23: return {{false, c.b, c.a, kNoWavelength}};
    case FaultComponentKind::kLink12Lane: return {{true, c.a, c.b, c.lane}};
    case FaultComponentKind::kLink23Lane: return {{false, c.b, c.a, c.lane}};
    case FaultComponentKind::kConverterSlot: break;
  }
  return {};
}

TEST(FaultRows, EveryFaultKindReachesTheRowsAndRepairRestoresThem) {
  const ClosParams params = small_params();  // n = 2, r = 3, m = 4, k = 2
  const FaultComponent components[] = {
      {FaultComponentKind::kMiddleModule, 1, 0, 0},
      {FaultComponentKind::kLink12, 0, 2, 0},
      {FaultComponentKind::kLink23, 3, 1, 0},
      {FaultComponentKind::kLink12Lane, 1, 0, 1},
      {FaultComponentKind::kLink23Lane, 2, 2, 1},
  };
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    SCOPED_TRACE(construction == Construction::kMswDominant ? "msw-dominant"
                                                            : "maw-dominant");
    ThreeStageNetwork network(params, construction, MulticastModel::kMAW);
    ThreeStageNetwork twin(params, construction, MulticastModel::kMAW);
    FaultModel faults(params);
    network.attach_fault_model(&faults);
    Router router(network, {2, RouteSearch::kExhaustive, LanePolicy::kFirstFit});
    Rng rng(0xFA17);
    // Sessions are routed on the faulted network and installed verbatim on
    // the fault-free twin, so both always hold the same occupancy.
    std::vector<std::pair<ConnectionId, ConnectionId>> live;
    const auto churn = [&](int steps) {
      for (int step = 0; step < steps; ++step) {
        if (!live.empty() && rng.next_bool(0.3)) {
          const std::size_t victim = rng.next_below(live.size());
          router.disconnect(live[victim].first);
          twin.release(live[victim].second);
          live[victim] = live.back();
          live.pop_back();
        } else if (const auto request = random_admissible_request(rng, network, {1, 3})) {
          if (const auto id = router.try_connect(*request)) {
            live.emplace_back(*id, twin.install(*request, network.connections().at(*id).route()));
          }
        }
      }
    };
    churn(12);
    ASSERT_FALSE(live.empty());
    for (const FaultComponent& component : components) {
      SCOPED_TRACE(component.to_string());
      faults.fail(component);
      EXPECT_NO_THROW(network.self_check());  // no route since the fail
      expect_rows_free_and_usable(network, faults);
      for (const KilledLink& link : killed_links(component, params.r)) {
        const auto row = [&](Wavelength lane) {
          return link.link12 ? network.candidate_row(link.edge, lane)
                             : network.serve_row(link.edge, lane);
        };
        for (Wavelength lane = 0; lane < params.k; ++lane) {
          if (link.lane == kNoWavelength || link.lane == lane) {
            EXPECT_FALSE(row_bit(row(lane), link.middle)) << int(lane);
          }
        }
        if (link.lane == kNoWavelength) {
          EXPECT_FALSE(row_bit(row(kNoWavelength), link.middle));
        }
      }
      churn(8);  // routes around the fault; the twin takes the same routes
      network.self_check();
      faults.repair(component);
      network.self_check();
      expect_same_rows(network, twin);
    }
    // Detaching a model that still carries faults restores the twin's rows.
    for (const FaultComponent& component : components) faults.fail(component);
    churn(8);
    network.self_check();
    network.attach_fault_model(nullptr);
    expect_same_rows(network, twin);
    network.self_check();
    twin.self_check();
  }
}

TEST(FaultProcess, TimelineDeterministicSortedAndAlternating) {
  const ClosParams params = small_params();
  FaultProcessConfig config;
  config.mtbf = 50.0;
  config.mttr = 10.0;
  config.seed = 0x71AE;
  const double duration = 2000.0;
  const auto timeline = generate_fault_timeline(params, config, duration);
  const auto again = generate_fault_timeline(params, config, duration);
  ASSERT_EQ(timeline.size(), again.size());
  ASSERT_FALSE(timeline.empty());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].time, again[i].time);
    EXPECT_EQ(timeline[i].component, again[i].component);
    EXPECT_EQ(timeline[i].fail, again[i].fail);
  }
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1].time, timeline[i].time);
  }
  // Per component: strictly alternating, starting with a failure, inside
  // the horizon.
  std::map<std::size_t, bool> down;
  for (const FaultEvent& event : timeline) {
    EXPECT_EQ(event.component.kind, FaultComponentKind::kMiddleModule);
    EXPECT_GT(event.time, 0.0);
    EXPECT_LT(event.time, duration);
    EXPECT_NE(down[event.component.a], event.fail ? true : false);
    down[event.component.a] = event.fail;
  }
}

TEST(FaultProcess, ComponentStreamsIndependentOfEnabledClasses) {
  const ClosParams params = small_params();
  FaultProcessConfig middles_only;
  middles_only.seed = 0x5EED;
  FaultProcessConfig everything = middles_only;
  everything.links = true;
  everything.lanes = true;

  const auto narrow = generate_fault_timeline(params, middles_only, 500.0);
  auto wide = generate_fault_timeline(params, everything, 500.0);
  std::erase_if(wide, [](const FaultEvent& event) {
    return event.component.kind != FaultComponentKind::kMiddleModule;
  });
  ASSERT_EQ(narrow.size(), wide.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_EQ(narrow[i].time, wide[i].time);
    EXPECT_EQ(narrow[i].component, wide[i].component);
  }
  EXPECT_THROW(generate_fault_timeline(params, {.mtbf = 0.0}, 10.0),
               std::invalid_argument);
}

TEST(Restoration, ReroutesAroundAFailedMiddle) {
  // Plenty of spare middles: every stranded session must restore.
  MultistageSwitch sw({2, 4, 6, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  FaultModel faults(sw.network().params());
  sw.network().attach_fault_model(&faults);

  Rng rng(0xF00D);
  std::vector<ConnectionId> ids;
  for (int i = 0; i < 10; ++i) {
    const auto request =
        random_admissible_request(rng, sw.network(), FanoutRange{1, 3});
    if (!request) break;
    if (const auto id = sw.try_connect(*request)) ids.push_back(*id);
  }
  ASSERT_GE(ids.size(), 4u);

  // Fail the most-loaded middle module.
  std::map<std::size_t, std::size_t> use;
  for (const auto& [id, view] : sw.network().connections()) {
    for (const RouteBranch& branch : view.route().branches) ++use[branch.middle];
  }
  const std::size_t victim =
      std::max_element(use.begin(), use.end(), [](const auto& a, const auto& b) {
        return a.second < b.second;
      })->first;
  const std::size_t stranded = use[victim];
  ASSERT_GT(stranded, 0u);
  faults.fail_middle(victim);

  const std::size_t live_before = sw.active_connections();
  const RestorationReport report = restore_connections(sw);
  EXPECT_EQ(report.affected, stranded);
  EXPECT_EQ(report.restored.size(), stranded);
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(sw.active_connections(), live_before);
  sw.network().self_check();
  for (const auto& [id, view] : sw.network().connections()) {
    for (const RouteBranch& branch : view.route().branches) {
      EXPECT_NE(branch.middle, victim);
    }
  }
}

TEST(Restoration, DropsWhenNoCapacitySurvives) {
  MultistageSwitch sw({2, 2, 2, 1}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  FaultModel faults(sw.network().params());
  sw.network().attach_fault_model(&faults);

  ASSERT_TRUE(sw.try_connect({{0, 0}, {{1, 0}}}).has_value());
  ASSERT_TRUE(sw.try_connect({{2, 0}, {{3, 0}}}).has_value());
  faults.fail_middle(0);
  faults.fail_middle(1);  // nothing left to route through

  const RestorationReport report = restore_connections(sw);
  EXPECT_EQ(report.affected, 2u);
  EXPECT_TRUE(report.restored.empty());
  EXPECT_EQ(report.dropped.size(), 2u);
  EXPECT_EQ(sw.active_connections(), 0u);
  sw.network().self_check();

  // The dropped requests are returned intact for later retry: repair one
  // middle and they reconnect.
  faults.repair_middle(0);
  for (const auto& [id, request] : report.dropped) {
    EXPECT_TRUE(sw.try_connect(request).has_value());
  }
}

TEST(Restoration, NoOpOnHealthyFabric) {
  MultistageSwitch sw({2, 2, 3, 1}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  ASSERT_TRUE(sw.try_connect({{0, 0}, {{1, 0}}}).has_value());
  // No fault model attached at all.
  const RestorationReport no_model = restore_connections(sw);
  EXPECT_EQ(no_model.affected, 0u);
  // Attached but empty.
  FaultModel faults(sw.network().params());
  sw.network().attach_fault_model(&faults);
  const RestorationReport empty_model = restore_connections(sw);
  EXPECT_EQ(empty_model.affected, 0u);
  EXPECT_EQ(sw.active_connections(), 1u);
}

TEST(DegradedCapacity, MarginAndFailureBudget) {
  const NonblockingBound bound = theorem1_min_m(4, 4);
  const ClosParams params{4, 4, bound.m + 3, 2};

  const DegradedCapacity healthy =
      degraded_capacity(params, Construction::kMswDominant, 0);
  EXPECT_EQ(healthy.effective_m, bound.m + 3);
  EXPECT_EQ(healthy.margin, 3);
  EXPECT_TRUE(healthy.nonblocking);
  EXPECT_EQ(healthy.faults_to_bound, 3u);

  const DegradedCapacity at_bound =
      degraded_capacity(params, Construction::kMswDominant, 3);
  EXPECT_EQ(at_bound.margin, 0);
  EXPECT_TRUE(at_bound.nonblocking);
  EXPECT_EQ(at_bound.faults_to_bound, 0u);

  const DegradedCapacity below =
      degraded_capacity(params, Construction::kMswDominant, 5);
  EXPECT_EQ(below.margin, -2);
  EXPECT_FALSE(below.nonblocking);
  EXPECT_EQ(below.faults_to_bound, 0u);

  // f >= m clamps to an empty middle stage.
  const DegradedCapacity gone =
      degraded_capacity(params, Construction::kMswDominant, params.m + 1);
  EXPECT_EQ(gone.effective_m, 0u);
  EXPECT_FALSE(gone.nonblocking);

  // The live-model overload reads f from the fault state.
  ThreeStageNetwork network(params, Construction::kMswDominant,
                            MulticastModel::kMSW);
  FaultModel faults(params);
  faults.fail_middle(0);
  faults.fail_middle(1);
  const DegradedCapacity live = degraded_capacity(network, faults);
  EXPECT_EQ(live.failed_middles, 2u);
  EXPECT_EQ(live.margin, 1);
}

TEST(Availability, DeterministicAndConserving) {
  AvailabilityConfig config;
  config.traffic.arrival_rate = 5.0;
  config.traffic.mean_holding = 1.0;
  config.traffic.duration = 300.0;
  config.traffic.fanout = {1, 3};
  config.traffic.seed = 0xCAFE;
  config.faults.mtbf = 40.0;
  config.faults.mttr = 10.0;
  config.faults.seed = 0xFA17;

  AvailabilityStats runs[2];
  for (auto& stats : runs) {
    auto sw = MultistageSwitch::nonblocking(3, 3, 2, Construction::kMswDominant,
                                            MulticastModel::kMSW);
    FaultModel faults(sw.network().params());
    stats = run_availability_sim(sw, faults, config);
  }
  EXPECT_EQ(runs[0].traffic.arrivals, runs[1].traffic.arrivals);
  EXPECT_EQ(runs[0].traffic.admitted, runs[1].traffic.admitted);
  EXPECT_EQ(runs[0].traffic.blocked, runs[1].traffic.blocked);
  EXPECT_EQ(runs[0].failure_events, runs[1].failure_events);
  EXPECT_EQ(runs[0].sessions_dropped, runs[1].sessions_dropped);
  EXPECT_EQ(runs[0].sessions_restored, runs[1].sessions_restored);
  EXPECT_EQ(runs[0].time_weighted_capacity, runs[1].time_weighted_capacity);
  EXPECT_EQ(runs[0].min_theorem_margin, runs[1].min_theorem_margin);

  const AvailabilityStats& stats = runs[0];
  EXPECT_GT(stats.failure_events, 0u);
  EXPECT_EQ(stats.sessions_affected,
            stats.sessions_restored + stats.sessions_dropped);
  EXPECT_GT(stats.capacity_availability(), 0.0);
  EXPECT_LT(stats.capacity_availability(), 1.0);  // failures did occur
  EXPECT_GE(stats.session_survival(), 0.0);
  EXPECT_LE(stats.session_survival(), 1.0);
  EXPECT_GE(stats.failure_events, stats.repair_events);
  EXPECT_EQ(stats.restore_passes, stats.failure_events);
}

TEST(Availability, NoFailuresReducesToErlangSim) {
  ErlangConfig traffic;
  traffic.arrival_rate = 4.0;
  traffic.mean_holding = 1.0;
  traffic.duration = 250.0;
  traffic.fanout = {1, 3};
  traffic.zipf_exponent = 1.1;
  traffic.seed = 0xE0E0;

  auto erlang_switch = MultistageSwitch::nonblocking(
      3, 3, 2, Construction::kMswDominant, MulticastModel::kMSW);
  const ErlangStats plain = run_erlang_sim(erlang_switch, traffic);

  AvailabilityConfig config;
  config.traffic = traffic;
  config.faults.mtbf = 1e12;  // effectively no failures inside the horizon
  config.faults.mttr = 1.0;
  auto avail_switch = MultistageSwitch::nonblocking(
      3, 3, 2, Construction::kMswDominant, MulticastModel::kMSW);
  FaultModel faults(avail_switch.network().params());
  const AvailabilityStats stats = run_availability_sim(avail_switch, faults, config);

  EXPECT_EQ(stats.failure_events, 0u);
  EXPECT_EQ(stats.traffic.arrivals, plain.arrivals);
  EXPECT_EQ(stats.traffic.admitted, plain.admitted);
  EXPECT_EQ(stats.traffic.blocked, plain.blocked);
  EXPECT_EQ(stats.traffic.abandoned, plain.abandoned);
  EXPECT_EQ(stats.traffic.time_weighted_sessions, plain.time_weighted_sessions);
  EXPECT_NEAR(stats.capacity_availability(), 1.0, 1e-9);
  EXPECT_EQ(stats.session_survival(), 1.0);
}

TEST(ConverterPoolFaults, FailedSlotsShrinkTheBank) {
  ConverterPoolSwitch sw(4, 2, 4);
  FaultModel faults({2, 2, 2, 2}, /*converter_slots=*/4);
  sw.attach_fault_model(&faults);
  EXPECT_EQ(sw.effective_pool_size(), 4u);

  faults.fail({FaultComponentKind::kConverterSlot, 0, 0, 0});
  faults.fail({FaultComponentKind::kConverterSlot, 3, 0, 0});
  EXPECT_EQ(sw.effective_pool_size(), 2u);

  // Demand 3 exceeds the degraded bank; demand 2 fits.
  EXPECT_FALSE(sw.try_connect({{0, 0}, {{1, 1}, {2, 1}, {3, 1}}}).has_value());
  EXPECT_EQ(sw.last_error(), ConnectError::kBlocked);
  const auto id = sw.try_connect({{0, 0}, {{1, 1}, {2, 1}}});
  ASSERT_TRUE(id.has_value());

  // Further failures consume spare slots first: existing sessions persist.
  faults.fail({FaultComponentKind::kConverterSlot, 1, 0, 0});
  faults.fail({FaultComponentKind::kConverterSlot, 2, 0, 0});
  EXPECT_EQ(sw.effective_pool_size(), 0u);
  EXPECT_EQ(sw.converters_in_use(), 2u);
  EXPECT_FALSE(sw.try_connect({{1, 1}, {{3, 0}}}).has_value());
  sw.disconnect(*id);

  // Repairs restore capacity.
  faults.repair({FaultComponentKind::kConverterSlot, 1, 0, 0});
  EXPECT_EQ(sw.effective_pool_size(), 1u);
  EXPECT_TRUE(sw.try_connect({{1, 1}, {{3, 0}}}).has_value());
}

}  // namespace
}  // namespace wdm
