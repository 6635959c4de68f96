// Switching-module lane discipline and occupancy tracking (§3.1).
#include "multistage/module.h"

#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "util/rng.h"

namespace wdm {
namespace {

TEST(SwitchModule, ConstructionValidation) {
  EXPECT_THROW(SwitchModule(0, 2, 1, MulticastModel::kMSW), std::invalid_argument);
  EXPECT_THROW(SwitchModule(2, 0, 1, MulticastModel::kMSW), std::invalid_argument);
  EXPECT_THROW(SwitchModule(2, 2, 0, MulticastModel::kMSW), std::invalid_argument);
  const SwitchModule module(3, 5, 2, MulticastModel::kMAW, "x");
  EXPECT_EQ(module.in_ports(), 3u);
  EXPECT_EQ(module.out_ports(), 5u);
  EXPECT_EQ(module.lanes(), 2u);
  EXPECT_EQ(module.name(), "x");
}

TEST(SwitchModule, MswKeepsLane) {
  SwitchModule module(2, 3, 2, MulticastModel::kMSW);
  EXPECT_EQ(module.check_transit({0, 1}, {{0, 1}, {2, 1}}), std::nullopt);
  EXPECT_TRUE(module.check_transit({0, 1}, {{0, 0}}).has_value());
  EXPECT_TRUE(module.check_transit({0, 0}, {{0, 0}, {2, 1}}).has_value());
}

TEST(SwitchModule, MsdwSingleOutboundLane) {
  SwitchModule module(2, 3, 2, MulticastModel::kMSDW);
  // Conversion allowed, but one outbound lane per transit.
  EXPECT_EQ(module.check_transit({0, 1}, {{0, 0}, {2, 0}}), std::nullopt);
  EXPECT_TRUE(module.check_transit({0, 1}, {{0, 0}, {2, 1}}).has_value());
}

TEST(SwitchModule, MawUnrestrictedLanes) {
  SwitchModule module(2, 3, 2, MulticastModel::kMAW);
  EXPECT_EQ(module.check_transit({0, 1}, {{0, 0}, {1, 1}, {2, 0}}), std::nullopt);
}

TEST(SwitchModule, RejectsTwoLanesOnOneOutPort) {
  SwitchModule module(2, 2, 2, MulticastModel::kMAW);
  const auto reason = module.check_transit({0, 0}, {{1, 0}, {1, 1}});
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("two outbound lanes"), std::string::npos);
}

TEST(SwitchModule, OccupancyConflicts) {
  SwitchModule module(2, 2, 2, MulticastModel::kMAW);
  module.occupy({0, 0}, {{1, 0}});
  // Inbound wavelength reuse.
  EXPECT_TRUE(module.check_transit({0, 0}, {{0, 0}}).has_value());
  // Outbound wavelength reuse.
  EXPECT_TRUE(module.check_transit({1, 0}, {{1, 0}}).has_value());
  // Same out port, other lane: fine.
  EXPECT_EQ(module.check_transit({1, 0}, {{1, 1}}), std::nullopt);
  EXPECT_THROW(module.occupy({0, 0}, {{0, 0}}), std::logic_error);
  EXPECT_THROW(module.occupy({1, 0}, {{1, 0}}), std::logic_error);
  // A rejected occupy changes nothing.
  EXPECT_TRUE(module.in_lane_free(1, 0));
  EXPECT_TRUE(module.out_lane_free(0, 0));
  EXPECT_EQ(module.busy_out_lanes(), 1u);
}

TEST(SwitchModule, RangeChecksInCheckTransit) {
  SwitchModule module(2, 2, 2, MulticastModel::kMAW);
  EXPECT_TRUE(module.check_transit({5, 0}, {{0, 0}}).has_value());
  EXPECT_TRUE(module.check_transit({0, 5}, {{0, 0}}).has_value());
  EXPECT_TRUE(module.check_transit({0, 0}, {{5, 0}}).has_value());
  EXPECT_TRUE(module.check_transit({0, 0}, {{0, 5}}).has_value());
  EXPECT_TRUE(module.check_transit({0, 0}, {}).has_value());
}

TEST(SwitchModule, FreeLaneQueries) {
  SwitchModule module(1, 2, 3, MulticastModel::kMAW);
  EXPECT_EQ(module.free_out_lanes(0), 3u);
  EXPECT_EQ(module.lowest_free_out_lane(0), 0u);
  module.occupy({0, 0}, {{0, 0}});
  EXPECT_EQ(module.free_out_lanes(0), 2u);
  EXPECT_EQ(module.lowest_free_out_lane(0), 1u);
  EXPECT_EQ(module.free_in_lanes(0), 2u);
  module.occupy({0, 1}, {{0, 1}});
  module.occupy({0, 2}, {{0, 2}});
  EXPECT_EQ(module.free_out_lanes(0), 0u);
  EXPECT_EQ(module.lowest_free_out_lane(0), std::nullopt);
  EXPECT_EQ(module.free_out_lanes(1), 3u);
}

TEST(SwitchModule, VacateRestoresState) {
  SwitchModule module(2, 2, 2, MulticastModel::kMSW);
  module.occupy({1, 1}, {{0, 1}, {1, 1}});
  EXPECT_FALSE(module.out_lane_free(0, 1));
  EXPECT_FALSE(module.in_lane_free(1, 1));
  EXPECT_EQ(module.busy_out_lanes(), 2u);
  module.vacate({1, 1}, {{0, 1}, {1, 1}});
  EXPECT_TRUE(module.out_lane_free(0, 1));
  EXPECT_TRUE(module.in_lane_free(1, 1));
  EXPECT_EQ(module.busy_out_lanes(), 0u);
  // The lanes are free now: vacating them again is a caller bug.
  EXPECT_THROW(module.vacate({1, 1}, {{0, 1}, {1, 1}}), std::logic_error);
  module.self_check();
}

TEST(SwitchModule, RejectsMoreLanesThanOneWord) {
  // Per-port occupancy is a single uint64_t word, so k is capped at 64.
  EXPECT_THROW(SwitchModule(2, 2, SwitchModule::kMaxLanes + 1, MulticastModel::kMAW),
               std::invalid_argument);
  EXPECT_THROW(SwitchModule(2, 2, 100, MulticastModel::kMSW), std::invalid_argument);
}

TEST(SwitchModule, SixtyFourLaneBoundary) {
  // k = 64 exercises the all-ones lane mask (1 << 64 would be UB).
  SwitchModule module(1, 1, SwitchModule::kMaxLanes, MulticastModel::kMAW);
  EXPECT_EQ(module.free_out_lanes(0), 64u);
  for (Wavelength lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(module.lowest_free_out_lane(0), lane);
    module.occupy({0, lane}, {{0, lane}});
    EXPECT_EQ(module.free_out_lanes(0), 63u - lane);
  }
  EXPECT_EQ(module.lowest_free_out_lane(0), std::nullopt);
  EXPECT_EQ(module.free_in_lanes(0), 0u);
  module.self_check();
  module.vacate({0, 63}, {{0, 63}});
  EXPECT_EQ(module.lowest_free_out_lane(0), 63u);
  for (Wavelength lane = 0; lane < 63; ++lane) module.vacate({0, lane}, {{0, lane}});
  EXPECT_EQ(module.free_out_lanes(0), 64u);
  module.self_check();
}

// vacate() is all-or-nothing: a lane that is free, out of range or named
// twice rejects the whole call and leaves every word alone.
TEST(SwitchModule, VacateRejectsLanesNotHeld) {
  SwitchModule module(2, 2, 2, MulticastModel::kMAW);
  module.occupy({0, 0}, {{0, 0}, {1, 1}});
  const auto unchanged = [&] {
    EXPECT_FALSE(module.in_lane_free(0, 0));
    EXPECT_FALSE(module.out_lane_free(0, 0));
    EXPECT_FALSE(module.out_lane_free(1, 1));
    EXPECT_EQ(module.busy_out_lanes(), 2u);
    module.self_check();
  };
  EXPECT_THROW(module.vacate({1, 0}, {{0, 0}}), std::logic_error);  // inbound free
  unchanged();
  EXPECT_THROW(module.vacate({0, 0}, {{0, 0}, {1, 0}}), std::logic_error);  // outbound free
  unchanged();
  EXPECT_THROW(module.vacate({0, 0}, {{0, 0}, {0, 0}}), std::logic_error);  // lane twice
  unchanged();
  EXPECT_THROW(module.vacate({5, 0}, {{0, 0}}), std::logic_error);  // out of range
  EXPECT_THROW(module.vacate({0, 0}, {{0, 7}}), std::logic_error);
  unchanged();
  module.vacate({0, 0}, {{0, 0}, {1, 1}});
  EXPECT_EQ(module.busy_out_lanes(), 0u);
  module.self_check();
}

// Random churn cross-checked against a naive per-lane bool-matrix reference:
// the word-parallel popcount/countr_zero queries must agree with the obvious
// O(k) implementation at every step.
TEST(SwitchModule, BitmaskQueriesMatchNaiveReference) {
  constexpr std::size_t kPorts = 4;
  constexpr std::size_t kLanes = 7;  // odd width: exercises the partial mask
  Rng rng(42);
  SwitchModule module(kPorts, kPorts, kLanes, MulticastModel::kMAW);

  struct NaiveTransit {
    ModulePortLane in;
    std::vector<ModulePortLane> outs;
  };
  std::vector<std::vector<bool>> in_used(kPorts, std::vector<bool>(kLanes));
  std::vector<std::vector<bool>> out_used(kPorts, std::vector<bool>(kLanes));
  std::vector<NaiveTransit> live;

  const auto check_against_reference = [&] {
    for (std::size_t port = 0; port < kPorts; ++port) {
      std::size_t free_out = 0;
      std::size_t free_in = 0;
      std::optional<Wavelength> lowest;
      for (Wavelength lane = 0; lane < kLanes; ++lane) {
        EXPECT_EQ(module.out_lane_free(port, lane), !out_used[port][lane]);
        EXPECT_EQ(module.in_lane_free(port, lane), !in_used[port][lane]);
        if (!out_used[port][lane]) {
          ++free_out;
          if (!lowest) lowest = lane;
        }
        if (!in_used[port][lane]) ++free_in;
      }
      EXPECT_EQ(module.free_out_lanes(port), free_out);
      EXPECT_EQ(module.free_in_lanes(port), free_in);
      EXPECT_EQ(module.lowest_free_out_lane(port), lowest);
    }
    std::size_t busy = 0;
    for (const NaiveTransit& transit : live) busy += transit.outs.size();
    EXPECT_EQ(module.busy_out_lanes(), busy);
  };

  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.next_bool(0.55)) {
      const ModulePortLane in{rng.next_below(kPorts),
                              static_cast<Wavelength>(rng.next_below(kLanes))};
      std::vector<ModulePortLane> outs;
      const std::size_t fanout = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < fanout; ++i) {
        outs.push_back({rng.next_below(kPorts),
                        static_cast<Wavelength>(rng.next_below(kLanes))});
      }
      if (!module.check_transit(in, outs)) {
        module.occupy(in, outs);
        in_used[in.port][in.lane] = true;
        for (const auto& out : outs) out_used[out.port][out.lane] = true;
        live.push_back(NaiveTransit{in, outs});
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      const NaiveTransit& transit = live[victim];
      module.vacate(transit.in, transit.outs);
      in_used[transit.in.port][transit.in.lane] = false;
      for (const auto& out : transit.outs) out_used[out.port][out.lane] = false;
      live[victim] = live.back();
      live.pop_back();
    }
    check_against_reference();
    module.self_check();
  }
}

TEST(SwitchModule, SelfCheckPassesUnderChurn) {
  Rng rng(7);
  SwitchModule module(4, 4, 2, MulticastModel::kMAW);
  std::vector<std::pair<ModulePortLane, ModulePortLane>> live;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const ModulePortLane in{rng.next_below(4),
                              static_cast<Wavelength>(rng.next_below(2))};
      const ModulePortLane out{rng.next_below(4),
                               static_cast<Wavelength>(rng.next_below(2))};
      if (!module.check_transit(in, {out})) {
        module.occupy(in, {out});
        live.emplace_back(in, out);
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      module.vacate(live[victim].first, {live[victim].second});
      live[victim] = live.back();
      live.pop_back();
    }
    module.self_check();
  }
}

// busy_out_lanes() is maintained incrementally by occupy and vacate; the
// engine publishes it instead of popcounting out_words().
// Under random churn obeying each model's lane discipline -- including
// rejected adds, which must leave the count alone -- it must equal the
// bitmap's popcount after every step, at k = 64 too.
class BusyOutLanesChurn
    : public ::testing::TestWithParam<std::tuple<MulticastModel, std::size_t>> {};

TEST_P(BusyOutLanesChurn, CountMatchesBitmapPopcount) {
  const auto [model, lanes] = GetParam();
  constexpr std::size_t kPorts = 6;
  Rng rng(0xB05 + lanes);
  SwitchModule module(kPorts, kPorts, lanes, model);
  const auto popcount = [&] {
    std::size_t busy = 0;
    for (std::size_t p = 0; p < kPorts; ++p) {
      busy += static_cast<std::size_t>(std::popcount(module.out_words()[p]));
    }
    return busy;
  };
  const auto random_lane = [&] {
    return static_cast<Wavelength>(rng.next_below(lanes));
  };

  std::vector<std::pair<ModulePortLane, std::vector<ModulePortLane>>> live;
  std::size_t added = 0;
  std::size_t rejected = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const ModulePortLane in{rng.next_below(kPorts), random_lane()};
      const Wavelength shared =
          model == MulticastModel::kMSW ? in.lane : random_lane();
      std::vector<ModulePortLane> outs;
      const std::size_t fanout = 1 + rng.next_below(kPorts);
      for (std::size_t port = 0; port < kPorts && outs.size() < fanout; ++port) {
        if (rng.next_bool(0.5)) {
          outs.push_back({port, model == MulticastModel::kMAW ? random_lane()
                                                              : shared});
        }
      }
      if (outs.empty()) outs.push_back({rng.next_below(kPorts), shared});
      const std::size_t before = module.busy_out_lanes();
      if (module.check_transit(in, outs)) {
        EXPECT_THROW(module.occupy(in, outs), std::logic_error);
        EXPECT_EQ(module.busy_out_lanes(), before);
        ++rejected;
      } else {
        module.occupy(in, outs);
        live.emplace_back(in, outs);
        EXPECT_EQ(module.busy_out_lanes(), before + outs.size());
        ++added;
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      module.vacate(live[victim].first, live[victim].second);
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(module.busy_out_lanes(), popcount()) << "step " << step;
    module.self_check();
  }
  EXPECT_GT(added, 100u);
  EXPECT_GT(rejected, 0u);
  for (const auto& [in, outs] : live) module.vacate(in, outs);
  EXPECT_EQ(module.busy_out_lanes(), 0u);
  module.self_check();
}

INSTANTIATE_TEST_SUITE_P(
    Models, BusyOutLanesChurn,
    ::testing::Combine(::testing::Values(MulticastModel::kMSW,
                                         MulticastModel::kMSDW,
                                         MulticastModel::kMAW),
                       ::testing::Values(std::size_t{3}, SwitchModule::kMaxLanes)));

}  // namespace
}  // namespace wdm
