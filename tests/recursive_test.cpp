// Recursive multistage construction: consistency with the closed 3-stage
// forms, depth behaviour, and live validation of the recursion claim via
// nested inner networks.
#include "multistage/recursive.h"

#include <gtest/gtest.h>

#include "capacity/cost.h"
#include "multistage/nonblocking.h"
#include "sim/nested.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {
namespace {

TEST(RecursiveDesign, DepthZeroIsCrossbar) {
  for (const MulticastModel model : kAllModels) {
    const RecursiveDesign design = recursive_design(64, 2, model, 0);
    EXPECT_EQ(design.stages, 1u);
    EXPECT_EQ(design.crosspoints, crossbar_cost(64, 2, model).crosspoints);
    EXPECT_EQ(design.converters, crossbar_cost(64, 2, model).converters);
    EXPECT_TRUE(design.levels.empty());
  }
}

TEST(RecursiveDesign, DepthOneMatchesMultistageCost) {
  for (const MulticastModel model : kAllModels) {
    for (const std::size_t N : {16u, 64u, 144u}) {
      const RecursiveDesign design = recursive_design(N, 2, model, 1);
      EXPECT_EQ(design.stages, 3u);
      ASSERT_EQ(design.levels.size(), 1u);
      const auto& level = design.levels.front();
      const ClosParams params{level.n, level.r, level.m, 2};
      const MultistageCost expected =
          multistage_cost(params, Construction::kMswDominant, model);
      EXPECT_EQ(design.crosspoints, expected.crosspoints)
          << model_name(model) << " N=" << N;
      EXPECT_EQ(design.converters, expected.converters)
          << model_name(model) << " N=" << N;
    }
  }
}

TEST(RecursiveDesign, FiveStagesExpandTheMiddle) {
  // N = 256: 3-stage (16 x 16), 5-stage expands each 16 x 16 middle.
  const RecursiveDesign three = recursive_design(256, 2, MulticastModel::kMSW, 1);
  const RecursiveDesign five = recursive_design(256, 2, MulticastModel::kMSW, 2);
  EXPECT_EQ(five.stages, 5u);
  ASSERT_EQ(five.levels.size(), 2u);
  EXPECT_EQ(five.levels[0].r, 16u);
  EXPECT_EQ(five.levels[1].n * five.levels[1].r, 16u);
  // The expansion replaces m middle crossbars (k * 16^2 each) by 3-stage
  // networks: edge stages are unchanged.
  EXPECT_NE(three.crosspoints, five.crosspoints);
}

TEST(RecursiveDesign, ConvertersIndependentOfDepth) {
  // Only the outermost output stage converts; deeper recursion keeps MAW's
  // kN converters exactly.
  for (std::size_t depth = 1; depth <= max_recursion_depth(256); ++depth) {
    const RecursiveDesign design =
        recursive_design(256, 4, MulticastModel::kMAW, depth);
    EXPECT_EQ(design.converters, 4u * 256u) << "depth=" << depth;
  }
}

TEST(RecursiveDesign, RejectsUndecomposableSizes) {
  EXPECT_THROW((void)recursive_design(7, 2, MulticastModel::kMSW, 1),
               std::invalid_argument);
  // 6 = 2 x 3 but the middle (r = 3) is prime: depth 2 must fail.
  EXPECT_NO_THROW((void)recursive_design(6, 2, MulticastModel::kMSW, 1));
  EXPECT_THROW((void)recursive_design(6, 2, MulticastModel::kMSW, 2),
               std::invalid_argument);
}

TEST(RecursiveDesign, MaxDepthMatchesFactorability) {
  EXPECT_EQ(max_recursion_depth(7), 0u);
  EXPECT_EQ(max_recursion_depth(6), 1u);    // 2x3, middle 3 prime
  EXPECT_EQ(max_recursion_depth(16), 2u);   // 4x4 -> middle 4 = 2x2 -> middle 2
  EXPECT_GE(max_recursion_depth(256), 3u);  // 16x16 -> 4x4 -> 2x2
}

TEST(RecursiveDesign, BestDesignIsActuallyBest) {
  for (const std::size_t N : {64u, 256u, 1024u}) {
    const RecursiveDesign best = best_recursive_design(N, 2, MulticastModel::kMSW);
    for (std::size_t depth = 0; depth <= max_recursion_depth(N); ++depth) {
      EXPECT_LE(best.crosspoints,
                recursive_design(N, 2, MulticastModel::kMSW, depth).crosspoints)
          << "N=" << N << " depth=" << depth;
    }
  }
}

TEST(RecursiveDesign, DeepRecursionWinsForHugeN) {
  // For very large N the 5-stage design undercuts the 3-stage one -- the
  // repeated sqrt gain the paper's recursion promises.
  const std::size_t N = 1u << 16;  // 65536
  const RecursiveDesign three = recursive_design(N, 2, MulticastModel::kMSW, 1);
  const RecursiveDesign five = recursive_design(N, 2, MulticastModel::kMSW, 2);
  EXPECT_LT(five.crosspoints, three.crosspoints);
  const RecursiveDesign best = best_recursive_design(N, 2, MulticastModel::kMSW);
  EXPECT_GE(best.stages, 5u);
}

TEST(RecursiveDesign, ToStringListsLevels) {
  const std::string text =
      recursive_design(256, 2, MulticastModel::kMSW, 2).to_string();
  EXPECT_NE(text.find("5-stage"), std::string::npos);
  EXPECT_NE(text.find("n=16"), std::string::npos);
}

// --- live nested validation ---------------------------------------------------

TEST(NestedRecursion, RequiresDecomposableMiddleSize) {
  MultistageSwitch outer = MultistageSwitch::nonblocking(
      2, 3, 1, Construction::kMswDominant, MulticastModel::kMSW);  // r = 3 prime
  EXPECT_THROW(NestedRecursionValidator validator(outer), std::invalid_argument);
}

TEST(NestedRecursion, InnerNetworksNeverBlockUnderChurn) {
  // Outer: n=3, r=4, k=2 -> middles are 4x4, nested as 2x2 inner networks.
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    MultistageSwitch outer = MultistageSwitch::nonblocking(
        3, 4, 2, construction, MulticastModel::kMAW);
    NestedRecursionValidator validator(outer);
    EXPECT_EQ(validator.inner_count(), outer.network().params().m);

    Rng rng(construction == Construction::kMswDominant ? 51u : 52u);
    std::vector<ConnectionId> live;
    std::size_t mirrored = 0;
    for (int step = 0; step < 600; ++step) {
      if (live.empty() || rng.next_bool(0.65)) {
        const auto request = random_admissible_request(rng, outer.network(), {1, 6});
        if (!request) continue;
        const auto id = outer.try_connect(*request);
        if (!id) continue;  // outer block impossible at bound, but be safe
        ASSERT_TRUE(validator.on_connect(*id))
            << "recursion claim falsified at step " << step;
        live.push_back(*id);
        ++mirrored;
      } else {
        const std::size_t victim = rng.next_below(live.size());
        validator.on_disconnect(live[victim]);
        outer.disconnect(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
      if (step % 100 == 0) validator.self_check();
    }
    EXPECT_GT(mirrored, 100u);
    // Inner bookkeeping matches outer branch counts.
    std::size_t outer_branches = 0;
    for (const auto& [id, view] : outer.network().connections()) {
      outer_branches += view.spread();
    }
    EXPECT_EQ(validator.mirrored_connections(), outer_branches);
  }
}

TEST(FiveStageSwitch, ConnectsThroughBothLevels) {
  FiveStageSwitch sw(3, 4, 2, Construction::kMswDominant, MulticastModel::kMAW);
  EXPECT_EQ(sw.port_count(), 12u);
  EXPECT_EQ(sw.stage_count(), 5u);
  const auto id = sw.try_connect({{0, 0}, {{3, 1}, {7, 0}, {11, 1}}});
  ASSERT_TRUE(id.has_value());
  sw.self_check();
  EXPECT_GT(sw.nested().mirrored_connections(), 0u);
  sw.disconnect(*id);
  EXPECT_EQ(sw.active_connections(), 0u);
  EXPECT_EQ(sw.nested().mirrored_connections(), 0u);
  sw.self_check();
}

TEST(FiveStageSwitch, SurvivesChurnWithoutInnerBlocks) {
  FiveStageSwitch sw(2, 4, 2, Construction::kMswDominant, MulticastModel::kMSW);
  Rng rng(61);
  std::vector<ConnectionId> live;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const auto request =
          random_admissible_request(rng, sw.outer().network(), {1, 4});
      if (!request) continue;
      // try_connect throws std::logic_error if the recursion claim fails.
      const auto id = sw.try_connect(*request);
      ASSERT_TRUE(id.has_value());
      live.push_back(*id);
    } else {
      const std::size_t victim = rng.next_below(live.size());
      sw.disconnect(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    if (step % 100 == 0) sw.self_check();
  }
}

TEST(FiveStageSwitch, CrosspointsMatchRecursiveCostModel) {
  // For a square outer geometry with balanced inner factorization, the live
  // five-stage switch's device count equals the recursive_design cost model
  // at depth 2 (same per-level theorem sizing).
  FiveStageSwitch sw(4, 4, 2, Construction::kMswDominant, MulticastModel::kMSW);
  const RecursiveDesign model = recursive_design(16, 2, MulticastModel::kMSW, 2);
  EXPECT_EQ(sw.crosspoints(), model.crosspoints);
}

TEST(NestedRecursion, DisconnectUnknownThrows) {
  MultistageSwitch outer = MultistageSwitch::nonblocking(
      2, 4, 1, Construction::kMswDominant, MulticastModel::kMSW);
  NestedRecursionValidator validator(outer);
  EXPECT_THROW(validator.on_disconnect(42), std::out_of_range);
}

}  // namespace
}  // namespace wdm
