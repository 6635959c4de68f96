// Repack engine (DESIGN.md §3.12): rearrangeable admission below the
// Theorem 1/2 bound, migration atomicity under mid-chain failure, and the
// unified restoration core.
//
// The contracts pinned here:
//   * Below the bound, connect_with_repack admits requests the classic
//     router blocks, by migrating standing sessions; moved sessions stay
//     live under their new ids with the same request.
//   * A repack transaction killed mid-chain (after a break, before the
//     make) rolls back to a BIT-EXACT pre-call state: occupancy words,
//     insertion order, and every session's id/request/route -- including
//     the victims already torn down, revived under their ORIGINAL ids.
//   * restore_connections, now running on the repack executor, produces a
//     RestorationReport identical to the legacy pass (tear all stranded
//     down, re-route in ascending id order) replicated by hand.
//   * With the engine attached but disabled -- or attached at the proven
//     bound -- every decision and statistic is identical to a plain switch.
//   * ThreeStageNetwork::reinstall revives exactly one released id and
//     rejects everything else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "faults/fault_model.h"
#include "faults/resilience.h"
#include "multistage/builder.h"
#include "multistage/rearrange.h"
#include "repack/repack.h"
#include "sim/blocking_sim.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {
namespace {

// The calibrated below-bound regime (matches bench_repack's sweep): a 4x4x2
// MSW-dominant switch needs m=13 by Theorem 1; random churn at high load
// blocks reliably at m=5 (roughly one attempt in ten).
constexpr std::size_t kN = 4, kR = 4, kK = 2, kSmallM = 5;

MultistageSwitch below_bound_switch(std::size_t m = kSmallM) {
  return MultistageSwitch({kN, kR, m, kK}, Construction::kMswDominant,
                          MulticastModel::kMSW);
}

SimConfig churn_config() {
  SimConfig config;
  config.steps = 6000;
  config.arrival_fraction = 0.8;
  config.fanout = {1, 4};
  config.seed = 0x4EBAC;
  config.self_check_every = 512;
  return config;
}

// ---------------------------------------------------------------------------
// Repack-on-block: admits below the bound, moved sessions stay live
// ---------------------------------------------------------------------------

TEST(RepackEngine, DrivesBlockingDownBelowTheBound) {
  auto classic = below_bound_switch();
  auto repacking = below_bound_switch();

  SimConfig config = churn_config();
  const SimStats plain = run_dynamic_sim(classic, config);
  config.repack = true;
  const SimStats repacked = run_dynamic_sim(repacking, config);

  ASSERT_GT(plain.blocked, 0u) << "workload no longer blocks classically; "
                                  "recalibrate m / load";
  EXPECT_LT(repacked.blocked, plain.blocked);
  EXPECT_GT(repacked.repacked_admits, 0u);
  EXPECT_GE(repacked.repack_moves, repacked.repacked_admits);
  // Bounded cost: the default chain budget caps moves per repacked admit.
  EXPECT_LE(repacked.repack_moves,
            repacked.repacked_admits * repack::RepackPolicy{}.max_moves);
  repacking.network().self_check();

  const repack::RepackEngine* engine = repacking.repack_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->sessions_moved_total(), repacked.repack_moves);
  EXPECT_GE(engine->max_chain_length(), 1u);
  EXPECT_LE(engine->max_chain_length(), engine->policy().max_moves);
}

TEST(RepackEngine, MovedSessionsStayLiveUnderNewIds) {
  auto sw = below_bound_switch();
  sw.enable_repack(repack::RepackPolicy{});
  ThreeStageNetwork& network = sw.network();

  Rng rng(0xBEEF5);
  std::map<ConnectionId, MulticastRequest> live;
  std::size_t repacked = 0;
  for (int step = 0; step < 4000; ++step) {
    if (rng.next_bool(0.8)) {
      const auto request =
          random_admissible_request(rng, network, FanoutRange{1, 4});
      if (!request) continue;
      const auto id = sw.connect_with_repack(*request);
      if (!id) continue;
      for (const auto& [old_id, new_id] : sw.repack_engine()->last_moved()) {
        ++repacked;
        // The old id is stale, the new one live with the victim's request.
        const auto moved = live.extract(old_id);
        ASSERT_FALSE(moved.empty()) << "engine moved a session we never made";
        EXPECT_EQ(network.find_connection(old_id), nullptr);
        const auto* entry = network.find_connection(new_id);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->first, moved.mapped());
        live.emplace(new_id, std::move(moved.mapped()));
      }
      live.emplace(*id, *request);
    } else if (!live.empty()) {
      auto victim = live.begin();
      std::advance(victim, rng.next_below(live.size()));
      sw.disconnect(victim->first);
      live.erase(victim);
    }
  }
  ASSERT_GT(repacked, 0u) << "no repack engaged; recalibrate m / load";
  network.self_check();
  for (const auto& [id, request] : live) {
    const auto* entry = network.find_connection(id);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->first, request);
  }
}

// ---------------------------------------------------------------------------
// Migration atomicity: kill the chain mid-flight, demand bit-exact rollback
// ---------------------------------------------------------------------------

// Everything a rollback must restore: the session table in ConnectionView
// iteration order (ids, requests, routes) and the raw occupancy words of
// every stage. Order matters: the executor's undo log splices each victim
// back after its captured predecessor, so a rolled-back transaction leaves
// even the insertion-order list bit-identical.
struct FabricSnapshot {
  std::vector<std::pair<ConnectionId, ThreeStageNetwork::ConnectionView::Entry>>
      sessions;
  std::vector<std::uint64_t> out_words;

  static FabricSnapshot of(const ThreeStageNetwork& network) {
    FabricSnapshot snap;
    for (const auto& [id, entry] : network.connections()) {
      snap.sessions.emplace_back(id, entry);
    }
    const ClosParams& params = network.params();
    const auto append_stage = [&snap](const SwitchModule& module,
                                      std::size_t ports) {
      for (std::size_t port = 0; port < ports; ++port) {
        snap.out_words.push_back(module.out_word(port));
      }
    };
    for (std::size_t i = 0; i < params.r; ++i) {
      append_stage(network.input_module(i), params.m);
    }
    for (std::size_t j = 0; j < params.m; ++j) {
      append_stage(network.middle_module(j), params.r);
    }
    for (std::size_t p = 0; p < params.r; ++p) {
      append_stage(network.output_module(p), params.n);
    }
    return snap;
  }

  void expect_equal(const FabricSnapshot& other) const {
    ASSERT_EQ(sessions.size(), other.sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(sessions[i].first, other.sessions[i].first) << "session " << i;
      EXPECT_EQ(sessions[i].second.first, other.sessions[i].second.first);
      EXPECT_EQ(sessions[i].second.second, other.sessions[i].second.second);
    }
    EXPECT_EQ(out_words, other.out_words);
  }
};

TEST(RepackAtomicity, MidChainFailureRollsBackBitExact) {
  auto sw = below_bound_switch();  // m=5: blocks often, chains run deep
  sw.enable_repack(repack::RepackPolicy{});
  ThreeStageNetwork& network = sw.network();
  repack::RepackEngine& engine = *sw.repack_engine();

  // Kill every repack transaction at a rotating chain depth (1, 2, 3, ...):
  // the interruption lands after a victim was torn down and before its
  // replacement was made -- the worst window.
  std::size_t kill_at = 1;
  std::size_t injected = 0;
  bool armed = false;
  engine.set_failure_injection([&](std::size_t moves_so_far) {
    if (!armed || moves_so_far < kill_at) return false;
    ++injected;
    kill_at = kill_at % 4 + 1;
    return true;
  });

  Rng rng(0x0A7031C);
  std::vector<ConnectionId> live;
  for (int step = 0; step < 6000; ++step) {
    if (rng.next_bool(0.8)) {
      const auto request =
          random_admissible_request(rng, network, FanoutRange{1, 4});
      if (!request) continue;
      // Snapshot before each attempt; cheap at this scale, and only blocked
      // attempts with an injected kill consume it.
      const FabricSnapshot before = FabricSnapshot::of(network);
      const std::size_t injected_before = injected;
      armed = true;
      const auto id = sw.connect_with_repack(*request);
      armed = false;
      if (id) {
        live.push_back(*id);
        // Committed repacks hand the moved sessions back under new ids.
        for (const auto& [old_id, new_id] : engine.last_moved()) {
          *std::find(live.begin(), live.end(), old_id) = new_id;
        }
        EXPECT_EQ(injected, injected_before)
            << "an admit must not survive an injected failure";
        continue;
      }
      if (injected == injected_before) continue;  // plain block, no chain cut
      // The transaction died mid-chain: the fabric must be bit-exact --
      // occupancy, insertion order, and every victim revived under its
      // original id with its original request and route.
      const FabricSnapshot after = FabricSnapshot::of(network);
      before.expect_equal(after);
      EXPECT_TRUE(engine.last_moved().empty());
      network.self_check();
    } else if (!live.empty()) {
      const std::size_t victim = rng.next_below(live.size());
      sw.disconnect(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  ASSERT_GT(injected, 10u) << "hammer never hit a chain; recalibrate m / load";
}

// ---------------------------------------------------------------------------
// Unified restoration: the executor reproduces the legacy pass op for op
// ---------------------------------------------------------------------------

// The legacy restore_connections body, pre-unification: collect stranded in
// insertion (= ascending id) order, tear all down, re-route each in that
// order through the router.
RestorationReport legacy_restore(MultistageSwitch& sw) {
  RestorationReport report;
  ThreeStageNetwork& network = sw.network();
  const FaultModel* faults = network.active_fault_model();
  if (faults == nullptr) return report;

  std::vector<std::pair<ConnectionId, MulticastRequest>> stranded;
  for (const auto& [id, entry] : network.connections()) {
    if (route_uses_faults(network, entry.first, entry.second, *faults)) {
      stranded.emplace_back(id, entry.first);
    }
  }
  report.affected = stranded.size();
  for (const auto& [id, request] : stranded) sw.router().disconnect(id);
  for (const auto& [id, request] : stranded) {
    if (const auto new_id = sw.router().try_connect(request)) {
      report.restored.emplace_back(id, *new_id);
    } else {
      report.dropped.emplace_back(id, request);
    }
  }
  return report;
}

void expect_reports_equal(const RestorationReport& a, const RestorationReport& b) {
  EXPECT_EQ(a.affected, b.affected);
  EXPECT_EQ(a.restored, b.restored);
  ASSERT_EQ(a.dropped.size(), b.dropped.size());
  for (std::size_t i = 0; i < a.dropped.size(); ++i) {
    EXPECT_EQ(a.dropped[i].first, b.dropped[i].first);
    EXPECT_EQ(a.dropped[i].second, b.dropped[i].second);
  }
}

// Build twin switches with identical sessions, fail the same middles in
// both, run the legacy pass on one and the unified restore_connections on
// the other: identical reports, identical surviving fabric.
TEST(UnifiedRestoration, ReportIdenticalToLegacyPass) {
  for (const std::uint64_t seed : {0xF00Du, 0xF00Eu, 0xF00Fu}) {
    MultistageSwitch legacy({2, 4, 6, 2}, Construction::kMswDominant,
                            MulticastModel::kMSW);
    MultistageSwitch unified({2, 4, 6, 2}, Construction::kMswDominant,
                             MulticastModel::kMSW);
    FaultModel legacy_faults(legacy.network().params());
    FaultModel unified_faults(unified.network().params());
    legacy.network().attach_fault_model(&legacy_faults);
    unified.network().attach_fault_model(&unified_faults);

    Rng legacy_rng(seed);
    Rng unified_rng(seed);
    for (int i = 0; i < 14; ++i) {
      const auto a = random_admissible_request(legacy_rng, legacy.network(),
                                               FanoutRange{1, 3});
      const auto b = random_admissible_request(unified_rng, unified.network(),
                                               FanoutRange{1, 3});
      if (!a || !b) break;
      ASSERT_EQ(*a, *b);
      ASSERT_EQ(legacy.try_connect(*a).has_value(),
                unified.try_connect(*b).has_value());
    }
    ASSERT_GT(legacy.active_connections(), 4u);

    legacy_faults.fail_middle(0);
    legacy_faults.fail_middle(1);
    unified_faults.fail_middle(0);
    unified_faults.fail_middle(1);

    const RestorationReport want = legacy_restore(legacy);
    const RestorationReport got = restore_connections(unified);
    ASSERT_GT(want.affected, 0u);
    expect_reports_equal(want, got);

    // The surviving fabrics match session for session.
    auto legacy_view = legacy.network().connections();
    auto it = legacy_view.begin();
    for (const auto& [id, entry] : unified.network().connections()) {
      ASSERT_FALSE(it == legacy_view.end());
      const auto [legacy_id, legacy_entry] = *it;
      EXPECT_EQ(id, legacy_id);
      EXPECT_EQ(entry.first, legacy_entry.first);
      EXPECT_EQ(entry.second, legacy_entry.second);
      ++it;
    }
    EXPECT_TRUE(it == legacy_view.end());
    unified.network().self_check();
  }
}

// Total loss: every stranded session drops, and the reports still agree.
TEST(UnifiedRestoration, DropsIdenticalToLegacyPass) {
  MultistageSwitch legacy({2, 2, 2, 1}, Construction::kMswDominant,
                          MulticastModel::kMSW);
  MultistageSwitch unified({2, 2, 2, 1}, Construction::kMswDominant,
                           MulticastModel::kMSW);
  FaultModel legacy_faults(legacy.network().params());
  FaultModel unified_faults(unified.network().params());
  legacy.network().attach_fault_model(&legacy_faults);
  unified.network().attach_fault_model(&unified_faults);

  for (auto* sw : {&legacy, &unified}) {
    ASSERT_TRUE(sw->try_connect({{0, 0}, {{1, 0}}}).has_value());
    ASSERT_TRUE(sw->try_connect({{2, 0}, {{3, 0}}}).has_value());
  }
  for (auto* faults : {&legacy_faults, &unified_faults}) {
    faults->fail_middle(0);
    faults->fail_middle(1);
  }

  const RestorationReport want = legacy_restore(legacy);
  const RestorationReport got = restore_connections(unified);
  EXPECT_EQ(want.affected, 2u);
  EXPECT_EQ(got.dropped.size(), 2u);
  expect_reports_equal(want, got);
  EXPECT_EQ(unified.active_connections(), 0u);
}

// ---------------------------------------------------------------------------
// Classic-path identity: attached-but-disabled / attached-at-the-bound
// ---------------------------------------------------------------------------

TEST(RepackIdentity, DisabledEngineIsDecisionIdentical) {
  auto plain = below_bound_switch();
  auto attached = below_bound_switch();
  attached.enable_repack(repack::RepackPolicy{.enabled = false});

  SimConfig config = churn_config();
  const SimStats a = run_dynamic_sim(plain, config);
  config.repack = true;  // routes through connect_with_repack
  const SimStats b = run_dynamic_sim(attached, config);
  ASSERT_GT(a.blocked, 0u);
  EXPECT_EQ(a, b);  // field-by-field, including blocked and repack tallies
  EXPECT_EQ(attached.repack_engine()->sessions_moved_total(), 0u);
}

TEST(RepackIdentity, AtTheBoundTheEngineNeverEngages) {
  auto plain = MultistageSwitch::nonblocking(3, 3, 2, Construction::kMswDominant,
                                             MulticastModel::kMSW);
  auto repacking = MultistageSwitch::nonblocking(
      3, 3, 2, Construction::kMswDominant, MulticastModel::kMSW);

  SimConfig config;
  config.steps = 3000;
  config.arrival_fraction = 0.8;
  config.fanout = {1, 4};
  config.seed = 0xB0D;
  const SimStats a = run_dynamic_sim(plain, config);
  config.repack = true;
  const SimStats b = run_dynamic_sim(repacking, config);
  EXPECT_EQ(a.blocked, 0u);  // Theorem 1 provisioning
  EXPECT_EQ(a, b);
  EXPECT_EQ(repacking.repack_engine()->sessions_moved_total(), 0u);
}

// ---------------------------------------------------------------------------
// ThreeStageNetwork::reinstall -- the rollback primitive
// ---------------------------------------------------------------------------

TEST(Reinstall, RevivesExactlyTheReleasedId) {
  MultistageSwitch sw({2, 2, 3, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  ThreeStageNetwork& network = sw.network();

  const MulticastRequest request{{0, 0}, {{2, 0}}};
  const auto id = sw.try_connect(request);
  ASSERT_TRUE(id.has_value());
  const Route route = network.find_connection(*id)->second;

  sw.disconnect(*id);
  EXPECT_EQ(network.find_connection(*id), nullptr);

  const ConnectionId revived = network.reinstall(*id, request, route);
  EXPECT_EQ(revived, *id);
  const auto* entry = network.find_connection(*id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->first, request);
  EXPECT_EQ(entry->second, route);
  network.self_check();

  // A revived slot is active again: reinstalling twice must throw.
  EXPECT_THROW((void)network.reinstall(*id, request, route), std::logic_error);
  sw.disconnect(*id);
}

TEST(Reinstall, SplicesBackAtTheRequestedViewPosition) {
  MultistageSwitch sw({2, 2, 3, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  ThreeStageNetwork& network = sw.network();

  // Three sessions on disjoint endpoints -> view order [a, b, c].
  const MulticastRequest ra{{0, 0}, {{2, 0}}};
  const MulticastRequest rb{{1, 0}, {{3, 0}}};
  const MulticastRequest rc{{2, 0}, {{0, 0}}};
  const auto a = sw.try_connect(ra);
  const auto b = sw.try_connect(rb);
  const auto c = sw.try_connect(rc);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(network.predecessor_of(*a), 0u);
  EXPECT_EQ(network.predecessor_of(*b), *a);
  EXPECT_EQ(network.predecessor_of(*c), *b);
  EXPECT_THROW((void)network.predecessor_of(*a + (1ull << 32)),
               std::out_of_range);

  const auto order = [&network] {
    std::vector<ConnectionId> ids;
    for (const auto& [id, entry] : network.connections()) ids.push_back(id);
    return ids;
  };

  // Release the middle session and splice it back where it was.
  const Route route_b = network.find_connection(*b)->second;
  sw.disconnect(*b);
  EXPECT_EQ(network.reinstall(*b, rb, route_b, *a), *b);
  EXPECT_EQ(order(), (std::vector<ConnectionId>{*a, *b, *c}));

  // Release the head and splice it back to the head (after = 0).
  const Route route_a = network.find_connection(*a)->second;
  sw.disconnect(*a);
  EXPECT_EQ(network.reinstall(*a, ra, route_a, 0), *a);
  EXPECT_EQ(order(), (std::vector<ConnectionId>{*a, *b, *c}));

  // Default (no position) still appends at the tail.
  sw.disconnect(*a);
  EXPECT_EQ(network.reinstall(*a, ra, route_a), *a);
  EXPECT_EQ(order(), (std::vector<ConnectionId>{*b, *c, *a}));

  // A stale `after` rejects the call before any state moves.
  sw.disconnect(*a);
  EXPECT_THROW((void)network.reinstall(*a, ra, route_a, *a),
               std::logic_error);
  EXPECT_EQ(order(), (std::vector<ConnectionId>{*b, *c}));
  network.self_check();
}

TEST(Reinstall, RejectsActiveReusedAndUnknownIds) {
  MultistageSwitch sw({2, 2, 3, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  ThreeStageNetwork& network = sw.network();

  const MulticastRequest first{{0, 0}, {{2, 0}}};
  const auto id = sw.try_connect(first);
  ASSERT_TRUE(id.has_value());
  const Route route = network.find_connection(*id)->second;

  // Active slot.
  EXPECT_THROW((void)network.reinstall(*id, first, route), std::logic_error);

  // Slot reused by a newer connection: the stale id must be rejected.
  sw.disconnect(*id);
  const MulticastRequest second{{1, 1}, {{3, 1}}};
  const auto reuse = sw.try_connect(second);
  ASSERT_TRUE(reuse.has_value());
  ASSERT_NE(*reuse, *id);
  EXPECT_THROW((void)network.reinstall(*id, first, route), std::logic_error);

  // Slot index that was never allocated.
  EXPECT_THROW((void)network.reinstall((std::uint64_t{1} << 32) | 0xFFFF, first,
                                       route),
               std::logic_error);
  network.self_check();
}

TEST(Reinstall, ExecutorRollbackRevivesVictimsUnderOriginalIds) {
  MultistageSwitch sw({2, 2, 3, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  const auto a = sw.try_connect({{0, 0}, {{2, 0}}});
  const auto b = sw.try_connect({{1, 1}, {{3, 1}}});
  ASSERT_TRUE(a && b);
  const FabricSnapshot before = FabricSnapshot::of(sw.network());

  repack::RepackExecutor executor(sw.router());
  executor.begin();
  ASSERT_TRUE(executor.release(*a));
  ASSERT_TRUE(executor.release(*b));
  const auto extra = executor.try_admit({{2, 0}, {{0, 0}}});
  ASSERT_TRUE(extra.has_value());
  executor.rollback();

  // The transaction is invisible: same ids, same routes, same occupancy.
  const FabricSnapshot after = FabricSnapshot::of(sw.network());
  before.expect_equal(after);
  EXPECT_EQ(sw.network().find_connection(*extra), nullptr);
  sw.network().self_check();
}

// ---------------------------------------------------------------------------
// PaullMatrix swap chains (the offline view of the same rearrangement)
// ---------------------------------------------------------------------------

TEST(PaullChains, LastChainExposesTheRearrangingMoves) {
  // r=3 output/input modules, m=2 middles, n=2 ports per module. The first
  // three inserts are fast-path (no symbol conflict); the fourth finds every
  // symbol busy in its row or column and must run an alternating chain.
  PaullMatrix paull(3, 2, 2);
  ASSERT_TRUE(paull.insert(0, 2).has_value());
  EXPECT_TRUE(paull.last_chain().empty());
  ASSERT_TRUE(paull.insert(0, 0).has_value());
  EXPECT_TRUE(paull.last_chain().empty());
  ASSERT_TRUE(paull.insert(1, 1).has_value());
  EXPECT_TRUE(paull.last_chain().empty());

  const std::size_t log_before = paull.move_log().size();
  const auto placed = paull.insert(1, 0);
  ASSERT_TRUE(placed.has_value());
  const std::span<const MiddleMove> chain = paull.last_chain();
  ASSERT_FALSE(chain.empty());
  // The chain is exactly the tail the insert appended to the full log.
  ASSERT_EQ(paull.move_log().size(), log_before + chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i], paull.move_log()[log_before + i]);
    EXPECT_NE(chain[i].from_middle, chain[i].to_middle);
    EXPECT_LT(chain[i].to_middle, paull.symbols());
  }
  paull.check_invariants();

  // The next fast-path insert resets the view to empty.
  ASSERT_TRUE(paull.insert(2, 2).has_value());
  EXPECT_TRUE(paull.last_chain().empty());
  paull.check_invariants();
}

}  // namespace
}  // namespace wdm
