// Three-stage network state: route validation, install/release, multiset
// views (§3.3), and deep self-checks.
#include "multistage/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "multistage/builder.h"
#include "repack/repack.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {
namespace {

ClosParams small_params() { return {2, 2, 3, 2}; }  // n=2 r=2 m=3 k=2, N=4

Route unicast_route(std::size_t middle, Wavelength branch_lane,
                    std::size_t out_module, Wavelength leg_lane,
                    WavelengthEndpoint destination) {
  return Route{{RouteBranch{middle, branch_lane,
                            {DeliveryLeg{out_module, leg_lane, {destination}}}}}};
}

TEST(ClosParams, Validation) {
  EXPECT_THROW((ClosParams{0, 1, 1, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((ClosParams{2, 2, 1, 1}).validate(), std::invalid_argument);  // m < n
  EXPECT_NO_THROW((ClosParams{2, 2, 2, 1}).validate());
  EXPECT_EQ((ClosParams{3, 4, 5, 2}).port_count(), 12u);
}

TEST(ClosParams, BalancedFactoryRequiresPerfectSquare) {
  const ClosParams params = balanced_params(16, 2, 4);
  EXPECT_EQ(params.n, 4u);
  EXPECT_EQ(params.r, 4u);
  EXPECT_THROW((void)balanced_params(15, 2, 4), std::invalid_argument);
}

TEST(ThreeStageNetwork, ModuleModelsFollowConstruction) {
  const ThreeStageNetwork msw(small_params(), Construction::kMswDominant,
                              MulticastModel::kMAW);
  EXPECT_EQ(msw.input_module(0).model(), MulticastModel::kMSW);
  EXPECT_EQ(msw.middle_module(1).model(), MulticastModel::kMSW);
  EXPECT_EQ(msw.output_module(1).model(), MulticastModel::kMAW);

  const ThreeStageNetwork maw(small_params(), Construction::kMawDominant,
                              MulticastModel::kMSW);
  EXPECT_EQ(maw.input_module(0).model(), MulticastModel::kMAW);
  EXPECT_EQ(maw.middle_module(2).model(), MulticastModel::kMAW);
  EXPECT_EQ(maw.output_module(0).model(), MulticastModel::kMSW);
}

TEST(ThreeStageNetwork, PortToModuleMapping) {
  const ThreeStageNetwork network(ClosParams{3, 2, 3, 1},
                                  Construction::kMswDominant,
                                  MulticastModel::kMSW);
  EXPECT_EQ(network.input_module_of(0), 0u);
  EXPECT_EQ(network.input_module_of(2), 0u);
  EXPECT_EQ(network.input_module_of(3), 1u);
  EXPECT_EQ(network.local_port(4), 1u);
  EXPECT_EQ(network.port_count(), 6u);
}

TEST(ThreeStageNetwork, InstallReleaseRoundTrip) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 1}, {{2, 1}}};
  const auto id =
      network.install(request, unicast_route(0, 1, 1, 1, {2, 1}));
  EXPECT_EQ(network.active_connections(), 1u);
  EXPECT_TRUE(network.input_busy({0, 1}));
  EXPECT_TRUE(network.output_busy({2, 1}));
  EXPECT_FALSE(network.middle_module(0).out_lane_free(1, 1));
  network.self_check();

  network.release(id);
  EXPECT_EQ(network.active_connections(), 0u);
  EXPECT_FALSE(network.input_busy({0, 1}));
  EXPECT_TRUE(network.middle_module(0).out_lane_free(1, 1));
  network.self_check();
  EXPECT_THROW(network.release(id), std::out_of_range);
}

TEST(ThreeStageNetwork, CheckRouteCatchesStructuralErrors) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 0}, {{0, 0}, {2, 0}}};

  // Missing destination.
  EXPECT_TRUE(
      network.check_route(request, unicast_route(0, 0, 0, 0, {0, 0})).has_value());
  // Destination outside the leg's module.
  Route wrong_module = unicast_route(0, 0, 0, 0, {2, 0});
  wrong_module.branches[0].legs[0].destinations = {{0, 0}, {2, 0}};
  EXPECT_TRUE(network.check_route(request, wrong_module).has_value());
  // Same middle twice.
  Route doubled;
  doubled.branches = {
      RouteBranch{0, 0, {DeliveryLeg{0, 0, {{0, 0}}}}},
      RouteBranch{0, 0, {DeliveryLeg{1, 0, {{2, 0}}}}},
  };
  EXPECT_TRUE(network.check_route(request, doubled).has_value());
  // Out-of-range middle / lanes.
  EXPECT_TRUE(
      network.check_route(request, unicast_route(9, 0, 0, 0, {0, 0})).has_value());
  EXPECT_TRUE(
      network.check_route(request, unicast_route(0, 5, 0, 0, {0, 0})).has_value());
  // A correct two-branch route passes.
  Route good;
  good.branches = {
      RouteBranch{0, 0, {DeliveryLeg{0, 0, {{0, 0}}}}},
      RouteBranch{1, 0, {DeliveryLeg{1, 0, {{2, 0}}}}},
  };
  EXPECT_EQ(network.check_route(request, good), std::nullopt);
}

TEST(ThreeStageNetwork, MswDominantRejectsLaneShiftInRoute) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 0}, {{2, 0}}};
  // Branch tries to leave the input module on λ2 while the source is λ1:
  // the MSW input module cannot convert.
  const auto reason = network.check_route(request, unicast_route(0, 1, 1, 0, {2, 0}));
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("input module"), std::string::npos);
}

TEST(ThreeStageNetwork, MawDominantAllowsLaneShift) {
  ThreeStageNetwork network(small_params(), Construction::kMawDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 0}, {{2, 0}}};
  // λ1 in, λ2 across the first hop, λ2 across the second... but the MSW
  // output module must receive on the destination lane (λ1), so leg lane 0.
  EXPECT_EQ(network.check_route(request, unicast_route(0, 1, 1, 0, {2, 0})),
            std::nullopt);
  // Feeding the MSW output module on λ2 for a λ1 destination must fail.
  const auto reason = network.check_route(request, unicast_route(0, 1, 1, 1, {2, 0}));
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("output module"), std::string::npos);
}

TEST(ThreeStageNetwork, InstallRejectsBusyEndpointOrBadRoute) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 0}, {{2, 0}}};
  network.install(request, unicast_route(0, 0, 1, 0, {2, 0}));
  // Same input wavelength.
  EXPECT_THROW(network.install(request, unicast_route(1, 0, 1, 0, {2, 0})),
               std::logic_error);
  // Fresh request over an occupied link lane.
  const MulticastRequest rival{{1, 0}, {{3, 0}}};
  EXPECT_THROW(network.install(rival, unicast_route(0, 0, 1, 0, {3, 0})),
               std::logic_error);
  // Same route shape via the other middle is fine.
  EXPECT_NO_THROW(network.install(rival, unicast_route(1, 0, 1, 0, {3, 0})));
}

// install() and reinstall() check only the request's shape and the route;
// a busy endpoint is caught by the edge modules' dry runs inside check_route.
// Either way the call must throw and leave every word, id and count alone.
TEST(ThreeStageNetwork, InstallOverBusyEndpointLeavesStateUnchanged) {
  ThreeStageNetwork network({2, 2, 3, 2}, Construction::kMawDominant,
                            MulticastModel::kMAW);
  const auto snapshot = [&network] {
    std::vector<std::uint64_t> words;
    for (std::size_t p = 0; p < network.port_count(); ++p) {
      words.push_back(network.input_lanes_busy(p));
      words.push_back(network.output_lanes_busy(p));
    }
    for (std::size_t j = 0; j < network.params().m; ++j) {
      for (std::size_t p = 0; p < network.params().r; ++p) {
        words.push_back(network.middle_module(j).out_word(p));
        words.push_back(network.input_module(p).out_word(j));
      }
    }
    for (const auto& [id, entry] : network.connections()) words.push_back(id);
    words.push_back(network.active_connections());
    return words;
  };
  const ConnectionId held =
      network.install({{0, 0}, {{2, 1}}}, unicast_route(0, 0, 1, 1, {2, 1}));
  const ConnectionId spare =
      network.install({{1, 1}, {{0, 0}}}, unicast_route(1, 1, 0, 0, {0, 0}));
  network.release(spare);
  const auto before = snapshot();

  // Busy input (0, λ0), routed over an idle middle and idle link lanes.
  const MulticastRequest busy_input{{0, 0}, {{3, 0}}};
  ASSERT_EQ(network.check_admissible(busy_input), ConnectError::kInputBusy);
  EXPECT_THROW(network.install(busy_input, unicast_route(2, 1, 1, 0, {3, 0})),
               std::logic_error);
  // Busy output (2, λ1) from a free input, again over idle link lanes.
  const MulticastRequest busy_output{{1, 0}, {{2, 1}}};
  ASSERT_EQ(network.check_admissible(busy_output), ConnectError::kOutputBusy);
  EXPECT_THROW(network.install(busy_output, unicast_route(2, 1, 1, 0, {2, 1})),
               std::logic_error);
  // reinstall validates the same way and keeps the free slot free.
  EXPECT_THROW(network.reinstall(spare, busy_input, unicast_route(2, 1, 1, 0, {3, 0})),
               std::logic_error);
  EXPECT_THROW(network.reinstall(spare, busy_output, unicast_route(2, 1, 1, 0, {2, 1})),
               std::logic_error);

  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(network.active_connections(), 1u);
  EXPECT_TRUE(network.connections().contains(held));
  EXPECT_FALSE(network.connections().contains(spare));
  network.self_check();
  // The untouched free slot still revives under its id.
  EXPECT_EQ(network.reinstall(spare, {{1, 1}, {{0, 0}}},
                              unicast_route(1, 1, 0, 0, {0, 0})),
            spare);
  network.self_check();
}

TEST(ThreeStageNetwork, DestinationMultisetView) {
  ThreeStageNetwork network(small_params(), Construction::kMawDominant,
                            MulticastModel::kMAW);
  // Two connections through middle 0 toward output module 1 on both lanes.
  network.install({{0, 0}, {{2, 0}}}, unicast_route(0, 0, 1, 0, {2, 0}));
  network.install({{0, 1}, {{2, 1}}}, unicast_route(0, 1, 1, 1, {2, 1}));
  const DestinationMultiset multiset = network.middle_destination_multiset(0);
  EXPECT_EQ(multiset.multiplicity(1), 2u);  // saturated: k = 2
  EXPECT_EQ(multiset.multiplicity(0), 0u);
  EXPECT_EQ(multiset.saturated_count(), 1u);
  EXPECT_FALSE(multiset.is_null());

  const auto plane0 = network.middle_plane_destinations(0, 0);
  EXPECT_FALSE(plane0[0]);
  EXPECT_TRUE(plane0[1]);
}

TEST(ThreeStageNetwork, MultiBranchMulticastInstall) {
  // One connection fanned over two middles, destinations in both modules.
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 0}, {{0, 0}, {1, 0}, {2, 0}}};
  // §2.1 allows at most one wavelength per output port per connection, and
  // ports 0,1 are both in output module 0 -> one leg with two destinations.
  Route route;
  route.branches = {
      RouteBranch{0, 0, {DeliveryLeg{0, 0, {{0, 0}, {1, 0}}}}},
      RouteBranch{2, 0, {DeliveryLeg{1, 0, {{2, 0}}}}},
  };
  EXPECT_EQ(network.check_route(request, route), std::nullopt);
  const auto id = network.install(request, route);
  network.self_check();
  EXPECT_EQ(network.connections().at(id).spread(), 2u);
  network.release(id);
  network.self_check();
}

TEST(ThreeStageNetwork, TryReleaseRejectsStaleGenerations) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 1}, {{2, 1}}};
  const Route route = unicast_route(0, 1, 1, 1, {2, 1});

  const ConnectionId first = network.install(request, route);
  EXPECT_TRUE(network.try_release(first));
  // Double release: rejected without touching state.
  EXPECT_FALSE(network.try_release(first));
  EXPECT_FALSE(network.connections().contains(first));

  // The slot is recycled under a fresh generation; the disposed id must
  // keep failing even though its slot is live again.
  const ConnectionId second = network.install(request, route);
  EXPECT_NE(first, second);
  EXPECT_FALSE(network.try_release(first));
  EXPECT_FALSE(network.connections().contains(first));
  ASSERT_TRUE(network.connections().contains(second));
  EXPECT_EQ(network.connections().at(second).request(), request);
  EXPECT_EQ(network.active_connections(), 1u);
  network.self_check();
  EXPECT_TRUE(network.try_release(second));
  // Garbage ids (unknown slot far past the table) are also rejected.
  EXPECT_FALSE(network.try_release(~ConnectionId{0}));
}

TEST(ThreeStageNetwork, StaleIdHammerKeepsFreeListIntact) {
  // Satellite audit: heavy install/release cycling with constant replays of
  // disposed ids. A stale acceptance would corrupt the slot free list and
  // blow up active_connections / self_check.
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest even{{0, 0}, {{2, 0}}};
  const Route even_route = unicast_route(0, 0, 1, 0, {2, 0});
  const MulticastRequest odd{{1, 1}, {{3, 1}}};
  const Route odd_route = unicast_route(1, 1, 1, 1, {3, 1});

  std::vector<ConnectionId> graveyard;
  for (int cycle = 0; cycle < 500; ++cycle) {
    const ConnectionId a = network.install(even, even_route);
    const ConnectionId b = network.install(odd, odd_route);
    for (const ConnectionId ghost : graveyard) {
      ASSERT_FALSE(network.try_release(ghost));
      ASSERT_FALSE(network.connections().contains(ghost));
    }
    EXPECT_EQ(network.active_connections(), 2u);
    network.release(b);
    network.release(a);
    graveyard.push_back(a);
    graveyard.push_back(b);
    if (graveyard.size() > 16) graveyard.erase(graveyard.begin());
    if (cycle % 100 == 0) network.self_check();
  }
  EXPECT_EQ(network.active_connections(), 0u);
  network.self_check();
}

// -- middle-stage rows ----------------------------------------------------------
// self_check() re-derives all four row families (cand_lane, cand_any,
// serve_lane, serve_any) from the module occupancy words, so calling it after
// every mutation proves the rows stay exact on every path that changes
// occupancy.

TEST(NetworkRows, StartAllFreeIncludingPaddingBits) {
  const ThreeStageNetwork network(ClosParams{2, 3, 65, 2},
                                  Construction::kMawDominant,
                                  MulticastModel::kMAW);
  ASSERT_EQ(network.row_words(), 2u);
  for (const Wavelength lane : {Wavelength{0}, Wavelength{1}, kNoWavelength}) {
    EXPECT_EQ(network.candidate_row(2, lane)[0], ~0ull);
    EXPECT_EQ(network.candidate_row(2, lane)[1], 1ull);  // middle 64 only
    EXPECT_EQ(network.serve_row(1, lane)[1], 1ull);
  }
  network.self_check();
}

TEST(NetworkRows, ChurnKeepsRowsExact) {
  // Seeded churn through install, release, and reinstall (with and without
  // `after`), at one-lane and full-word links and one-, two- and three-word
  // rows.
  std::uint64_t seed = 0x50B5;
  for (const std::size_t k : {1u, 64u}) {
    for (const std::size_t m : {5u, 65u, 136u}) {
      const Construction construction = (m + k) % 2 == 0
                                            ? Construction::kMswDominant
                                            : Construction::kMawDominant;
      MultistageSwitch sw(ClosParams{3, 3, m, k}, construction,
                          MulticastModel::kMAW);
      ThreeStageNetwork& network = sw.network();
      SCOPED_TRACE(network.params().to_string());
      Rng rng(seed++);
      std::vector<ConnectionId> live;
      std::size_t reinstalls = 0;
      for (int step = 0; step < 150; ++step) {
        const std::uint64_t action = rng.next_below(10);
        if (live.empty() || action < 5) {
          if (const auto request = random_admissible_request(rng, network, {1, 5})) {
            if (const auto id = sw.try_connect(*request)) live.push_back(*id);
          }
        } else if (action < 8) {
          const std::size_t victim = rng.next_below(live.size());
          sw.disconnect(live[victim]);
          live[victim] = live.back();
          live.pop_back();
        } else {
          // Release then revive the exact id, spliced back in place
          // (`after`) or appended at the tail.
          const ConnectionId id = live[rng.next_below(live.size())];
          const ConnectionId prev = network.predecessor_of(id);
          const auto view = network.connections().at(id);
          const MulticastRequest request = view.request();
          const Route route = view.route();
          network.release(id);
          network.self_check();
          const ConnectionId revived =
              action == 8 ? network.reinstall(id, request, route, prev)
                          : network.reinstall(id, request, route);
          ASSERT_EQ(revived, id);
          ++reinstalls;
        }
        network.self_check();
      }
      EXPECT_GT(reinstalls, 5u);
      for (const ConnectionId id : live) sw.disconnect(id);
      network.self_check();
    }
  }
}

// Mixed connect/disconnect script on a switch built at its nonblocking bound:
// endpoint-inadmissible requests are refused up front, so no admissible
// request may ever come back kBlocked, and the rows must stay exact after
// every op.
void check_mixed_churn(std::size_t n, std::size_t r, std::size_t k,
                       Construction construction, MulticastModel model) {
  auto sw = MultistageSwitch::nonblocking(n, r, k, construction, model);
  ThreeStageNetwork& network = sw.network();
  SCOPED_TRACE(network.params().to_string());
  Rng rng(0xD15C0);
  std::vector<ConnectionId> live;
  std::size_t connects = 0;
  std::size_t disconnects = 0;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const MulticastRequest request = random_request(
          rng, sw.port_count(), sw.lane_count(), sw.model(), {1, 4});
      if (const auto id = sw.try_connect(request)) {
        live.push_back(*id);
        ++connects;
      } else {
        EXPECT_NE(sw.last_error(), ConnectError::kBlocked) << "step " << step;
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      ASSERT_TRUE(sw.try_disconnect(live[victim]));
      live[victim] = live.back();
      live.pop_back();
      ++disconnects;
    }
    network.self_check();
  }
  EXPECT_GT(connects, 0u);
  EXPECT_GT(disconnects, 0u);
  for (const ConnectionId id : live) sw.disconnect(id);
  EXPECT_EQ(network.active_connections(), 0u);
  network.self_check();
}

TEST(NetworkRows, MixedChurnMswDominant) {
  check_mixed_churn(4, 4, 2, Construction::kMswDominant, MulticastModel::kMSW);
}

TEST(NetworkRows, MixedChurnMawDominant) {
  check_mixed_churn(3, 4, 3, Construction::kMawDominant, MulticastModel::kMAW);
}

TEST(NetworkRows, RepackRollbackKeepsRowsExact) {
  // m=4 is below the Theorem 1 bound of n=r=4, so requests block and repack
  // runs; every few transactions are killed mid-chain and rolled back
  // through ThreeStageNetwork::reinstall.
  MultistageSwitch sw(ClosParams{4, 4, 4, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  sw.enable_repack(repack::RepackPolicy{});
  ThreeStageNetwork& network = sw.network();
  std::size_t injected = 0;
  std::size_t calls = 0;
  sw.repack_engine()->set_failure_injection([&](std::size_t) {
    if (++calls % 3 != 0) return false;
    ++injected;
    return true;
  });

  Rng rng(0x0A7C);
  std::vector<ConnectionId> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.next_bool(0.7)) {
      const auto request = random_admissible_request(rng, network, {1, 4});
      if (!request) continue;
      if (const auto id = sw.connect_with_repack(*request)) {
        live.push_back(*id);
        for (const auto& [old_id, new_id] : sw.repack_engine()->last_moved()) {
          *std::find(live.begin(), live.end(), old_id) = new_id;
        }
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      sw.disconnect(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    network.self_check();
  }
  EXPECT_GT(injected, 10u);
  EXPECT_GT(sw.repack_engine()->sessions_moved_total(), 0u);
}


// -- endpoint occupancy -------------------------------------------------------
// Endpoint busy state is read from the edge modules' port words; these tests
// hold it against a plain std::set reference kept from the test's own record
// of what is installed.

TEST(NetworkEndpoints, BusyQueriesMatchReference) {
  const MulticastModel models[] = {MulticastModel::kMSW, MulticastModel::kMSDW,
                                   MulticastModel::kMAW};
  std::uint64_t seed = 0xE9D0;
  for (const Construction construction :
       {Construction::kMswDominant, Construction::kMawDominant}) {
    for (const MulticastModel model : models) {
      auto sw = MultistageSwitch::nonblocking(3, 3, 3, construction, model);
      ThreeStageNetwork& network = sw.network();
      const std::size_t N = network.port_count();
      const std::size_t k = network.lane_count();
      SCOPED_TRACE(network.params().to_string() + " " + model_name(model));
      Rng rng(seed++);
      std::map<ConnectionId, MulticastRequest> live;
      std::set<WavelengthEndpoint> busy_in;
      std::set<WavelengthEndpoint> busy_out;
      const auto mark = [&](const MulticastRequest& request, bool busy) {
        if (busy) {
          busy_in.insert(request.input);
          busy_out.insert(request.outputs.begin(), request.outputs.end());
        } else {
          busy_in.erase(request.input);
          for (const auto& out : request.outputs) busy_out.erase(out);
        }
      };
      const auto reference_error =
          [&](const MulticastRequest& request) -> std::optional<ConnectError> {
        if (const auto error = check_request_shape(request, N, k, model)) return error;
        if (busy_in.contains(request.input)) return ConnectError::kInputBusy;
        for (const auto& out : request.outputs) {
          if (busy_out.contains(out)) return ConnectError::kOutputBusy;
        }
        return std::nullopt;
      };
      std::size_t reinstalls = 0;
      std::set<ConnectError> kinds_seen;
      for (int step = 0; step < 200; ++step) {
        const std::uint64_t action = rng.next_below(10);
        if (live.empty() || action < 5) {
          if (const auto request = random_admissible_request(rng, network, {1, 4})) {
            if (const auto id = sw.try_connect(*request)) {
              live.emplace(*id, *request);
              mark(*request, true);
            }
          }
        } else if (action < 8) {
          auto victim = std::next(live.begin(), rng.next_below(live.size()));
          network.release(victim->first);
          mark(victim->second, false);
          live.erase(victim);
        } else {
          // Release, check the endpoints went free, then revive the exact id
          // spliced back in place (`after`) or appended at the tail.
          const auto& [id, request] =
              *std::next(live.begin(), rng.next_below(live.size()));
          const ConnectionId prev = network.predecessor_of(id);
          const auto view = network.connections().at(id);
          const MulticastRequest stored = view.request();
          const Route route = view.route();
          network.release(id);
          mark(request, false);
          EXPECT_FALSE(network.input_busy(request.input));
          for (const auto& out : request.outputs) EXPECT_FALSE(network.output_busy(out));
          EXPECT_EQ(network.check_admissible(request), std::nullopt);
          const ConnectionId revived =
              action == 8 ? network.reinstall(id, stored, route, prev)
                          : network.reinstall(id, stored, route);
          ASSERT_EQ(revived, id);
          mark(request, true);
          ++reinstalls;
        }

        for (std::size_t port = 0; port < N; ++port) {
          std::uint64_t in_word = 0;
          std::uint64_t out_word = 0;
          for (Wavelength lane = 0; lane < k; ++lane) {
            const bool in = busy_in.contains({port, lane});
            const bool out = busy_out.contains({port, lane});
            ASSERT_EQ(network.input_busy({port, lane}), in) << port << "/" << lane;
            ASSERT_EQ(network.output_busy({port, lane}), out) << port << "/" << lane;
            in_word |= std::uint64_t{in} << lane;
            out_word |= std::uint64_t{out} << lane;
          }
          ASSERT_EQ(network.input_lanes_busy(port), in_word) << port;
          ASSERT_EQ(network.output_lanes_busy(port), out_word) << port;
        }
        // Out-of-range endpoints are never busy.
        EXPECT_FALSE(network.input_busy({N, 0}));
        EXPECT_FALSE(network.output_busy({0, static_cast<Wavelength>(k)}));

        // Probe requests drawn under every model's lane discipline, some with
        // a destination overwritten by a random in- or out-of-range endpoint,
        // so every ConnectError kind admission can return shows up.
        for (int probe = 0; probe < 8; ++probe) {
          MulticastRequest request =
              random_request(rng, N, k, models[rng.next_below(3)], {1, 4});
          if (rng.next_bool(0.3)) {
            request.outputs[rng.next_below(request.outputs.size())] = {
                rng.next_below(N + 1), static_cast<Wavelength>(rng.next_below(k))};
          }
          const auto expected = reference_error(request);
          ASSERT_EQ(network.check_admissible(request), expected)
              << request.to_string();
          if (expected) kinds_seen.insert(*expected);
        }
      }
      network.self_check();
      EXPECT_GT(reinstalls, 5u);
      EXPECT_TRUE(kinds_seen.contains(ConnectError::kInputBusy));
      EXPECT_TRUE(kinds_seen.contains(ConnectError::kOutputBusy));
      EXPECT_TRUE(kinds_seen.contains(ConnectError::kBadGeometry));
    }
  }
}

// -- malformed routes --------------------------------------------------------
// check_route finds duplicate and missing destinations by comparing the
// route's destinations pairwise; each failure keeps its exact reason.

TEST(NetworkRoutes, MalformedRoutesKeepTheirReasons) {
  ThreeStageNetwork network(small_params(), Construction::kMswDominant,
                            MulticastModel::kMSW);
  const MulticastRequest request{{0, 0}, {{0, 0}, {2, 0}}};
  const auto two_branch = [](std::vector<WavelengthEndpoint> first,
                             std::vector<WavelengthEndpoint> second) {
    Route route;
    route.branches = {
        RouteBranch{0, 0, {DeliveryLeg{0, 0, std::move(first)}}},
        RouteBranch{1, 0, {DeliveryLeg{1, 0, std::move(second)}}},
    };
    return route;
  };

  EXPECT_EQ(network.check_route(request, two_branch({{0, 0}, {0, 0}}, {{2, 0}})),
            "destination (p0,λ1) routed twice");
  EXPECT_EQ(network.check_route(request, two_branch({{0, 0}}, {{3, 0}})),
            "destination (p2,λ1) missing from route");
  EXPECT_EQ(network.check_route(request, unicast_route(0, 0, 0, 0, {0, 0})),
            "route covers 1 of 2 destinations");
  EXPECT_EQ(network.check_route(request, two_branch({{0, 0}, {1, 0}}, {{2, 0}})),
            "route covers 3 of 2 destinations");

  // A destination lane >= k is never counted as routed twice: it is reported
  // missing when the request names it, and it inflates the cover count when
  // it repeats.
  const MulticastRequest beyond_k{{0, 0}, {{0, 0}, {2, 5}}};
  EXPECT_EQ(network.check_route(beyond_k, two_branch({{0, 0}}, {{2, 5}})),
            "destination (p2,λ6) missing from route");
  EXPECT_EQ(network.check_route(beyond_k, two_branch({{0, 0}}, {{2, 5}, {2, 5}})),
            "route covers 3 of 2 destinations");
  EXPECT_EQ(network.check_route(request, two_branch({{0, 0}}, {{2, 5}})),
            "destination (p2,λ1) missing from route");

  // Nothing was installed along the way, and the scratch leaves no trace:
  // the well-formed route still validates.
  EXPECT_EQ(network.check_route(request, two_branch({{0, 0}}, {{2, 0}})), std::nullopt);
  EXPECT_EQ(network.active_connections(), 0u);
}

}  // namespace
}  // namespace wdm
