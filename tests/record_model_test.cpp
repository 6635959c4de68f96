// Flat connection records checked against a reference model.
//
// ThreeStageNetwork stores each connection once, as a packed record in an
// arena, and reads it through a RecordView. This property test drives
// seeded random sequences of install, reinstall (with and without `after`),
// release and grow-style release + install -- grown, or rolled back from
// the record's copied words -- mirrors every step in a plain std::map of
// entries plus an order list, and after every step checks that
//   * every RecordView accessor agrees with the installed (request, route):
//     input, outputs in request order, the walk's branch heads, legs and
//     global destination ports, and the request()/route() builders;
//   * connections() yields the reference ids in the reference order,
//     at(id) agrees with iteration, find_connection materializes the same
//     entry, predecessor_of agrees with the order, and released ids are
//     gone;
//   * a twin network driven with the reference values -- the rollback that
//     reinstalls a copied (request, Route) -- mints the same ids in the
//     same view order as the rollback from copied words;
//   * self_check() passes (module words, busy counts and middle-stage rows
//     rebuilt from the records).
// Geometries: both constructions x MSW/MSDW/MAW at k = 64 (lane 63 fills the
// record's six-bit lane field) and m >= 65 (two-word middle-stage rows). MAW
// requests draw a lane per destination, and fanouts reach N.
//
// A second test reads one loaded network from four threads at once: views
// write nothing, so a ThreadSanitizer build of this binary (labelled tsan)
// must stay silent and every reader must see the single-threaded pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "multistage/routing.h"
#include "util/rng.h"

namespace wdm {
namespace {

using Entry = std::pair<MulticastRequest, Route>;

struct Reference {
  std::map<ConnectionId, Entry> entries;
  std::vector<ConnectionId> order;  // view (insertion) order

  void erase(ConnectionId id) {
    entries.erase(id);
    order.erase(std::find(order.begin(), order.end(), id));
  }
  /// Insert at the tail, or directly after `*after` (0 = the head).
  void insert(ConnectionId id, Entry entry, std::optional<ConnectionId> after) {
    entries.emplace(id, std::move(entry));
    if (!after) {
      order.push_back(id);
    } else if (*after == 0) {
      order.insert(order.begin(), id);
    } else {
      order.insert(std::find(order.begin(), order.end(), *after) + 1, id);
    }
  }
};

Wavelength random_lane(Rng& rng, std::size_t k) {
  return static_cast<Wavelength>(rng.next_below(k));
}

/// A request legal under the network model over free endpoints, with its
/// outputs in random port order, or nullopt when the draw hit busy ones.
std::optional<MulticastRequest> draw_request(Rng& rng, const ThreeStageNetwork& network) {
  const std::size_t N = network.port_count();
  const std::size_t k = network.lane_count();
  const MulticastModel model = network.network_model();
  MulticastRequest request;
  request.input = {rng.next_below(N), random_lane(rng, k)};
  if (network.input_busy(request.input)) return std::nullopt;
  std::vector<std::size_t> ports(N);
  for (std::size_t p = 0; p < N; ++p) ports[p] = p;
  for (std::size_t i = N; i > 1; --i) std::swap(ports[i - 1], ports[rng.next_below(i)]);
  const std::size_t fanout = 1 + rng.next_below(N);
  const Wavelength shared =
      model == MulticastModel::kMSW ? request.input.lane : random_lane(rng, k);
  for (std::size_t i = 0; i < fanout; ++i) {
    const WavelengthEndpoint out{
        ports[i], model == MulticastModel::kMAW ? random_lane(rng, k) : shared};
    if (!network.output_busy(out)) request.outputs.push_back(out);
  }
  if (request.outputs.empty()) return std::nullopt;
  return request;
}

/// One more destination on a port the request does not use yet, under the
/// model's lane rule; nullopt when none is free.
std::optional<WavelengthEndpoint> draw_extra_output(Rng& rng,
                                                    const ThreeStageNetwork& network,
                                                    const MulticastRequest& request) {
  const std::size_t N = network.port_count();
  const std::size_t start = rng.next_below(N);
  for (std::size_t step = 0; step < N; ++step) {
    const std::size_t port = (start + step) % N;
    const bool used = std::any_of(request.outputs.begin(), request.outputs.end(),
                                  [port](const auto& out) { return out.port == port; });
    if (used) continue;
    Wavelength lane = request.input.lane;
    if (network.network_model() == MulticastModel::kMSDW) lane = request.outputs.front().lane;
    if (network.network_model() == MulticastModel::kMAW) {
      lane = random_lane(rng, network.lane_count());
    }
    if (!network.output_busy({port, lane})) return WavelengthEndpoint{port, lane};
  }
  return std::nullopt;
}

/// Every accessor of `view` against the installed (request, route).
void expect_view_matches(const ThreeStageNetwork::RecordView& view, const Entry& entry) {
  const auto& [request, route] = entry;
  ASSERT_EQ(view.input(), request.input);
  const auto outputs = view.outputs();
  ASSERT_EQ(outputs.size(), request.outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i], request.outputs[i]) << "output " << i;
  }
  ASSERT_EQ(view.spread(), route.branches.size());
  std::vector<ModulePortLane> heads;
  for (const RouteBranch& b : route.branches) heads.push_back({b.middle, b.link_lane});
  const auto branches = view.branches();
  ASSERT_EQ(std::vector<ModulePortLane>(branches.begin(), branches.end()), heads);
  std::size_t branch = 0;
  std::size_t leg = 0;
  view.walk(
      [&](std::size_t middle, Wavelength link_lane, const auto& legs) {
        if (branch > 0) {
          EXPECT_EQ(leg, route.branches[branch - 1].legs.size());
        }
        ASSERT_LT(branch, route.branches.size());
        EXPECT_EQ(middle, route.branches[branch].middle) << "branch " << branch;
        EXPECT_EQ(link_lane, route.branches[branch].link_lane) << "branch " << branch;
        std::vector<ModulePortLane> want;
        for (const DeliveryLeg& delivery : route.branches[branch].legs) {
          want.push_back({delivery.out_module, delivery.link_lane});
        }
        EXPECT_EQ(std::vector<ModulePortLane>(legs.begin(), legs.end()), want)
            << "legs of branch " << branch;
        ++branch;
        leg = 0;
      },
      [&](std::size_t out_module, Wavelength link_lane, const auto& destinations) {
        const std::vector<DeliveryLeg>& legs = route.branches[branch - 1].legs;
        ASSERT_LT(leg, legs.size());
        EXPECT_EQ(out_module, legs[leg].out_module) << "leg " << leg;
        EXPECT_EQ(link_lane, legs[leg].link_lane) << "leg " << leg;
        const std::vector<WavelengthEndpoint> global(destinations.begin(),
                                                     destinations.end());
        EXPECT_EQ(global, legs[leg].destinations) << "leg " << leg;
        ++leg;
      });
  ASSERT_EQ(branch, route.branches.size());
  if (branch > 0) {
    EXPECT_EQ(leg, route.branches[branch - 1].legs.size());
  }
  ASSERT_EQ(view.request(), request);
  ASSERT_EQ(view.route(), route);
}

void expect_matches(const ThreeStageNetwork& network, const ThreeStageNetwork& twin,
                    const Reference& reference, const std::vector<ConnectionId>& released) {
  ASSERT_EQ(network.active_connections(), reference.order.size());
  std::size_t index = 0;
  for (const auto& [id, view] : network.connections()) {
    ASSERT_LT(index, reference.order.size());
    ASSERT_EQ(id, reference.order[index]) << "view position " << index;
    ASSERT_NO_FATAL_FAILURE(expect_view_matches(view, reference.entries.at(id)))
        << "view of " << id;
    ++index;
  }
  ASSERT_EQ(index, reference.order.size());
  for (std::size_t i = 0; i < reference.order.size(); ++i) {
    const ConnectionId id = reference.order[i];
    ASSERT_TRUE(network.connections().contains(id)) << id;
    ASSERT_NO_FATAL_FAILURE(
        expect_view_matches(network.connections().at(id), reference.entries.at(id)))
        << "at(" << id << ")";
    const Entry* entry = network.find_connection(id);
    ASSERT_NE(entry, nullptr) << id;
    ASSERT_EQ(*entry, reference.entries.at(id)) << "materialization of " << id;
    ASSERT_EQ(network.predecessor_of(id), i == 0 ? 0 : reference.order[i - 1]);
  }
  for (const ConnectionId id : released) {
    ASSERT_FALSE(network.connections().contains(id)) << "released id " << id;
    ASSERT_EQ(network.find_connection(id), nullptr) << "released id " << id;
  }
  std::vector<ConnectionId> twin_order;
  for (const auto& [id, view] : twin.connections()) twin_order.push_back(id);
  ASSERT_EQ(twin_order, reference.order) << "twin view order";
  network.self_check();
  twin.self_check();
}

class RecordModel
    : public ::testing::TestWithParam<std::tuple<Construction, MulticastModel>> {};

TEST_P(RecordModel, DecodeOrderAndOccupancyMatchReference) {
  const auto [construction, model] = GetParam();
  for (const ClosParams params : {ClosParams{3, 3, 65, 64}, ClosParams{4, 2, 66, 64}}) {
    SCOPED_TRACE(params.to_string());
    ThreeStageNetwork network(params, construction, model);
    ThreeStageNetwork twin(params, construction, model);
    Router router(network, RoutingPolicy{2});
    Rng rng(0x5EC0 + 7 * params.n + 3 * static_cast<std::uint64_t>(model) +
            static_cast<std::uint64_t>(construction));
    Reference reference;
    std::vector<ConnectionId> released;
    std::size_t installs = 0;
    std::size_t reinstalls = 0;
    std::size_t grows = 0;
    std::size_t rollbacks = 0;

    for (int step = 0; step < 400; ++step) {
      const double op = rng.next_double();
      if (reference.order.empty() || op < 0.35) {
        const auto request = draw_request(rng, network);
        if (!request || network.check_admissible(*request)) continue;
        const auto route = router.find_route(*request);
        if (!route) continue;
        const ConnectionId id = network.install(*request, *route);
        ASSERT_EQ(twin.install(*request, *route), id);
        reference.insert(id, {*request, *route}, std::nullopt);
        ++installs;
      } else {
        const ConnectionId id = reference.order[rng.next_below(reference.order.size())];
        const Entry original = reference.entries.at(id);
        const ConnectionId predecessor = network.predecessor_of(id);
        const auto words = network.connections().at(id).words();
        const std::vector<std::uint32_t> saved(words.begin(), words.end());
        network.release(id);
        twin.release(id);
        reference.erase(id);
        if (op < 0.6) {
          released.push_back(id);
        } else if (op < 0.8) {
          // Revive the id, over the same or a freshly found route, at the
          // tail, at its old position, at the head or after another session.
          const auto rerouted = router.find_route(original.first);
          const Route& route = rerouted ? *rerouted : original.second;
          std::optional<ConnectionId> after;
          switch (rng.next_below(4)) {
            case 0: break;
            case 1: after = predecessor; break;
            case 2: after = 0; break;
            default:
              if (!reference.order.empty()) {
                after = reference.order[rng.next_below(reference.order.size())];
              }
          }
          ASSERT_EQ(network.reinstall(id, original.first, route, after), id);
          ASSERT_EQ(twin.reinstall(id, original.first, route, after), id);
          reference.insert(id, {original.first, route}, after);
          ++reinstalls;
        } else {
          // Grow: break, route the grown request, else -- or, a quarter of
          // the time, regardless -- roll back: the network reinstalls the
          // original rebuilt from the copied words, the twin from the
          // reference values.
          MulticastRequest grown = original.first;
          if (const auto extra = draw_extra_output(rng, network, grown)) {
            grown.outputs.push_back(*extra);
          }
          const bool forced_rollback = rng.next_below(4) == 0;
          const auto route = forced_rollback ? std::nullopt : router.find_route(grown);
          ConnectionId next_id = 0;
          if (route) {
            next_id = network.install(grown, *route);
          } else {
            const ThreeStageNetwork::RecordView copy(saved, params.n);
            next_id = network.install(copy.request(), copy.route());
            ++rollbacks;
          }
          const Entry next = route ? Entry{grown, *route} : original;
          ASSERT_EQ(twin.install(next.first, next.second), next_id);
          reference.insert(next_id, next, std::nullopt);
          released.push_back(id);
          ++grows;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(network, twin, reference, released))
          << "step " << step;
    }
    EXPECT_GT(installs, 50u);
    EXPECT_GT(reinstalls, 20u);
    EXPECT_GT(grows, 20u);
    EXPECT_GT(rollbacks, 5u);
    // Drain: every record comes back out and the network is empty.
    for (const ConnectionId id : std::vector<ConnectionId>(reference.order)) {
      network.release(id);
      twin.release(id);
      reference.erase(id);
    }
    expect_matches(network, twin, reference, released);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, RecordModel,
    ::testing::Combine(::testing::Values(Construction::kMswDominant,
                                         Construction::kMawDominant),
                       ::testing::Values(MulticastModel::kMSW, MulticastModel::kMSDW,
                                         MulticastModel::kMAW)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Construction::kMswDominant
                             ? "MswDominant"
                             : "MawDominant") +
             model_name(std::get<1>(info.param));
    });

/// What one reader saw of every connection, in view order.
struct Seen {
  ConnectionId id = 0;
  MulticastRequest request;
  Route route;
  std::vector<std::uint32_t> words;
  std::size_t conversions = 0;
  friend bool operator==(const Seen&, const Seen&) = default;
};

std::vector<Seen> read_all(const ThreeStageNetwork& network) {
  std::vector<Seen> seen;
  for (const auto& [id, view] : network.connections()) {
    const ThreeStageNetwork::RecordView again = network.connections().at(id);
    seen.push_back({id, again.request(), view.route(),
                    {view.words().begin(), view.words().end()}, conversions_in_route(view)});
  }
  return seen;
}

TEST(RecordViewReaders, ConcurrentReadersSeeTheSingleThreadedPass) {
  ThreeStageNetwork network(ClosParams{3, 3, 65, 64}, Construction::kMawDominant,
                            MulticastModel::kMAW);
  Router router(network, RoutingPolicy{2});
  Rng rng(0x4EAD);
  std::vector<ConnectionId> live;
  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.next_bool(0.3)) {
      const std::size_t victim = rng.next_below(live.size());
      network.release(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    } else if (const auto request = draw_request(rng, network)) {
      if (network.check_admissible(*request)) continue;
      if (const auto route = router.find_route(*request)) {
        live.push_back(network.install(*request, *route));
      }
    }
  }
  const std::vector<Seen> expected = read_all(network);
  ASSERT_GT(expected.size(), 20u);

  constexpr int kReaders = 4;
  std::vector<std::vector<Seen>> results(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&network, &results, t] {
      for (int pass = 0; pass < 20; ++pass) results[t] = read_all(network);
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(results[t], expected) << "reader " << t;
}

}  // namespace
}  // namespace wdm
