// Flat connection records checked against a reference model.
//
// ThreeStageNetwork stores each connection once, as a packed record in an
// arena, and decodes it on demand. This property test drives seeded random
// sequences of install, reinstall (with and without `after`), release and
// grow-style release + install, mirrors every step in a plain std::map of
// entries plus an order list, and after every step checks that
//   * find_connection decodes every live id to exactly the installed
//     (request, route) -- request outputs in request order -- and every
//     released id to nullptr;
//   * connections() yields the reference ids in the reference order with
//     the same entries, and predecessor_of agrees with that order;
//   * self_check() passes (module words, busy counts and middle-stage rows
//     rebuilt from the records).
// Geometries: both constructions x MSW/MSDW/MAW at k = 64 (lane 63 fills the
// record's six-bit lane field) and m >= 65 (two-word middle-stage rows). MAW
// requests draw a lane per destination, and fanouts reach N.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "multistage/routing.h"
#include "util/rng.h"

namespace wdm {
namespace {

using Entry = ThreeStageNetwork::ConnectionView::Entry;

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

void expect_matches(const ThreeStageNetwork& network, const Reference& reference,
                    const std::vector<ConnectionId>& released) {
  ASSERT_EQ(network.active_connections(), reference.order.size());
  std::size_t index = 0;
  for (const auto& [id, entry] : network.connections()) {
    ASSERT_LT(index, reference.order.size());
    ASSERT_EQ(id, reference.order[index]) << "view position " << index;
    ASSERT_EQ(entry, reference.entries.at(id)) << "view entry of " << id;
    ++index;
  }
  ASSERT_EQ(index, reference.order.size());
  for (std::size_t i = 0; i < reference.order.size(); ++i) {
    const ConnectionId id = reference.order[i];
    const Entry* entry = network.find_connection(id);
    ASSERT_NE(entry, nullptr) << id;
    ASSERT_EQ(*entry, reference.entries.at(id)) << "decode of " << id;
    ASSERT_EQ(network.predecessor_of(id), i == 0 ? 0 : reference.order[i - 1]);
  }
  for (const ConnectionId id : released) {
    ASSERT_EQ(network.find_connection(id), nullptr) << "released id " << id;
  }
  network.self_check();
}

class RecordModel
    : public ::testing::TestWithParam<std::tuple<Construction, MulticastModel>> {};

TEST_P(RecordModel, DecodeOrderAndOccupancyMatchReference) {
  const auto [construction, model] = GetParam();
  for (const ClosParams params : {ClosParams{3, 3, 65, 64}, ClosParams{4, 2, 66, 64}}) {
    SCOPED_TRACE(params.to_string());
    ThreeStageNetwork network(params, construction, model);
    Router router(network, RoutingPolicy{2});
    Rng rng(0x5EC0 + 7 * params.n + 3 * static_cast<std::uint64_t>(model) +
            static_cast<std::uint64_t>(construction));
    Reference reference;
    std::vector<ConnectionId> released;
    std::size_t installs = 0;
    std::size_t reinstalls = 0;
    std::size_t grows = 0;

    for (int step = 0; step < 400; ++step) {
      const double op = rng.next_double();
      if (reference.order.empty() || op < 0.35) {
        const auto request = draw_request(rng, network);
        if (!request || network.check_admissible(*request)) continue;
        const auto route = router.find_route(*request);
        if (!route) continue;
        const ConnectionId id = network.install(*request, *route);
        reference.insert(id, {*request, *route}, std::nullopt);
        ++installs;
      } else {
        const ConnectionId id = reference.order[rng.next_below(reference.order.size())];
        const Entry original = reference.entries.at(id);
        const ConnectionId predecessor = network.predecessor_of(id);
        network.release(id);
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
          reference.insert(id, {original.first, route}, after);
          ++reinstalls;
        } else {
          // Grow: break, route the grown request, else restore the original.
          MulticastRequest grown = original.first;
          if (const auto extra = draw_extra_output(rng, network, grown)) {
            grown.outputs.push_back(*extra);
          }
          const auto route = router.find_route(grown);
          const Entry next = route ? Entry{grown, *route} : original;
          const ConnectionId next_id = network.install(next.first, next.second);
          reference.insert(next_id, next, std::nullopt);
          released.push_back(id);
          ++grows;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(network, reference, released))
          << "step " << step;
    }
    EXPECT_GT(installs, 50u);
    EXPECT_GT(reinstalls, 20u);
    EXPECT_GT(grows, 20u);
    // Drain: every record comes back out and the network is empty.
    for (const ConnectionId id : std::vector<ConnectionId>(reference.order)) {
      network.release(id);
      reference.erase(id);
    }
    expect_matches(network, reference, released);
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

}  // namespace
}  // namespace wdm
