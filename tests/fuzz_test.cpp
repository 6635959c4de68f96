// Randomized differential fuzzing and exception-safety checks.
//
// Applies long random operation sequences -- valid requests, malformed
// requests, double disconnects, blocked requests -- against the switching
// implementations, asserting after every operation that (a) failed
// operations leave state untouched (strong guarantee) and (b) the deep
// self-checks hold. Geometries are randomized per round.
#include <gtest/gtest.h>

// The whole suite deliberately uses only the umbrella header, doubling as a
// compile-level check that core/wdm.h exposes the complete public API.
#include "core/wdm.h"
#include "util/rng.h"

namespace wdm {
namespace {

MulticastRequest mangle_request(Rng& rng, std::size_t N, std::size_t k) {
  // Deliberately malformed shapes.
  switch (rng.next_below(5)) {
    case 0: return {{N + 1, 0}, {{0, 0}}};                    // input port range
    case 1: return {{0, static_cast<Wavelength>(k + 3)}, {{0, 0}}};  // lane range
    case 2: return {{0, 0}, {}};                              // empty outputs
    case 3: return {{0, 0}, {{1, 0}, {1, 0}}};                // duplicate output
    default: {
      Wavelength second = k > 1 ? 1 : 0;
      return {{0, 0}, {{1, 0}, {1, second}}};  // two lanes, same port
    }
  }
}

TEST(Fuzz, MultistageStateUntouchedByFailedOperations) {
  Rng rng(0xFACE);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 2 + rng.next_below(2);
    const std::size_t r = 2 + rng.next_below(3);
    const std::size_t k = 1 + rng.next_below(3);
    MultistageSwitch sw = MultistageSwitch::nonblocking(
        n, r, k, rng.next_bool() ? Construction::kMswDominant
                                 : Construction::kMawDominant,
        kAllModels[rng.next_below(3)]);
    std::vector<ConnectionId> live;
    for (int step = 0; step < 250; ++step) {
      const std::size_t active_before = sw.active_connections();
      switch (rng.next_below(6)) {
        case 0:  // malformed request: must be rejected without state change
        case 1: {
          const auto request = mangle_request(rng, sw.port_count(), k);
          EXPECT_FALSE(sw.try_connect(request).has_value());
          EXPECT_EQ(sw.active_connections(), active_before);
          break;
        }
        case 2: {  // unknown disconnect: throws, no state change
          EXPECT_THROW(sw.disconnect(999999), std::out_of_range);
          EXPECT_EQ(sw.active_connections(), active_before);
          break;
        }
        case 3: {  // busy-endpoint request
          if (live.empty()) break;
          const auto& [request, route] =
              sw.network().connections().at(live[rng.next_below(live.size())]);
          (void)route;
          EXPECT_FALSE(sw.try_connect(request).has_value());
          EXPECT_TRUE(sw.last_error() == ConnectError::kInputBusy ||
                      sw.last_error() == ConnectError::kOutputBusy);
          EXPECT_EQ(sw.active_connections(), active_before);
          break;
        }
        default: {  // valid churn
          if (!live.empty() && rng.next_bool(0.4)) {
            const std::size_t victim = rng.next_below(live.size());
            sw.disconnect(live[victim]);
            live[victim] = live.back();
            live.pop_back();
          } else {
            const auto request =
                random_admissible_request(rng, sw.network(), {1, 4});
            if (!request) break;
            const auto id = sw.try_connect(*request);
            ASSERT_TRUE(id.has_value());  // theorem-sized: never blocks
            live.push_back(*id);
          }
          break;
        }
      }
      if (step % 50 == 0) sw.network().self_check();
    }
    sw.network().self_check();
  }
}

TEST(Fuzz, FabricStateUntouchedByFailedOperations) {
  Rng rng(0xBEEF);
  for (int round = 0; round < 4; ++round) {
    const std::size_t N = 3 + rng.next_below(3);
    const std::size_t k = 1 + rng.next_below(3);
    FabricSwitch sw(N, k, kAllModels[rng.next_below(3)]);
    std::vector<FabricSwitch::ConnectionId> live;
    for (int step = 0; step < 150; ++step) {
      const std::size_t active_before = sw.active_connections();
      switch (rng.next_below(5)) {
        case 0: {
          const auto bad = mangle_request(rng, N, k);
          EXPECT_FALSE(sw.try_connect(bad).has_value());
          EXPECT_THROW(sw.connect(bad), std::exception);
          EXPECT_EQ(sw.active_connections(), active_before);
          break;
        }
        case 1: {
          EXPECT_THROW(sw.disconnect(424242), std::out_of_range);
          EXPECT_EQ(sw.active_connections(), active_before);
          break;
        }
        default: {
          if (!live.empty() && rng.next_bool(0.4)) {
            const std::size_t victim = rng.next_below(live.size());
            sw.disconnect(live[victim]);
            live[victim] = live.back();
            live.pop_back();
          } else {
            // Random legal request against current occupancy: build from the
            // free endpoints.
            MulticastRequest request;
            bool found_input = false;
            for (std::size_t port = 0; port < N && !found_input; ++port) {
              for (Wavelength lane = 0; lane < k && !found_input; ++lane) {
                if (!sw.input_busy({port, lane})) {
                  request.input = {port, lane};
                  found_input = true;
                }
              }
            }
            if (!found_input) break;
            const Wavelength lane =
                sw.model() == MulticastModel::kMSW
                    ? request.input.lane
                    : static_cast<Wavelength>(rng.next_below(k));
            for (std::size_t port = 0; port < N; ++port) {
              const Wavelength dest =
                  sw.model() == MulticastModel::kMAW
                      ? static_cast<Wavelength>(rng.next_below(k))
                      : lane;
              if (!sw.output_busy({port, dest}) && rng.next_bool(0.5)) {
                request.outputs.push_back({port, dest});
              }
            }
            if (request.outputs.empty()) break;
            const auto id = sw.try_connect(request);
            ASSERT_TRUE(id.has_value()) << request.to_string();
            live.push_back(*id);
          }
          break;
        }
      }
      if (step % 30 == 0) {
        const auto report = sw.verify();
        ASSERT_TRUE(report.ok) << report.to_string();
      }
    }
  }
}

TEST(Fuzz, ModuleTransitsRejectThenAcceptIdempotently) {
  Rng rng(0xCAFE);
  SwitchModule module(4, 5, 2, MulticastModel::kMSDW, "fuzz");
  std::vector<std::pair<ModulePortLane, std::vector<ModulePortLane>>> live;
  const auto words = [&module] {
    std::vector<std::uint64_t> all;
    for (std::size_t p = 0; p < module.in_ports(); ++p) all.push_back(module.in_word(p));
    for (std::size_t p = 0; p < module.out_ports(); ++p) all.push_back(module.out_word(p));
    all.push_back(module.busy_out_lanes());
    return all;
  };
  for (int step = 0; step < 500; ++step) {
    const ModulePortLane in{rng.next_below(4),
                            static_cast<Wavelength>(rng.next_below(2))};
    std::vector<ModulePortLane> outs;
    const Wavelength lane = static_cast<Wavelength>(rng.next_below(2));
    for (std::size_t port = 0; port < 5; ++port) {
      if (rng.next_bool(0.4)) outs.push_back({port, lane});
    }
    if (outs.empty()) continue;
    const auto reason = module.check_transit(in, outs);
    if (reason) {
      // check_transit rejected: occupy must throw and not mutate.
      const auto before = words();
      EXPECT_THROW(module.occupy(in, outs), std::logic_error);
      EXPECT_EQ(words(), before);
    } else {
      module.occupy(in, outs);
      live.emplace_back(in, outs);
    }
    if (!live.empty() && rng.next_bool(0.3)) {
      const std::size_t victim = rng.next_below(live.size());
      module.vacate(live[victim].first, live[victim].second);
      // The lanes are free now: a second vacate must throw and not mutate.
      const auto before = words();
      EXPECT_THROW(module.vacate(live[victim].first, live[victim].second),
                   std::logic_error);
      EXPECT_EQ(words(), before);
      live[victim] = live.back();
      live.pop_back();
    }
    module.self_check();
  }
}

TEST(Umbrella, SingleHeaderExposesTheApi) {
  // Touch one symbol from each layer; the include list above proves the
  // umbrella header alone suffices to build this entire suite.
  EXPECT_NO_THROW({
    (void)multicast_capacity(2, 1, MulticastModel::kMSW, AssignmentKind::kAny);
    (void)crossbar_cost(2, 1, MulticastModel::kMSW);
    (void)theorem1_min_m(2, 2);
    (void)balanced_factorization(16);
    (void)fig10_scenario();
    (void)closed_form_x(64);
  });
}

}  // namespace
}  // namespace wdm
