// Assembled three-stage switch: network + router behind one interface.
//
// MultistageSwitch mirrors FabricSwitch's connection API so workloads can be
// replayed against either a crossbar fabric or a multistage network. The
// nonblocking() factory sizes the middle stage straight from Theorem 1 / 2
// and picks the optimizing routing spread, i.e. it constructs exactly the
// design point the paper proves nonblocking.
#pragma once

#include <memory>
#include <optional>

#include "multistage/routing.h"

namespace wdm {

namespace repack {
class RepackEngine;
struct RepackPolicy;
}  // namespace repack

/// ClosParams with m set to the smallest sufficient value from Theorem 1
/// (MSW-dominant) or Theorem 2 (MAW-dominant).
[[nodiscard]] ClosParams nonblocking_params(std::size_t n, std::size_t r,
                                            std::size_t k,
                                            Construction construction);

class MultistageSwitch {
 public:
  /// Explicit geometry; policy defaults to Router::recommended_policy.
  MultistageSwitch(ClosParams params, Construction construction,
                   MulticastModel network_model,
                   std::optional<RoutingPolicy> policy = std::nullopt);

  /// The paper's nonblocking design point for an (n*r) x (n*r) network.
  [[nodiscard]] static MultistageSwitch nonblocking(std::size_t n, std::size_t r,
                                                    std::size_t k,
                                                    Construction construction,
                                                    MulticastModel network_model);

  // Out of line: repack::RepackEngine is incomplete here (src/repack owns
  // it); the switch is never moved or copied (nonblocking() returns an
  // elided prvalue), so the declared destructor costs nothing.
  ~MultistageSwitch();

  [[nodiscard]] ThreeStageNetwork& network() { return network_; }
  [[nodiscard]] const ThreeStageNetwork& network() const { return network_; }
  [[nodiscard]] Router& router() { return router_; }

  [[nodiscard]] std::size_t port_count() const { return network_.port_count(); }
  [[nodiscard]] std::size_t lane_count() const { return network_.lane_count(); }
  [[nodiscard]] MulticastModel model() const { return network_.network_model(); }

  [[nodiscard]] std::optional<ConnectError> check_admissible(
      const MulticastRequest& request) const {
    return network_.check_admissible(request);
  }

  /// Route + install; nullopt on failure (reason in last_error()).
  [[nodiscard]] std::optional<ConnectionId> try_connect(const MulticastRequest& request) {
    return router_.try_connect(request);
  }

  /// Throwing variant of try_connect.
  ConnectionId connect(const MulticastRequest& request);

  void disconnect(ConnectionId id) { router_.disconnect(id); }

  /// Non-throwing disconnect; false for stale ids (see
  /// ThreeStageNetwork::try_release).
  bool try_disconnect(ConnectionId id) { return router_.try_disconnect(id); }

  [[nodiscard]] ConnectError last_error() const { return router_.last_error(); }
  [[nodiscard]] std::size_t active_connections() const {
    return network_.active_connections();
  }

  // -- rearrangeable mode (DESIGN.md §3.12) ----------------------------------

  /// Attach a repack engine: connect_with_repack may then migrate existing
  /// sessions to admit a request that blocks below the Theorem 1/2 bound.
  /// Replaces any previous engine (stats reset). The classic
  /// try_connect/connect paths are untouched either way.
  void enable_repack(const repack::RepackPolicy& policy);

  /// try_connect, falling back to repack-on-block when a repack engine is
  /// attached and enabled. Without one (the default) this IS try_connect --
  /// same counters, same decisions.
  [[nodiscard]] std::optional<ConnectionId> connect_with_repack(
      const MulticastRequest& request);

  /// The attached repack engine (move stats, last_moved, the test seam), or
  /// nullptr when enable_repack was never called.
  [[nodiscard]] repack::RepackEngine* repack_engine() { return repack_.get(); }
  [[nodiscard]] const repack::RepackEngine* repack_engine() const {
    return repack_.get();
  }

 private:
  ThreeStageNetwork network_;
  Router router_;
  std::unique_ptr<repack::RepackEngine> repack_;
};

}  // namespace wdm
