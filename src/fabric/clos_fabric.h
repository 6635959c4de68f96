// Gate-level three-stage network: the whole Fig. 8 topology as one optical
// circuit, driven by the §3 routing strategy and verified photon-by-photon.
//
// ClosFabricSwitch glues the two halves of the reproduction together: a
// logical ThreeStageNetwork + Router decide *where* a connection goes (the
// theorems' world), and a physical circuit of 3 module stages spliced by
// k-lane fibers realizes it (SOA gates, converters, splitters, combiners).
// verify() lights every active transmitter and checks each destination
// receiver sees exactly its stream -- so the nonblocking routing results
// are demonstrated all the way down to non-conflicting light paths.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "fabric/module_builder.h"
#include "multistage/nonblocking.h"
#include "multistage/routing.h"

namespace wdm {

class ClosFabricSwitch {
 public:
  ClosFabricSwitch(ClosParams params, Construction construction,
                   MulticastModel network_model,
                   std::optional<RoutingPolicy> policy = std::nullopt,
                   LossModel losses = {});

  /// Theorem-sized factory mirroring MultistageSwitch::nonblocking.
  [[nodiscard]] static ClosFabricSwitch nonblocking(std::size_t n, std::size_t r,
                                                    std::size_t k,
                                                    Construction construction,
                                                    MulticastModel network_model);

  [[nodiscard]] std::size_t port_count() const { return network_.port_count(); }
  [[nodiscard]] std::size_t lane_count() const { return network_.lane_count(); }
  [[nodiscard]] const ThreeStageNetwork& network() const { return network_; }
  [[nodiscard]] const Circuit& circuit() const { return circuit_; }

  /// Route with the paper's strategy AND drive the physical gates.
  [[nodiscard]] std::optional<ConnectionId> try_connect(const MulticastRequest& request);

  /// Install over an explicit route (scripted scenarios); validated by the
  /// logical network, then driven physically. Throws like
  /// ThreeStageNetwork::install on an invalid route.
  ConnectionId install_route(const MulticastRequest& request, const Route& route);
  void disconnect(ConnectionId id);
  [[nodiscard]] ConnectError last_error() const { return router_.last_error(); }
  [[nodiscard]] std::size_t active_connections() const {
    return network_.active_connections();
  }

  struct VerifyReport {
    bool ok = true;
    std::vector<std::string> errors;
    double min_power_dbm = 0.0;
    std::uint32_t max_gates_crossed = 0;
  };
  /// Full optical propagation check of the current state.
  [[nodiscard]] VerifyReport verify() const;

  /// Gate + converter tally of the physical circuit; must equal
  /// multistage_cost for this geometry (the Table 2 audit, but counted from
  /// actual devices).
  [[nodiscard]] MultistageCost audit() const;

 private:
  struct DrivenHardware {
    std::vector<ComponentId> gates_on;
    std::vector<ComponentId> converters_set;
  };

  /// Drive installed connection `id`'s gates/converters and light its source.
  void drive(ConnectionId id);
  /// Drive one module transit's gates/converters.
  void drive_transit(const ModuleCircuit& module, std::size_t in_port,
                     Wavelength in_lane,
                     const std::vector<std::pair<std::size_t, Wavelength>>& outs,
                     DrivenHardware& hardware);

  ThreeStageNetwork network_;
  Router router_;
  Circuit circuit_;
  std::vector<ModuleCircuit> input_modules_;
  std::vector<ModuleCircuit> middle_modules_;
  std::vector<ModuleCircuit> output_modules_;
  std::vector<ComponentId> sources_;  // [port * k + lane]
  std::vector<ComponentId> sinks_;
  std::map<ConnectionId, DrivenHardware> hardware_;
};

}  // namespace wdm
