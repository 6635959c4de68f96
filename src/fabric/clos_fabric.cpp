#include "fabric/clos_fabric.h"

#include <stdexcept>
#include <string>

#include "multistage/builder.h"

namespace wdm {

ClosFabricSwitch::ClosFabricSwitch(ClosParams params, Construction construction,
                                   MulticastModel network_model,
                                   std::optional<RoutingPolicy> policy,
                                   LossModel losses)
    : network_(params, construction, network_model),
      router_(network_,
              policy.value_or(Router::recommended_policy(params, construction))),
      circuit_(losses) {
  const auto [n, r, m, k] = params;
  const MulticastModel inner = network_.inner_model();
  const auto lanes32 = static_cast<std::uint32_t>(k);

  // Modules first.
  input_modules_.reserve(r);
  output_modules_.reserve(r);
  middle_modules_.reserve(m);
  for (std::size_t i = 0; i < r; ++i) {
    input_modules_.push_back(
        build_module_circuit(circuit_, n, m, k, inner, "in" + std::to_string(i)));
    output_modules_.push_back(build_module_circuit(
        circuit_, m, n, k, network_model, "out" + std::to_string(i)));
  }
  for (std::size_t j = 0; j < m; ++j) {
    middle_modules_.push_back(
        build_module_circuit(circuit_, r, r, k, inner, "mid" + std::to_string(j)));
  }

  // Inter-stage fibers: input i's output fiber j -> middle j's input fiber i;
  // middle j's output fiber p -> output p's input fiber j.
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      circuit_.connect({input_modules_[i].out_mux[j], 0},
                       {middle_modules_[j].in_demux[i], 0});
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t p = 0; p < r; ++p) {
      circuit_.connect({middle_modules_[j].out_mux[p], 0},
                       {output_modules_[p].in_demux[j], 0});
    }
  }

  // Node shells: k transmitters -> node mux -> input module fiber, and
  // output module fiber -> node demux -> k receivers.
  const std::size_t N = params.port_count();
  sources_.resize(N * k);
  sinks_.resize(N * k);
  for (std::size_t port = 0; port < N; ++port) {
    const std::size_t module = port / n;
    const std::size_t local = port % n;
    const ComponentId node_mux =
        circuit_.add_mux(lanes32, "node-mux p" + std::to_string(port));
    circuit_.connect({node_mux, 0}, {input_modules_[module].in_demux[local], 0});
    const ComponentId node_demux =
        circuit_.add_demux(lanes32, "node-demux p" + std::to_string(port));
    circuit_.connect({output_modules_[module].out_mux[local], 0}, {node_demux, 0});
    for (Wavelength lane = 0; lane < k; ++lane) {
      const ComponentId tx =
          circuit_.add_source(lane, "tx p" + std::to_string(port));
      circuit_.connect({tx, 0}, {node_mux, lane});
      sources_[port * k + lane] = tx;
      const ComponentId rx = circuit_.add_sink(lane, "rx p" + std::to_string(port));
      circuit_.connect({node_demux, lane}, {rx, 0});
      sinks_[port * k + lane] = rx;
    }
  }
}

ClosFabricSwitch ClosFabricSwitch::nonblocking(std::size_t n, std::size_t r,
                                               std::size_t k,
                                               Construction construction,
                                               MulticastModel network_model) {
  return ClosFabricSwitch(nonblocking_params(n, r, k, construction), construction,
                          network_model);
}

void ClosFabricSwitch::drive_transit(
    const ModuleCircuit& module, std::size_t in_port, Wavelength in_lane,
    const std::vector<std::pair<std::size_t, Wavelength>>& outs,
    DrivenHardware& hardware) {
  switch (module.model) {
    case MulticastModel::kMSW:
      for (const auto& [out_port, out_lane] : outs) {
        const ComponentId g = module.gate(in_port, in_lane, out_port, out_lane);
        circuit_.set_gate(g, true);
        hardware.gates_on.push_back(g);
      }
      break;
    case MulticastModel::kMSDW: {
      // One shared converter retunes the whole transit to its common
      // outbound lane; the gate matrix then runs on the converted lane.
      const Wavelength out_lane = outs.front().second;
      const ComponentId converter = module.input_converter(in_port, in_lane);
      circuit_.set_converter(converter, out_lane);
      hardware.converters_set.push_back(converter);
      for (const auto& [out_port, lane] : outs) {
        const ComponentId g = module.gate(in_port, in_lane, out_port, lane);
        circuit_.set_gate(g, true);
        hardware.gates_on.push_back(g);
      }
      break;
    }
    case MulticastModel::kMAW:
      for (const auto& [out_port, out_lane] : outs) {
        const ComponentId g = module.gate(in_port, in_lane, out_port, out_lane);
        circuit_.set_gate(g, true);
        hardware.gates_on.push_back(g);
        const ComponentId converter = module.output_converter(out_port, out_lane);
        circuit_.set_converter(converter, out_lane);
        hardware.converters_set.push_back(converter);
      }
      break;
  }
}

void ClosFabricSwitch::drive(ConnectionId id) {
  const ThreeStageNetwork::RecordView connection = network_.connections().at(id);
  const WavelengthEndpoint input = connection.input();
  const std::size_t in_module = network_.input_module_of(input.port);
  const auto lanes = [](const ThreeStageNetwork::RecordView::Hops& hops) {
    std::vector<std::pair<std::size_t, Wavelength>> outs;
    for (const ModulePortLane hop : hops) outs.emplace_back(hop.port, hop.lane);
    return outs;
  };
  DrivenHardware hardware;
  drive_transit(input_modules_[in_module], network_.local_port(input.port), input.lane,
                lanes(connection.branches()), hardware);
  std::size_t middle = 0;
  connection.walk(
      [&](std::size_t j, Wavelength link_lane, const auto& legs) {
        middle = j;
        drive_transit(middle_modules_[j], in_module, link_lane, lanes(legs), hardware);
      },
      [&](std::size_t p, Wavelength link_lane, const auto& destinations) {
        std::vector<std::pair<std::size_t, Wavelength>> deliveries;
        for (const WavelengthEndpoint dest : destinations) {
          deliveries.emplace_back(network_.local_port(dest.port), dest.lane);
        }
        drive_transit(output_modules_[p], middle, link_lane, deliveries, hardware);
      });
  circuit_.inject(sources_[input.port * network_.lane_count() + input.lane],
                  static_cast<std::int64_t>(id));
  hardware_.emplace(id, std::move(hardware));
}

std::optional<ConnectionId> ClosFabricSwitch::try_connect(
    const MulticastRequest& request) {
  // Route through the logical network first (this also records the failure
  // reason); only a committed route drives physical hardware.
  const auto id = router_.try_connect(request);
  if (id) drive(*id);
  return id;
}

ConnectionId ClosFabricSwitch::install_route(const MulticastRequest& request,
                                             const Route& route) {
  const ConnectionId id = network_.install(request, route);
  drive(id);
  return id;
}

void ClosFabricSwitch::disconnect(ConnectionId id) {
  const auto it = hardware_.find(id);
  if (it == hardware_.end()) {
    throw std::out_of_range("ClosFabricSwitch::disconnect: unknown connection");
  }
  const WavelengthEndpoint input = network_.connections().at(id).input();
  circuit_.clear_injection(sources_[input.port * network_.lane_count() + input.lane]);
  for (const ComponentId gate : it->second.gates_on) circuit_.set_gate(gate, false);
  for (const ComponentId converter : it->second.converters_set) {
    circuit_.set_converter(converter, std::nullopt);
  }
  hardware_.erase(it);
  network_.release(id);
}

ClosFabricSwitch::VerifyReport ClosFabricSwitch::verify() const {
  VerifyReport report;
  const PropagationResult result = circuit_.propagate();
  for (const auto& violation : result.violations) {
    report.ok = false;
    report.errors.push_back("physical violation: " + violation.to_string());
  }

  std::map<ComponentId, ConnectionId> expected;
  for (const auto& [id, view] : network_.connections()) {
    for (const WavelengthEndpoint out : view.outputs()) {
      expected[sinks_[out.port * network_.lane_count() + out.lane]] = id;
    }
  }
  for (const auto& [sink, signals] : result.received) {
    const auto want = expected.find(sink);
    if (want == expected.end()) {
      report.ok = false;
      report.errors.push_back("unexpected light at " +
                              circuit_.component(sink).describe(sink));
      continue;
    }
    if (signals.size() != 1 ||
        signals.front().source_tag != static_cast<std::int64_t>(want->second)) {
      report.ok = false;
      report.errors.push_back("wrong stream at " +
                              circuit_.component(sink).describe(sink));
    }
  }
  for (const auto& [sink, id] : expected) {
    if (!result.received.contains(sink)) {
      report.ok = false;
      report.errors.push_back("connection " + std::to_string(id) +
                              " delivered no light to " +
                              circuit_.component(sink).describe(sink));
    }
  }
  if (!result.received.empty()) {
    report.min_power_dbm = result.min_power_dbm();
    report.max_gates_crossed = result.max_gates_crossed();
  }
  return report;
}

MultistageCost ClosFabricSwitch::audit() const {
  MultistageCost cost;
  cost.crosspoints = circuit_.count_kind(ComponentKind::kSoaGate);
  cost.converters = circuit_.count_kind(ComponentKind::kConverter);
  return cost;
}

}  // namespace wdm
