#include "core/export.h"

#include <sstream>

namespace wdm {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string circuit_to_dot(const Circuit& circuit, const DotOptions& options) {
  std::ostringstream os;
  os << "digraph circuit {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  std::vector<bool> emit(circuit.component_count(), true);
  for (ComponentId id = 0; id < circuit.component_count(); ++id) {
    const Component& component = circuit.component(id);
    if (options.active_gates_only &&
        component.kind == ComponentKind::kSoaGate && !component.gate_on) {
      emit[id] = false;
      continue;
    }
    os << "  c" << id << " [label=\"" << json_escape(component.describe(id));
    switch (component.kind) {
      case ComponentKind::kSoaGate:
        os << "\", color=" << (component.gate_on ? "green" : "gray");
        break;
      case ComponentKind::kConverter:
        os << "\", color=purple";
        break;
      case ComponentKind::kSource:
        os << "\", color=blue";
        break;
      case ComponentKind::kSink:
        os << "\", color=red";
        break;
      default:
        os << "\"";
        break;
    }
    os << "];\n";
  }
  for (const auto& [from, to] : circuit.edges()) {
    if (!emit[from.component] || !emit[to.component]) continue;
    os << "  c" << from.component << " -> c" << to.component
       << " [taillabel=\"" << from.port << "\", headlabel=\"" << to.port
       << "\", fontsize=8];\n";
  }
  os << "}\n";
  return os.str();
}

namespace {

void endpoint_json(std::ostringstream& os, const WavelengthEndpoint& endpoint) {
  os << "{\"port\":" << endpoint.port << ",\"lane\":" << endpoint.lane << "}";
}

void route_json(std::ostringstream& os, const Route& route) {
  os << "[";
  for (std::size_t b = 0; b < route.branches.size(); ++b) {
    if (b != 0) os << ",";
    const RouteBranch& branch = route.branches[b];
    os << "{\"middle\":" << branch.middle << ",\"lane\":" << branch.link_lane
       << ",\"legs\":[";
    for (std::size_t l = 0; l < branch.legs.size(); ++l) {
      if (l != 0) os << ",";
      const DeliveryLeg& leg = branch.legs[l];
      os << "{\"outModule\":" << leg.out_module << ",\"lane\":" << leg.link_lane
         << ",\"destinations\":[";
      for (std::size_t d = 0; d < leg.destinations.size(); ++d) {
        if (d != 0) os << ",";
        endpoint_json(os, leg.destinations[d]);
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "]";
}

}  // namespace

std::string network_state_to_json(const ThreeStageNetwork& network) {
  const ClosParams& params = network.params();
  std::ostringstream os;
  os << "{\"geometry\":{\"n\":" << params.n << ",\"r\":" << params.r
     << ",\"m\":" << params.m << ",\"k\":" << params.k
     << ",\"ports\":" << params.port_count() << "},";
  os << "\"construction\":\"" << construction_name(network.construction())
     << "\",\"model\":\"" << model_name(network.network_model()) << "\",";

  os << "\"connections\":[";
  bool first = true;
  for (const auto& [id, view] : network.connections()) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << id << ",\"input\":";
    endpoint_json(os, view.input());
    os << ",\"outputs\":[";
    const auto outputs = view.outputs();
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (i != 0) os << ",";
      endpoint_json(os, outputs[i]);
    }
    os << "],\"route\":";
    route_json(os, view.route());
    os << "}";
  }
  os << "],";

  os << "\"middleDestinationMultisets\":[";
  for (std::size_t j = 0; j < params.m; ++j) {
    if (j != 0) os << ",";
    os << "\"" << json_escape(network.middle_destination_multiset(j).to_string())
       << "\"";
  }
  os << "]}";
  return os.str();
}

std::string design_options_to_json(const std::vector<DesignOption>& options) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (i != 0) os << ",";
    const DesignOption& option = options[i];
    os << "{\"name\":\"" << json_escape(option.name) << "\",\"model\":\""
       << model_name(option.model) << "\",\"crosspoints\":" << option.crosspoints
       << ",\"converters\":" << option.converters
       << ",\"log10CapacityAny\":" << option.log10_capacity_any;
    if (option.is_multistage) {
      os << ",\"clos\":{\"n\":" << option.clos.n << ",\"r\":" << option.clos.r
         << ",\"m\":" << option.clos.m << ",\"k\":" << option.clos.k
         << "},\"construction\":\"" << construction_name(option.construction)
         << "\",\"spread\":" << option.routing_spread;
    }
    os << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace wdm
