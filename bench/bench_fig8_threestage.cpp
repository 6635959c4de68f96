// Reproduces Fig. 8: the three-stage switching network geometry -- r input
// modules (n x m), m middle modules (r x r), r output modules (m x n), one
// k-lane link between every consecutive pair. Prints the module/link
// inventory for several geometries and verifies the wiring invariants on a
// live network.
#include <iostream>

#include "multistage/builder.h"
#include "util/table.h"

using namespace wdm;

int main() {
  print_banner(std::cout, "Fig. 8: three-stage network geometry");

  bool ok = true;
  Table table({"n", "r", "m", "k", "N", "input mods", "middle mods",
               "output mods", "stage1-2 links", "stage2-3 links",
               "wavelength channels/link"});
  for (const auto& [n, r, m, k] :
       std::vector<std::array<std::size_t, 4>>{{2, 2, 3, 1},
                                               {4, 4, 16, 2},
                                               {3, 5, 8, 4}}) {
    const ClosParams params{n, r, m, k};
    const ThreeStageNetwork network(params, Construction::kMswDominant,
                                    MulticastModel::kMSW);
    table.add(n, r, m, k, params.port_count(), r, m, r, r * m, m * r, k);

    // Wiring invariants: module shapes match Fig. 8 exactly.
    for (std::size_t i = 0; i < r; ++i) {
      ok = ok && network.input_module(i).in_ports() == n &&
           network.input_module(i).out_ports() == m &&
           network.output_module(i).in_ports() == m &&
           network.output_module(i).out_ports() == n;
    }
    for (std::size_t j = 0; j < m; ++j) {
      ok = ok && network.middle_module(j).in_ports() == r &&
           network.middle_module(j).out_ports() == r;
    }
  }
  table.print(std::cout);

  // Exercise the geometry end to end: a connection from the last port of the
  // last input module to destinations spanning the first and last output
  // modules.
  MultistageSwitch sw(ClosParams{3, 4, 6, 2}, Construction::kMswDominant,
                      MulticastModel::kMSW, RoutingPolicy{2});
  const auto id = sw.try_connect({{11, 1}, {{0, 1}, {10, 1}}});
  ok = ok && id.has_value();
  if (id) {
    const Route route = sw.network().connections().at(*id).route();
    std::cout << "\ncorner-to-corner multicast routed: " << route.to_string()
              << "\n";
    sw.network().self_check();
  }

  std::cout << "\nFig. 8 " << (ok ? "REPRODUCED" : "FAILED") << ".\n";
  return ok ? 0 : 1;
}
