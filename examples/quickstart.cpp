// Quickstart: design a nonblocking WDM multicast switch, build it, route a
// few multicast connections, and verify them.
//
//   $ ./quickstart
//
// Walks the library's three layers in ~80 lines:
//   1. capacity/cost analysis (paper Table 1) and design recommendation,
//   2. a gate-level crossbar carrying verified multicast traffic,
//   3. a theorem-sized three-stage network routing the same workload.
#include <iostream>

#include "core/wdm.h"

using namespace wdm;

int main() {
  const std::size_t N = 16;  // ports
  const std::size_t k = 2;   // wavelengths per fiber

  // --- 1. What does the paper's analysis say about this design point? ------
  print_design_report(std::cout, N, k);

  // --- 2. Gate-level crossbar: connect and physically verify ---------------
  print_banner(std::cout, "Crossbar fabric demo (MAW model)");
  FabricSwitch crossbar(N, k, MulticastModel::kMAW);
  crossbar.connect({{0, 0}, {{3, 0}, {7, 1}, {12, 0}}});  // multicast, mixed lanes
  crossbar.connect({{0, 1}, {{3, 1}}});  // same port, second lane: concurrent!
  crossbar.connect({{5, 0}, {{7, 0}, {12, 1}}});
  const auto report = crossbar.verify();
  std::cout << "\n3 connections installed; optical verification: "
            << report.to_string() << "\n";

  // --- 3. Three-stage network sized by Theorem 1 ---------------------------
  print_banner(std::cout, "Three-stage network demo (MSW-dominant, Theorem 1)");
  const auto [n, r] = balanced_factorization(N);
  MultistageSwitch clos = MultistageSwitch::nonblocking(
      n, r, k, Construction::kMswDominant, MulticastModel::kMAW);
  std::cout << "\ngeometry: " << clos.network().params().to_string()
            << "  (m from Theorem 1, routing spread x="
            << clos.router().policy().max_spread << ")\n";

  const auto id = clos.try_connect({{0, 0}, {{3, 0}, {7, 1}, {12, 0}}});
  if (!id) {
    std::cerr << "unexpected block: " << connect_error_name(clos.last_error())
              << "\n";
    return 1;
  }
  std::cout << "multicast routed as: "
            << clos.network().connections().at(*id).route().to_string() << "\n";
  clos.network().self_check();
  std::cout << "network state self-check: OK\n";

  std::cout << "\nNext steps: examples/video_conference, examples/video_on_demand,"
               " examples/network_designer --help\n";
  return report.ok ? 0 : 1;
}
