// Quickstart: run a small simulated campaign and print the headline
// numbers the paper reports — system Gflops, utilization, and Table 2.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "src/analysis/tables.hpp"
#include "src/core/simulation.hpp"
#include "src/workload/kernels.hpp"

int main() {
  using namespace p2sim;

  // A scaled-down campaign (30 days, 32 nodes) keeps the demo fast; the
  // `run_experiment --days 270 --nodes 144` runs the full configuration.
  core::Sp2Simulation sim(core::Sp2Config::small(/*days=*/30, /*nodes=*/32));

  // Single-processor calibration first: the paper's 240 Mflops blocked
  // matrix multiply.
  const auto mm = sim.run_kernel(workload::blocked_matmul());
  std::printf("blocked matmul: %.0f Mflops, flops/memref = %.2f\n",
              mm.mflops(),
              static_cast<double>(mm.counts.flops()) /
                  static_cast<double>(mm.counts.fxu_inst()));

  const auto& days = sim.days();
  double mean_g = 0.0;
  for (const auto& d : days) mean_g += d.gflops;
  mean_g /= days.empty() ? 1.0 : static_cast<double>(days.size());
  std::printf("campaign: %zu days, mean %.2f Gflops on %d nodes, "
              "utilization %.0f%%\n",
              days.size(), mean_g, sim.campaign().num_nodes,
              100.0 * sim.campaign().mean_utilization());

  std::cout << analysis::format_table2(sim.table2());
  std::cout << analysis::format_table4(sim.table4());

  const auto f2 = sim.fig2();
  std::printf("most popular node count: %d\n", f2.most_popular_nodes);
  return 0;
}
