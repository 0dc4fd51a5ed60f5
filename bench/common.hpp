// Shared plumbing for the perf bench binaries.
//
// Each bench prints a banner, measures one layer of the simulator (the
// interval engine, the parallel campaign engine, the archive, the scrape
// path), writes its BENCH_*.json report, and then runs its
// google-benchmark timings.  The paper's tables and figures are not
// benches: they are experiments in src/core/registry, run through
// examples/run_experiment.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>

namespace p2sim::bench {

/// Prints the standard bench banner.
inline void banner(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n  (reproduces %s of Bergeron, SC'98)\n", experiment,
              paper_ref);
  std::printf("==============================================================\n");
}

/// Custom main body: print the report, then run timings.
int run(int argc, char** argv, void (*report)());

}  // namespace p2sim::bench

#define P2SIM_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                       \
    return p2sim::bench::run(argc, argv, (report_fn));    \
  }
