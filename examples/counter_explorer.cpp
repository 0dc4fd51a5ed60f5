// Counter explorer: the raw monitor / RS2HPM plumbing, bottom up.
//
// Demonstrates, on one node, the three mechanisms the measurement stack
// depends on:
//   1. the 22 physical counters wrap at 32 bits (the cycle counter every
//      ~64 seconds at 66.7 MHz);
//   2. Maki's multipass sampling recovers monotone 64-bit totals as long
//      as samples arrive sub-wrap — and silently loses 2^32 events when
//      they do not;
//   3. the PBS prologue/epilogue pair turns extended totals into per-job
//      reports with derived rates.
//
//   ./build/examples/counter_explorer
#include <cstdio>
#include <vector>

#include "src/hpm/monitor.hpp"
#include "src/rs2hpm/derived.hpp"
#include "src/rs2hpm/job_monitor.hpp"
#include "src/rs2hpm/snapshot.hpp"
#include "src/telemetry/clock.hpp"

int main() {
  using namespace p2sim;
  using hpm::HpmCounter;
  using hpm::PrivilegeMode;

  // --- 1. raw 32-bit wrap --------------------------------------------
  std::printf("1. The physical counters are 32-bit and wrap silently\n");
  hpm::PerformanceMonitor mon;
  power2::EventCounts sixty_four_seconds;
  sixty_four_seconds.cycles =
      static_cast<std::uint64_t>(telemetry::cycles_from_seconds(64.4));
  // A single >= 2^32 increment trips the checked accumulate() on purpose
  // (no simulation slice may legally do this); the unchecked fold path is
  // exactly the silent hardware wrap this demo is about.
  hpm::CounterAdds wrapped{};
  mon.map_events(sixty_four_seconds, wrapped);
  mon.accumulate_adds(wrapped, PrivilegeMode::kUser);
  std::printf("   after 64.4 s of cycles the counter reads %u (wrapped!)\n",
              mon.bank(PrivilegeMode::kUser).read(HpmCounter::kUserCycles));

  // --- 2. multipass sampling ------------------------------------------
  std::printf("\n2. Sub-wrap sampling extends the counters to 64 bits\n");
  hpm::PerformanceMonitor mon2;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon2);
  power2::EventCounts thirty_seconds;
  thirty_seconds.cycles =
      static_cast<std::uint64_t>(telemetry::cycles_from_seconds(30.0));
  for (int i = 0; i < 30; ++i) {  // 15 minutes in 30-second passes
    mon2.accumulate(thirty_seconds, PrivilegeMode::kUser);
    ext.sample(mon2);
  }
  std::printf("   900 s of cycles recovered: %llu (expected %.0f)\n",
              static_cast<unsigned long long>(
                  ext.totals().user_at(HpmCounter::kUserCycles)),
              telemetry::cycles_from_seconds(900.0));

  std::printf("   ...but a missed wrap is unrecoverable:\n");
  hpm::PerformanceMonitor mon3;
  rs2hpm::ExtendedCounters lossy;
  lossy.attach(mon3);
  power2::EventCounts too_long;
  too_long.cycles = (1ull << 31) + 500;  // legal per batch...
  mon3.accumulate(too_long, PrivilegeMode::kUser);
  mon3.accumulate(too_long, PrivilegeMode::kUser);  // ...a wrap in total
  lossy.sample(mon3);  // one sample only: the wrap is missed
  std::printf("   pushed %llu cycles, recovered only %llu\n",
              static_cast<unsigned long long>(2 * too_long.cycles),
              static_cast<unsigned long long>(
                  lossy.totals().user_at(HpmCounter::kUserCycles)));

  // --- 3. per-job prologue/epilogue ------------------------------------
  std::printf("\n3. PBS prologue/epilogue -> per-job counter report\n");
  rs2hpm::JobMonitor jm;
  // Two nodes' extended totals at job start...
  std::vector<rs2hpm::NodeSample> start(2);
  jm.prologue(/*job_id=*/42, /*start_s=*/0.0, start);
  // ...and at job end, after 1200 s of work at ~20 Mflops/node.
  std::vector<rs2hpm::NodeSample> end(2);
  for (rs2hpm::NodeSample& n : end) {
    n.totals.user[hpm::index_of(HpmCounter::kFpAdd0)] = 14'400'000'000ull;
    n.totals.user[hpm::index_of(HpmCounter::kFpMulAdd0)] = 9'600'000'000ull;
    n.totals.user[hpm::index_of(HpmCounter::kUserFxu0)] = 40'000'000'000ull;
    n.totals.user[hpm::index_of(HpmCounter::kUserCycles)] = 60'000'000'000ull;
  }
  const rs2hpm::JobCounterReport rep = jm.epilogue(42, 1200.0, end);
  const rs2hpm::DerivedRates r = rep.rates();
  std::printf("   job %lld: %d nodes, %.0f s\n",
              static_cast<long long>(rep.job_id), rep.nodes, rep.elapsed_s);
  std::printf("   Mflops (all nodes) = %.1f, per node = %.1f\n",
              rep.job_mflops(), rep.mflops_per_node());
  std::printf("   flops/memref = %.2f, fma share of flops = %.0f%%\n",
              r.flops_per_memref, 100.0 * r.fma_flop_fraction);
  return 0;
}
