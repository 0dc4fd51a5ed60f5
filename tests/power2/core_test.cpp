#include "src/power2/core.hpp"

#include <gtest/gtest.h>

#include "src/power2/kernel_desc.hpp"

namespace p2sim::power2 {
namespace {

// A kernel of n independent fp adds (plus the loop branch).
KernelDesc independent_adds(int n) {
  KernelBuilder b("indep_adds");
  for (int i = 0; i < n; ++i) b.fp_add();
  return b.warmup(16).measure(1000).build();
}

// A serial dependence chain of n fp adds.
KernelDesc chained_adds(int n) {
  KernelBuilder b("chain_adds");
  std::int16_t prev = kNoDep;
  for (int i = 0; i < n; ++i) prev = b.fp_add(prev);
  return b.warmup(16).measure(1000).build();
}

TEST(Core, ConfigValidation) {
  CoreConfig bad;
  bad.dispatch_width = 0;
  EXPECT_THROW(Power2Core{bad}, std::invalid_argument);
  CoreConfig inverted;
  inverted.tlb_miss_min = 60;
  inverted.tlb_miss_max = 40;
  EXPECT_THROW(Power2Core{inverted}, std::invalid_argument);
}

TEST(Core, CountsMatchStaticBody) {
  Power2Core core;
  KernelBuilder b("counted");
  const auto s = b.stream(1 << 20, 8);
  b.load(s);
  b.load(s, /*quad=*/true);
  b.fma(1);
  b.fp_mul();
  b.fp_div();
  b.alu();
  b.addr_mul();
  b.cond_reg();
  b.store(s);
  const KernelDesc k = b.warmup(8).measure(500).build();
  const RunResult r = core.run(k);

  const std::uint64_t it = r.iterations;
  EXPECT_EQ(r.counts.memory_inst, 3 * it);
  EXPECT_EQ(r.counts.quad_inst, 1 * it);
  EXPECT_EQ(r.counts.fpu_inst(), 3 * it);
  EXPECT_EQ(r.counts.fp_fma(), 1 * it);
  EXPECT_EQ(r.counts.fp_mul(), 1 * it);
  EXPECT_EQ(r.counts.fp_div(), 1 * it);
  EXPECT_EQ(r.counts.fp_add(), 1 * it);  // only the fma's add half
  EXPECT_EQ(r.counts.icu_type1, 1 * it); // the loop branch
  EXPECT_EQ(r.counts.icu_type2, 1 * it);
  // loads + store + alu + addr_mul on the FXUs.
  EXPECT_EQ(r.counts.fxu_inst(), 5 * it);
  // flops: fma(2) + mul + div.
  EXPECT_EQ(r.counts.flops(), 4 * it);
  EXPECT_EQ(r.counts.operations(), r.counts.instructions() + it);
}

TEST(Core, AddressMultiplyRunsOnFxu1Only) {
  Power2Core core;
  KernelBuilder b("addr");
  b.addr_mul();
  b.addr_div();
  const KernelDesc k = b.warmup(4).measure(200).build();
  const RunResult r = core.run(k);
  EXPECT_EQ(r.counts.fxu0_inst, 0u);
  EXPECT_EQ(r.counts.fxu1_inst, 2 * r.iterations);
}

TEST(Core, DispatchWidthBoundsIpc) {
  CoreConfig cfg;
  cfg.dispatch_width = 2;
  Power2Core core(cfg);
  const RunResult r = core.run(independent_adds(8));
  const double ipc = static_cast<double>(r.counts.instructions()) /
                     static_cast<double>(r.counts.cycles);
  EXPECT_LE(ipc, 2.0 + 1e-9);
}

TEST(Core, DualFpuThroughputIsTwoPerCycle) {
  Power2Core core;
  const RunResult r = core.run(independent_adds(16));
  const double fp_per_cycle = static_cast<double>(r.counts.fpu_inst()) /
                              static_cast<double>(r.counts.cycles);
  EXPECT_LE(fp_per_cycle, 2.0 + 1e-9);
  EXPECT_GT(fp_per_cycle, 1.5);  // near-peak for independent work
}

TEST(Core, ChainsAreLatencyBound) {
  Power2Core core;
  const RunResult indep = core.run(independent_adds(8));
  core.reset();
  const RunResult chain = core.run(chained_adds(8));
  // Latency-2 serial chain: 7 dependence edges x 2 cycles = 14 per
  // iteration, vs throughput-bound ~4 for independent work.
  EXPECT_GE(chain.cycles_per_iter(), 14.0 - 0.1);
  EXPECT_LT(indep.cycles_per_iter(), 0.8 * 8);
}

TEST(Core, CarriedDependenceSerializesAcrossIterations) {
  Power2Core core;
  KernelBuilder b("carried");
  b.fp_add(kNoDep, /*carried=*/0);  // depends on itself last iteration
  const KernelDesc k = b.warmup(8).measure(1000).build();
  const RunResult r = core.run(k);
  EXPECT_GE(r.cycles_per_iter(), 2.0 - 1e-9);  // fp add latency
}

TEST(Core, DivideBlocksItsUnit) {
  Power2Core core;
  KernelBuilder b("divchain");
  std::int16_t prev = kNoDep;
  for (int i = 0; i < 4; ++i) prev = b.fp_div(prev);
  const KernelDesc k = b.warmup(4).measure(500).build();
  const RunResult r = core.run(k);
  // Four chained 10-cycle divides: three dependence gaps inside the
  // iteration (successive iterations overlap on the other unit).
  EXPECT_GE(r.cycles_per_iter(), 30.0 - 0.1);
  // Far slower than four pipelined adds would be.
  EXPECT_GT(r.cycles_per_iter(), 6.0);
}

TEST(Core, CacheMissHaltsEightCycles) {
  Power2Core core;
  // Stride of exactly one line over a 1 MB footprint: 4096 lines cycle
  // through a 1024-line cache, so every access misses; 256 pages stay
  // within the 512-entry TLB, so only the cache penalty shows.
  KernelBuilder b("missy");
  const auto s = b.stream(1 << 20, 256);
  b.load(s);
  // Warmup covers the whole footprint (4096 accesses) so the TLB holds
  // every page before measurement begins.
  const KernelDesc k = b.warmup(8192).measure(2000).build();
  const RunResult r = core.run(k);
  EXPECT_EQ(r.counts.dcache_miss, 2000u);
  EXPECT_EQ(r.counts.stall_dcache, 2000u * 8u);
  EXPECT_EQ(r.counts.tlb_miss, 0u);  // 2 pages stay resident
  // Cycles reflect the halt: >= 8 per iteration.
  EXPECT_GE(r.cycles_per_iter(), 8.0);
}

TEST(Core, TlbMissPenaltyWithinDocumentedWindow) {
  Power2Core core;
  // Page-stride walk over far more pages than the TLB holds: every access
  // misses the TLB (and the cache).
  KernelBuilder b("tlbwalk");
  const auto s = b.stream(64ull << 20, 4096);
  b.load(s);
  const KernelDesc k = b.warmup(64).measure(4000).build();
  const RunResult r = core.run(k);
  EXPECT_EQ(r.counts.tlb_miss, 4000u);
  const double avg_penalty = static_cast<double>(r.counts.stall_tlb) /
                             static_cast<double>(r.counts.tlb_miss);
  EXPECT_GE(avg_penalty, 36.0);  // "36 to 54 cycles"
  EXPECT_LE(avg_penalty, 54.0);
  EXPECT_NEAR(avg_penalty, 45.0, 3.0);  // uniform draw centres at 45
}

TEST(Core, ReloadAndWritebackCountersTrackCache) {
  Power2Core core;
  KernelBuilder b("wb");
  // Write-streaming: every line eventually evicts dirty.
  const auto s = b.stream(4ull << 20, 256);
  b.store(s);
  const KernelDesc k = b.warmup(2048).measure(4096).build();
  const RunResult r = core.run(k);
  EXPECT_EQ(r.counts.dcache_reload, 4096u);  // write-allocate
  // After warmup the cache is saturated with dirty lines: every replacement
  // writes back.
  EXPECT_EQ(r.counts.dcache_store, 4096u);
}

TEST(Core, DeterministicAcrossIdenticalRuns) {
  const KernelDesc k = chained_adds(6);
  Power2Core a, b;
  const RunResult ra = a.run(k);
  const RunResult rb = b.run(k);
  EXPECT_EQ(ra.counts, rb.counts);
}

TEST(Core, ResetClearsMicroarchState) {
  Power2Core core;
  KernelBuilder b("warm");
  const auto s = b.stream(2048, 8);
  b.load(s);
  const KernelDesc k = b.warmup(0).measure(256).build();
  const RunResult first = core.run(k);
  core.reset();
  const RunResult again = core.run(k);
  EXPECT_EQ(first.counts.dcache_miss, again.counts.dcache_miss);
}

TEST(Core, RunOverrideControlsIterations) {
  Power2Core core;
  const KernelDesc k = independent_adds(4);
  const RunResult r = core.run(k, 123);
  EXPECT_EQ(r.iterations, 123u);
  EXPECT_EQ(r.counts.fp_add(), 4u * 123u);
}

TEST(Core, InvalidKernelThrows) {
  Power2Core core;
  KernelDesc bad;
  bad.name = "bad";
  EXPECT_THROW(core.run(bad), std::invalid_argument);
}

TEST(Core, MflopsComputedAtClock) {
  RunResult r;
  r.iterations = 1;
  r.counts.cycles = 66'700'000;  // one second at the SP2 clock
  r.counts.fp_add0 = 10'000'000;
  EXPECT_NEAR(r.mflops(), 10.0, 1e-9);
  EXPECT_NEAR(r.mflops(2 * util::MachineClock::kHz), 20.0, 1e-9);
}

// Steering policy comparison: round-robin splits the units evenly; the
// FPU0-first stream biases toward unit 0 for dependence-poor bursts.
class SteeringCase : public ::testing::TestWithParam<FpuSteering> {};

TEST_P(SteeringCase, AllFpInstructionsLandOnSomeUnit) {
  CoreConfig cfg;
  cfg.fpu_steering = GetParam();
  Power2Core core(cfg);
  const RunResult r = core.run(independent_adds(10));
  EXPECT_EQ(r.counts.fpu_inst(), 10u * r.iterations);
}

INSTANTIATE_TEST_SUITE_P(Policies, SteeringCase,
                         ::testing::Values(FpuSteering::kFpu0First,
                                           FpuSteering::kRoundRobin,
                                           FpuSteering::kEarliestFree));

TEST(Core, RoundRobinSplitsEvenly) {
  CoreConfig cfg;
  cfg.fpu_steering = FpuSteering::kRoundRobin;
  Power2Core core(cfg);
  const RunResult r = core.run(independent_adds(8));
  EXPECT_EQ(r.counts.fpu0_inst, r.counts.fpu1_inst);
}

TEST(Core, SparseFpStreamPrefersFpu0) {
  // Isolated FP ops separated by integer work: the default unit soaks
  // them up, which is the mechanism behind the paper's FPU0-heavy ratios.
  Power2Core core;
  KernelBuilder b("sparse");
  b.fp_add();
  b.alu();
  b.alu();
  b.alu();
  b.alu();
  const KernelDesc k = b.warmup(8).measure(1000).build();
  const RunResult r = core.run(k);
  EXPECT_GT(r.counts.fpu0_inst, 3 * r.counts.fpu1_inst);
}

TEST(Core, IcacheCompulsoryFillCounted) {
  Power2Core core;
  // 64 instructions x 4 bytes = 256 bytes = 2 I-cache lines of 128 B.
  KernelBuilder b("itext");
  for (int i = 0; i < 63; ++i) b.alu();
  const KernelDesc k = b.warmup(4).measure(100).build();
  const RunResult r = core.run(k);
  EXPECT_EQ(r.counts.icache_reload, 2u);
}

TEST(Core, BackToBackRunsDoNotRecountTheLastHalt) {
  // A run whose last iteration draws an I-cache refill ends with the
  // dispatcher halted past every unit's free time.  The previous run has
  // already counted that halt, so the next run on the same core (as
  // ProgramProfiler::run_section issues them) must start after it rather
  // than count it again.
  KernelBuilder pb("missing_with_pressure");
  pb.load(pb.stream(8 << 20, 264));
  const KernelDesc pressure =
      pb.warmup(0).measure(20).icache_pressure(200.0).build();
  KernelBuilder ab("two_adds");
  ab.fp_add();
  ab.fp_add();
  const KernelDesc adds = ab.warmup(0).measure(10).build();
  const std::uint64_t fresh = Power2Core().run(adds).counts.cycles;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    CoreConfig cfg;
    cfg.rng_seed = seed;
    Power2Core core(cfg);
    core.run(pressure);
    EXPECT_EQ(core.run(adds).counts.cycles, fresh) << "seed " << seed;
  }
}

}  // namespace
}  // namespace p2sim::power2
