#include "src/rs2hpm/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/power2/kernel_desc.hpp"
#include "src/workload/kernels.hpp"

namespace p2sim::rs2hpm {
namespace {

power2::KernelDesc small_fp_kernel() {
  power2::KernelBuilder b("prof_fp");
  const auto s = b.stream(64 * 1024, 8);
  const auto l = b.load(s);
  b.fma(l);
  return b.warmup(32).measure(1024).build();
}

TEST(Profiler, SectionsRecordInOrder) {
  ProgramProfiler prof;
  prof.run_section("init", small_fp_kernel());
  prof.run_section("solve", workload::blocked_matmul(), 2048);
  ASSERT_EQ(prof.sections().size(), 2u);
  EXPECT_EQ(prof.sections()[0].name, "init");
  EXPECT_EQ(prof.sections()[1].name, "solve");
}

TEST(Profiler, SectionRatesMatchCounts) {
  ProgramProfiler prof;
  const SectionReport& s = prof.run_section("k", small_fp_kernel());
  // 1024 iterations x 1 fma = 1024 fma instructions.
  EXPECT_EQ(s.counts.fp_fma(), 1024u);
  EXPECT_GT(s.seconds, 0.0);
  // The counter view agrees with the microarchitectural truth.
  EXPECT_EQ(s.delta.user_at(hpm::HpmCounter::kFpMulAdd0) +
                s.delta.user_at(hpm::HpmCounter::kFpMulAdd1),
            1024u);
  // Rates: flops = fma adds + fma muls = 2048 over `seconds`.
  EXPECT_NEAR(s.rates.mflops_all, 2048.0 / s.seconds / 1e6, 1e-6);
}

TEST(Profiler, MatmulSectionHitsCalibration) {
  ProgramProfiler prof;
  const SectionReport& s = prof.run_section("mm", workload::blocked_matmul());
  EXPECT_GT(s.mflops(), 215.0);
  EXPECT_LT(s.mflops(), 260.0);
}

TEST(Profiler, TotalSumsSections) {
  ProgramProfiler prof;
  prof.run_section("a", small_fp_kernel());
  prof.run_section("b", small_fp_kernel());
  const SectionReport t = prof.total();
  EXPECT_EQ(t.counts.fp_fma(), 2048u);
  EXPECT_NEAR(t.seconds,
              prof.sections()[0].seconds + prof.sections()[1].seconds,
              1e-12);
}

TEST(Profiler, LongSectionSurvivesCounterWrap) {
  // A section longer than the 32-bit cycle wrap must still report exact
  // totals (the profiler chunks its monitor updates).
  // The simulator's cost is per instruction, so the chain is padded with
  // dependent square roots: 15 cycles each and no HPM counter of their
  // own.  8 adds + 120 sqrts take ~1800 cycles per iteration, so 3M
  // iterations cross 2^32 cycles with ~14x fewer instructions than a
  // pure add chain would need.
  power2::KernelBuilder b("long");
  std::int16_t prev = power2::kNoDep;
  for (int i = 0; i < 8; ++i) prev = b.fp_add(prev);
  for (int i = 0; i < 120; ++i) prev = b.fp_sqrt(prev);
  constexpr std::uint64_t kIters = 3'000'000;
  const power2::KernelDesc k = b.warmup(0).measure(kIters).build();
  ProgramProfiler prof;
  const SectionReport& s = prof.run_section("marathon", k);
  // At least 1.2 wraps' worth of cycles, so the section really spans the
  // 32-bit counter wrap and the chunked monitor updates.
  EXPECT_GE(s.counts.cycles, (1ull << 32) * 6 / 5);
  EXPECT_EQ(s.delta.user_at(hpm::HpmCounter::kUserCycles), s.counts.cycles);
  EXPECT_EQ(s.delta.user_at(hpm::HpmCounter::kFpAdd0) +
                s.delta.user_at(hpm::HpmCounter::kFpAdd1),
            8ull * kIters);
}

TEST(Profiler, FormatListsSectionsAndTotal) {
  ProgramProfiler prof;
  prof.run_section("init", small_fp_kernel());
  const std::string out = prof.format();
  EXPECT_NE(out.find("init"), std::string::npos);
  EXPECT_NE(out.find("TOTAL"), std::string::npos);
  EXPECT_NE(out.find("Mflops"), std::string::npos);
}

TEST(Profiler, ResetClearsEverything) {
  ProgramProfiler prof;
  prof.run_section("a", small_fp_kernel());
  prof.reset();
  EXPECT_TRUE(prof.sections().empty());
  const SectionReport& s = prof.run_section("b", small_fp_kernel());
  EXPECT_EQ(s.counts.fp_fma(), 1024u);
  EXPECT_EQ(s.delta.user_at(hpm::HpmCounter::kFpMulAdd0) +
                s.delta.user_at(hpm::HpmCounter::kFpMulAdd1),
            1024u);
}

TEST(Profiler, CacheStatePersistsBetweenSections) {
  // Phases of one program share microarchitectural state: a second pass
  // over the same data misses less than the first.
  power2::KernelBuilder b1("pass");
  const auto s1 = b1.stream(128 * 1024, 8);
  b1.load(s1);
  const power2::KernelDesc pass = b1.warmup(0).measure(16384).build();

  ProgramProfiler prof;
  const SectionReport first = prof.run_section("first", pass);
  const SectionReport second = prof.run_section("second", pass);
  EXPECT_LT(second.counts.dcache_miss, first.counts.dcache_miss);
}

}  // namespace
}  // namespace p2sim::rs2hpm
