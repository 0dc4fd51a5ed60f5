#include "src/power2/signature.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "src/power2/kernel_desc.hpp"
#include "src/util/rng.hpp"

namespace p2sim::power2 {
namespace {

KernelDesc simple_kernel() {
  KernelBuilder b("sig_simple");
  const auto s = b.stream(1 << 20, 8);
  const auto l = b.load(s);
  b.fma(l);
  b.fp_add();
  return b.warmup(64).measure(2048).build();
}

TEST(Signature, RatesMatchDirectRun) {
  Power2Core core;
  const KernelDesc k = simple_kernel();
  const EventSignature sig = measure_signature(core, k);

  Power2Core core2;
  const RunResult r = core2.run(k);
  const double c = static_cast<double>(r.counts.cycles);
  EXPECT_NEAR(sig.fxu0_inst + sig.fxu1_inst,
              static_cast<double>(r.counts.fxu_inst()) / c, 1e-12);
  EXPECT_NEAR(sig.flops_per_cycle(),
              static_cast<double>(r.counts.flops()) / c, 1e-12);
  EXPECT_NEAR(sig.cycles_per_iter, r.cycles_per_iter(), 1e-12);
}

TEST(Signature, FlopsPerCycleSumsAllTypes) {
  EventSignature s;
  s.fp_add0 = 0.1;
  s.fp_mul1 = 0.2;
  s.fp_fma0 = 0.3;
  s.fp_div1 = 0.05;
  EXPECT_NEAR(s.flops_per_cycle(), 0.65, 1e-12);
}

TEST(Signature, MflopsAtClock) {
  EventSignature s;
  s.fp_add0 = 0.5;
  EXPECT_NEAR(s.mflops(100e6), 50.0, 1e-9);
}

TEST(Signature, ScaleProducesProportionalCounts) {
  EventSignature s;
  s.fp_add0 = 0.25;
  s.fxu0_inst = 0.5;
  s.dcache_miss = 0.01;
  const EventCounts ev = s.scale(1'000'000.0);
  EXPECT_EQ(ev.cycles, 1'000'000u);
  EXPECT_EQ(ev.fp_add0, 250'000u);
  EXPECT_EQ(ev.fxu0_inst, 500'000u);
  EXPECT_EQ(ev.dcache_miss, 10'000u);
}

TEST(Signature, ScaleZeroOrNegativeIsEmpty) {
  EventSignature s;
  s.fp_add0 = 1.0;
  EXPECT_EQ(s.scale(0.0), EventCounts{});
  EXPECT_EQ(s.scale(-5.0), EventCounts{});
}

// scale() rounds each count inline; it must agree with std::llround (round
// half away from zero) on every positive value, ties and the values just
// below them included.  A rate of exactly 1 makes a field's product the
// cycle count itself, so `cycles` and `fxu0_inst` both show the rounding.
void expect_llround(const EventSignature& unit, double x) {
  const auto want = static_cast<std::uint64_t>(std::llround(x));
  const EventCounts ev = unit.scale(x);
  ASSERT_EQ(ev.cycles, want) << std::hexfloat << x;
  ASSERT_EQ(ev.fxu0_inst, want) << std::hexfloat << x;
}

TEST(Signature, ScaleRoundsExactlyAsLlround) {
  EventSignature unit;
  unit.fxu0_inst = 1.0;
  for (double x : {0.5, std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
                   1.5, 2.5, 3.5, std::nextafter(2.5, 0.0), 0x1p52 - 0.5,
                   0x1p52 + 0.5, 0x1p52 - 1.5, 0x1p52 + 1.0, 0x1p53,
                   0x1p53 + 2.0, 0x1p53 - 1.0, 0x1p62,
                   std::nextafter(0x1p62, 0.0), std::nextafter(0x1p62, 0x1p63),
                   0x1p62 + 0x1p40,
                   std::nextafter(0x1p63, 0.0), 4294967295.5,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min()}) {
    expect_llround(unit, x);
  }
  util::Xoshiro256StarStar rng(0x11D0);
  for (int i = 0; i < 3'000'000; ++i) {
    double x = 0.0;
    switch (i % 3) {
      case 0:  // uniform over the counts a slice produces
        x = rng.uniform(0.0, 4294967296.0);
        break;
      case 1:  // any bit pattern between 2^-60 and 2^63
        x = std::bit_cast<double>(((963 + rng.below(123)) << 52) |
                                  (rng.next() >> 12));
        break;
      default:  // exact halves
        x = static_cast<double>(rng.below(std::uint64_t{1} << 52)) + 0.5;
        break;
    }
    expect_llround(unit, x);
  }
}

TEST(Signature, ScaleRoundTripApproximatesRun) {
  Power2Core core;
  const KernelDesc k = simple_kernel();
  const EventSignature sig = measure_signature(core, k);
  Power2Core core2;
  const RunResult r = core2.run(k);
  const EventCounts scaled = sig.scale(static_cast<double>(r.counts.cycles));
  // Rounding only: within one event of the direct run.
  EXPECT_NEAR(static_cast<double>(scaled.fp_add0),
              static_cast<double>(r.counts.fp_add0), 1.0);
  EXPECT_NEAR(static_cast<double>(scaled.memory_inst),
              static_cast<double>(r.counts.memory_inst), 1.0);
}

TEST(SignatureCache, MemoizesByContent) {
  SignatureCache cache;
  const KernelDesc k = simple_kernel();
  const EventSignature& a = cache.get(k);
  const EventSignature& b = cache.get(k);
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SignatureCache, DistinctKernelsDistinctEntries) {
  SignatureCache cache;
  cache.get(simple_kernel());
  KernelBuilder b2("sig_other");
  b2.fp_add();
  cache.get(b2.warmup(8).measure(256).build());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SignatureCache, HonorsCoreConfig) {
  // A cache-resident working set measured on a core with a tiny cache
  // must show a higher miss rate.
  KernelBuilder b("resident");
  const auto s = b.stream(64 * 1024, 8);  // fits the 256 kB SP2 cache
  const auto l = b.load(s);
  b.fp_add(l);
  // Warmup walks the full 8192-element footprint so the SP2-sized cache
  // reaches its zero-miss steady state before measurement.
  const KernelDesc k = b.warmup(16384).measure(8192).build();

  SignatureCache normal;
  CoreConfig tiny;
  tiny.dcache = {.size_bytes = 4096, .line_bytes = 256, .ways = 2};
  SignatureCache small(tiny);
  EXPECT_GT(small.get(k).dcache_miss, normal.get(k).dcache_miss);
}

}  // namespace
}  // namespace p2sim::power2
