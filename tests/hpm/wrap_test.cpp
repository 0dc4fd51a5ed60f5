// 32-bit wrap behaviour of the physical counters and the RS2HPM 64-bit
// extension layer.
//
// At 66.7 MHz the cycle counter wraps every ~64 seconds; the campaign
// sampled every 15 minutes per node only because the daemon's multipass
// layer (ExtendedCounters) sampled far faster underneath.  These tests pin
// the arithmetic contract: CounterBank is exactly mod-2^32, wrap_delta
// recovers sub-wrap differences, and ExtendedCounters stays exact across
// one and many wrap periods -- and under-counts by exactly 2^32 when the
// sampling contract is broken.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/check.hpp"
#include "src/hpm/monitor.hpp"
#include "src/rs2hpm/snapshot.hpp"

namespace p2sim {
namespace {

constexpr std::uint64_t kWrap = std::uint64_t{1} << 32;

// ~64 seconds of the 66.7 MHz cycle counter: just below one wrap.
constexpr std::uint64_t kWrapPeriodCycles = 4'268'800'000;  // 64 s * 66.7 MHz

power2::EventCounts cycles_only(std::uint64_t n) {
  power2::EventCounts ev;
  ev.cycles = n;
  return ev;
}

TEST(CounterBankWrap, AddWrapsMod32Bits) {
  hpm::CounterBank bank;
  bank.add(hpm::HpmCounter::kUserCycles, 0xFFFF'FFFFu);
  EXPECT_EQ(bank.read(hpm::HpmCounter::kUserCycles), 0xFFFF'FFFFu);
  bank.add(hpm::HpmCounter::kUserCycles, 1);
  EXPECT_EQ(bank.read(hpm::HpmCounter::kUserCycles), 0u);
}

TEST(CounterBankWrap, LargeFoldKeepsOnlyLow32Bits) {
  // fold() is the wrap-agnostic entry: a multi-wrap increment is legal
  // there (the closed-form accrual path uses it) and the register keeps
  // the faithful mod-2^32 residue.
  hpm::CounterBank bank;
  bank.fold(hpm::HpmCounter::kUserFxu0, kWrap * 3 + 17);
  EXPECT_EQ(bank.read(hpm::HpmCounter::kUserFxu0), 17u);
}

TEST(CounterBankWrapDeathTest, CheckedAddRejectsMultiWrapIncrement) {
  // add() enforces the multipass-sampling contract: one increment must
  // stay below a full wrap or wrap-delta recovery silently undercounts.
  if (!p2sim::check::checks_enabled()) GTEST_SKIP() << "checks compiled out";
  hpm::CounterBank bank;
  EXPECT_DEATH(bank.add(hpm::HpmCounter::kUserFxu0, kWrap),
               "increment >= one wrap");
}

TEST(CounterBankWrap, CountersAreIndependent) {
  hpm::CounterBank bank;
  bank.add(hpm::HpmCounter::kUserCycles, 0xFFFF'FFFFu);
  bank.add(hpm::HpmCounter::kUserCycles, 2);
  bank.add(hpm::HpmCounter::kUserFxu0, 5);
  EXPECT_EQ(bank.read(hpm::HpmCounter::kUserCycles), 1u);
  EXPECT_EQ(bank.read(hpm::HpmCounter::kUserFxu0), 5u);
}

TEST(WrapDelta, Edges) {
  EXPECT_EQ(rs2hpm::wrap_delta(0, 0), 0u);
  EXPECT_EQ(rs2hpm::wrap_delta(100, 250), 150u);
  // Counter wrapped between the samples.
  EXPECT_EQ(rs2hpm::wrap_delta(0xFFFF'FFFFu, 0), 1u);
  EXPECT_EQ(rs2hpm::wrap_delta(0xFFFF'FF00u, 0x0000'0010u), 0x110u);
  // Exactly 2^32 events between samples is indistinguishable from zero --
  // the blind spot that makes the sampling-period contract load-bearing.
  EXPECT_EQ(rs2hpm::wrap_delta(42, 42), 0u);
}

TEST(ExtendedCountersWrap, ExactAcrossOneWrap) {
  hpm::PerformanceMonitor mon;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);

  // Two 64-second compute bursts with a sample between: total cycle count
  // exceeds 2^32 though no single inter-sample delta does.
  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);

  const std::uint64_t total = 2 * kWrapPeriodCycles;
  ASSERT_GT(total, kWrap);
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles), total);
  // The physical register only holds the low 32 bits.
  EXPECT_EQ(mon.bank(hpm::PrivilegeMode::kUser).read(
                hpm::HpmCounter::kUserCycles),
            static_cast<std::uint32_t>(total));
}

TEST(ExtendedCountersWrap, ExactAcrossManyWraps) {
  hpm::PerformanceMonitor mon;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);

  // Ten minutes of busy nodes: ~9.4 wrap periods of the cycle counter,
  // sampled every "16 seconds" (quarter wrap) like the multipass layer.
  constexpr std::uint64_t kSliceCycles = kWrapPeriodCycles / 4;
  constexpr int kSlices = 40;
  for (int i = 0; i < kSlices; ++i) {
    mon.accumulate(cycles_only(kSliceCycles), hpm::PrivilegeMode::kUser);
    ext.sample(mon);
  }
  const std::uint64_t total = std::uint64_t{kSlices} * kSliceCycles;
  ASSERT_GT(total / kWrap, 8u);  // really did cross many wraps
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles), total);
}

TEST(ExtendedCountersWrap, ModesExtendIndependently) {
  hpm::PerformanceMonitor mon;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);

  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  mon.accumulate(cycles_only(123), hpm::PrivilegeMode::kSystem);
  ext.sample(mon);

  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles),
            2 * kWrapPeriodCycles);
  EXPECT_EQ(ext.totals().system_at(hpm::HpmCounter::kUserCycles), 123u);
}

TEST(ExtendedCountersWrap, MissedSampleUnderCountsByOneWrap) {
  hpm::PerformanceMonitor mon;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);

  // Break the sampling contract: a full wrap plus a little slips between
  // two samples (two individually legal sub-wrap batches, no sample in
  // between).  The extension layer cannot see the lost 2^32 -- this is
  // the "missed period" failure mode the multipass design exists to avoid.
  mon.accumulate(cycles_only(kWrap / 2), hpm::PrivilegeMode::kUser);
  mon.accumulate(cycles_only(kWrap / 2 + 5), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles), 5u);
}

TEST(ExtendedCountersWrap, ResetTotalsReanchorsAtCurrentRawValues) {
  hpm::PerformanceMonitor mon;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);

  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  ext.reset_totals();
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles), 0u);

  // Totals restart from zero but stay wrap-consistent with the raw
  // registers (the debug invariant inside sample() checks the anchor).
  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles),
            kWrapPeriodCycles);
}

TEST(WrapAcrossReset, CorrectionNeverAppliedAcrossResetBoundary) {
  // Counter wrap, node reset, and a missed collection interval in one
  // scenario.  wrap_delta() is the right tool *within* a monotone counter
  // stream; across a reset boundary it would fabricate a near-2^32 count.
  // The reboot guard every sampler shares must refuse the pair, so the
  // sampler re-primes at the reset and never wrap-corrects over it.
  hpm::PerformanceMonitor mon;
  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);
  // The per-interval deltas a sampler would record.
  std::vector<rs2hpm::ModeTotals> deltas;
  const auto cycles = [](const rs2hpm::ModeTotals& t) {
    return t.user_at(hpm::HpmCounter::kUserCycles);
  };

  // Interval 0: the baseline after one near-wrap burst.
  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  rs2hpm::NodeSample base{ext.totals(), 0};

  // Interval 1: a second burst pushes the 64-bit totals past 2^32.  The
  // extension layer's wrap correction is doing its legitimate job here and
  // the guard passes the honest delta.
  mon.accumulate(cycles_only(kWrapPeriodCycles), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  rs2hpm::ModeTotals delta;
  std::uint64_t quad_surplus = 0;
  ASSERT_TRUE(rs2hpm::add_delta_if_monotone(base, ext.totals(), 0, delta,
                                            quad_surplus));
  deltas.push_back(delta);
  EXPECT_EQ(cycles(delta), kWrapPeriodCycles);
  ASSERT_GT(cycles(ext.totals()), kWrap);
  base.totals = ext.totals();

  // Interval 2 is missed entirely (collection script never ran) while the
  // node crashes and reboots: fresh monitor, counters restarted from zero.
  hpm::PerformanceMonitor fresh;
  rs2hpm::ExtendedCounters fresh_ext;
  fresh_ext.attach(fresh);
  fresh.accumulate(cycles_only(1'000), hpm::PrivilegeMode::kUser);
  fresh_ext.sample(fresh);

  // Interval 3: sampling is back.  Totals (1000) sit far below the
  // pre-crash baseline, so the guard refuses the pair and adds nothing —
  // no wrap arithmetic is applied to it — and the sampler re-primes.
  delta = rs2hpm::ModeTotals{};
  EXPECT_FALSE(rs2hpm::add_delta_if_monotone(base, fresh_ext.totals(), 0,
                                             delta, quad_surplus));
  EXPECT_EQ(delta, rs2hpm::ModeTotals{});
  EXPECT_EQ(quad_surplus, 0u);
  deltas.push_back(delta);
  base.totals = fresh_ext.totals();

  // What the naive 32-bit correction would have produced for that pair: a
  // fabricated multi-million-cycle count for an idle node.  No recorded
  // delta may contain it.
  const std::uint64_t bogus = rs2hpm::wrap_delta(
      static_cast<std::uint32_t>(2 * kWrapPeriodCycles),
      static_cast<std::uint32_t>(1'000));
  EXPECT_GT(bogus, 1'000'000u);
  for (const rs2hpm::ModeTotals& d : deltas) EXPECT_NE(cycles(d), bogus);

  // Interval 4: the re-established baseline measures cleanly again, wrap
  // correction once more confined to the monotone post-reboot stream.
  fresh.accumulate(cycles_only(500), hpm::PrivilegeMode::kUser);
  fresh_ext.sample(fresh);
  delta = rs2hpm::ModeTotals{};
  EXPECT_TRUE(rs2hpm::add_delta_if_monotone(base, fresh_ext.totals(), 0,
                                            delta, quad_surplus));
  EXPECT_EQ(cycles(delta), 500u);
}

TEST(ExtendedCountersWrap, AttachAfterActivityStartsFromBaseline) {
  hpm::PerformanceMonitor mon;
  // Counters already hold history before the daemon attaches.
  mon.accumulate(cycles_only(999), hpm::PrivilegeMode::kUser);

  rs2hpm::ExtendedCounters ext;
  ext.attach(mon);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles), 0u);

  mon.accumulate(cycles_only(7), hpm::PrivilegeMode::kUser);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(hpm::HpmCounter::kUserCycles), 7u);
}

}  // namespace
}  // namespace p2sim
