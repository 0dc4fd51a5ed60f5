#include "src/rs2hpm/snapshot.hpp"

#include <gtest/gtest.h>

namespace p2sim::rs2hpm {
namespace {

using hpm::HpmCounter;
using hpm::PerformanceMonitor;
using hpm::PrivilegeMode;

TEST(WrapDelta, PlainDifference) {
  EXPECT_EQ(wrap_delta(100, 250), 150u);
  EXPECT_EQ(wrap_delta(0, 0), 0u);
}

TEST(WrapDelta, AcrossTheWrap) {
  EXPECT_EQ(wrap_delta(0xFFFFFFF0u, 0x10u), 0x20u);
  EXPECT_EQ(wrap_delta(0xFFFFFFFFu, 0x0u), 1u);
}

TEST(WrapDelta, FullPeriodAliasesToZero) {
  // The fundamental limitation: exactly 2^32 events between samples are
  // invisible.  This is why the daemon must sample sub-wrap.
  EXPECT_EQ(wrap_delta(5, 5), 0u);
}

TEST(ModeTotals, AdditionAndSince) {
  ModeTotals a, b;
  a.user[0] = 10;
  a.system[3] = 5;
  b.user[0] = 7;
  b.system[3] = 2;
  const ModeTotals sum = a + b;
  EXPECT_EQ(sum.user[0], 17u);
  EXPECT_EQ(sum.system[3], 7u);
  const ModeTotals d = sum.since(a);
  EXPECT_EQ(d, b);
}

TEST(ModeTotals, Accessors) {
  ModeTotals t;
  t.user[hpm::index_of(HpmCounter::kUserFxu0)] = 4;
  t.system[hpm::index_of(HpmCounter::kUserFxu0)] = 6;
  EXPECT_EQ(t.user_at(HpmCounter::kUserFxu0), 4u);
  EXPECT_EQ(t.system_at(HpmCounter::kUserFxu0), 6u);
  EXPECT_EQ(t.total_at(HpmCounter::kUserFxu0), 10u);
}

NodeSample sample_with_user0(std::uint64_t v, std::uint64_t quad) {
  NodeSample s;
  s.totals.user[0] = v;
  s.quad = quad;
  return s;
}

TEST(RebootGuard, MonotoneDeltasAccumulateAcrossNodes) {
  // Two nodes' exact deltas summed into one accumulator, both modes.
  const NodeSample base0 = sample_with_user0(5, 1);
  const NodeSample base1 = sample_with_user0(7, 2);
  NodeSample now0 = sample_with_user0(15, 4);  // +10, quad +3
  now0.totals.system[2] = 42;                  // system mode, +42
  const NodeSample now1 = sample_with_user0(10, 2);  // +3, quad +0
  ModeTotals delta;
  std::uint64_t quad = 0;
  EXPECT_TRUE(add_delta_if_monotone(base0, now0.totals, now0.quad, delta,
                                    quad));
  EXPECT_TRUE(add_delta_if_monotone(base1, now1.totals, now1.quad, delta,
                                    quad));
  EXPECT_EQ(delta.user[0], 13u);
  EXPECT_EQ(delta.system[2], 42u);
  EXPECT_EQ(quad, 3u);
}

TEST(RebootGuard, CounterResetAddsNothing) {
  // Subtracting a baseline from reset counters would wrap uint64; the
  // guard refuses and leaves the accumulators untouched.
  const NodeSample base = sample_with_user0(1000, 10);
  NodeSample now = sample_with_user0(5, 20);  // rebooted: 5 < 1000
  now.totals.user[1] = 99;                    // another counter advanced
  ModeTotals delta;
  delta.user[0] = 500;
  std::uint64_t quad = 6;
  EXPECT_FALSE(add_delta_if_monotone(base, now.totals, now.quad, delta,
                                     quad));
  EXPECT_EQ(delta.user[0], 500u);
  EXPECT_EQ(delta.user[1], 0u);
  EXPECT_EQ(quad, 6u);
}

TEST(RebootGuard, QuadRegressionAloneAddsNothing) {
  const NodeSample base = sample_with_user0(10, 100);
  const NodeSample now = sample_with_user0(20, 50);  // quad went backwards
  ModeTotals delta;
  std::uint64_t quad = 0;
  EXPECT_FALSE(add_delta_if_monotone(base, now.totals, now.quad, delta,
                                     quad));
  EXPECT_EQ(delta, ModeTotals{});
  EXPECT_EQ(quad, 0u);
}

TEST(NodeSample, CheckpointRoundTrips) {
  NodeSample s = sample_with_user0(123, 45);
  s.totals.system[7] = 6;
  util::CkptWriter w;
  s.save_ckpt(w);
  NodeSample back;
  util::CkptReader r(w.bytes());
  back.restore_ckpt(r);
  r.expect_end("node sample");
  EXPECT_EQ(back.totals, s.totals);
  EXPECT_EQ(back.quad, s.quad);
}

TEST(ExtendedCounters, ExtendsBeyond32Bits) {
  PerformanceMonitor mon;
  ExtendedCounters ext;
  ext.attach(mon);

  // Push 3 * 2^32 cycles through the 32-bit counter in sub-wrap slices.
  const std::uint64_t slice = 1ull << 30;  // quarter wrap
  const std::uint64_t total = 12 * slice;
  power2::EventCounts ev;
  ev.cycles = slice;
  for (std::uint64_t pushed = 0; pushed < total; pushed += slice) {
    mon.accumulate(ev, PrivilegeMode::kUser);
    ext.sample(mon);
  }
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserCycles), total);
  // The raw hardware counter wrapped back to zero.
  EXPECT_EQ(mon.bank(PrivilegeMode::kUser).read(HpmCounter::kUserCycles), 0u);
}

TEST(ExtendedCounters, MissedWrapUndercounts) {
  // Pin down the failure mode: a whole wrap between samples is lost.
  PerformanceMonitor mon;
  ExtendedCounters ext;
  ext.attach(mon);
  // Two legal sub-wrap batches crossing a full wrap in total, with no
  // sample in between: the daemon overslept one period.
  power2::EventCounts ev;
  ev.cycles = (1ull << 31) + 9;
  mon.accumulate(ev, PrivilegeMode::kUser);
  mon.accumulate(ev, PrivilegeMode::kUser);  // total = 2^32 + 18, unsampled
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserCycles), 18u);
}

TEST(ExtendedCounters, SampleWithoutAttachPrimes) {
  PerformanceMonitor mon;
  power2::EventCounts ev;
  ev.fxu0_inst = 55;
  mon.accumulate(ev, PrivilegeMode::kUser);
  ExtendedCounters ext;
  ext.sample(mon);  // first sample only establishes the baseline
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserFxu0), 0u);
  mon.accumulate(ev, PrivilegeMode::kUser);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserFxu0), 55u);
}

TEST(ExtendedCounters, TracksBothModes) {
  PerformanceMonitor mon;
  ExtendedCounters ext;
  ext.attach(mon);
  power2::EventCounts u, s;
  u.fxu0_inst = 10;
  s.fxu0_inst = 90;
  mon.accumulate(u, PrivilegeMode::kUser);
  mon.accumulate(s, PrivilegeMode::kSystem);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserFxu0), 10u);
  EXPECT_EQ(ext.totals().system_at(HpmCounter::kUserFxu0), 90u);
}

TEST(ExtendedCounters, ResetTotalsKeepsBaseline) {
  PerformanceMonitor mon;
  ExtendedCounters ext;
  ext.attach(mon);
  power2::EventCounts ev;
  ev.cycles = 100;
  mon.accumulate(ev, PrivilegeMode::kUser);
  ext.sample(mon);
  ext.reset_totals();
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserCycles), 0u);
  mon.accumulate(ev, PrivilegeMode::kUser);
  ext.sample(mon);
  EXPECT_EQ(ext.totals().user_at(HpmCounter::kUserCycles), 100u);
}

}  // namespace
}  // namespace p2sim::rs2hpm
