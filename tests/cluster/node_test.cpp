#include "src/cluster/node.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/check/check.hpp"
#include "src/hpm/events.hpp"

namespace p2sim::cluster {
namespace {

using hpm::HpmCounter;

power2::EventSignature flat_signature() {
  power2::EventSignature s;
  s.fxu0_inst = 0.2;
  s.fxu1_inst = 0.3;
  s.fpu0_inst = 0.15;
  s.fpu1_inst = 0.1;
  s.fp_add0 = 0.1;
  s.fp_fma0 = 0.05;
  s.icu_type1 = 0.02;
  s.dcache_miss = 0.005;
  s.memory_inst = 0.45;
  s.quad_inst = 0.04;
  s.cycles_per_iter = 10.0;
  return s;
}

TEST(Node, RejectsSliceAboveWrapPeriod) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 70.0;  // 70 s * 66.7 MHz > 2^32
  EXPECT_THROW(Node(0, cfg), std::invalid_argument);
}

TEST(Node, RejectsNegativeOrNonFiniteCostsAndRates) {
  using Field = double NodeConfig::*;
  for (const Field field :
       {&NodeConfig::fault_fxu_inst, &NodeConfig::fault_icu_inst,
        &NodeConfig::fault_cycles, &NodeConfig::page_bytes,
        &NodeConfig::os_noise_fxu_per_s, &NodeConfig::os_noise_icu_per_s}) {
    for (const double bad : {-1.0, -std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      NodeConfig cfg;
      cfg.*field = bad;
      EXPECT_THROW(Node(0, cfg), std::invalid_argument) << bad;
    }
    NodeConfig zero;
    zero.*field = 0.0;
    EXPECT_NO_THROW(Node(0, zero));
  }
}

TEST(Node, RejectsOsNoiseThatWrapsInOneSlice) {
  for (const auto field :
       {&NodeConfig::os_noise_fxu_per_s, &NodeConfig::os_noise_icu_per_s}) {
    NodeConfig cfg;
    cfg.*field = 0x1p32 / cfg.max_sample_slice_s;
    EXPECT_THROW(Node(0, cfg), std::invalid_argument);
    cfg.*field = 0x1p31 / cfg.max_sample_slice_s;
    EXPECT_NO_THROW(Node(0, cfg));
  }
}

TEST(Node, RestoreRejectsDoctoredResidual) {
  Node n(0);
  n.advance_idle(900.0);
  util::CkptWriter w;
  util::save_ckpt(w, n);
  const std::string good = w.bytes();
  {
    Node restored(0);
    util::CkptReader r(good);
    EXPECT_NO_THROW(util::restore_ckpt(r, restored));
  }
  // The payload ends with the five residuals, each a tag byte and eight
  // little-endian bytes.
  for (int k = 1; k <= 5; ++k) {
    for (const double bad : {-0.25, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      std::string doctored = good;
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(bad);
      const std::size_t at = doctored.size() - 9 * static_cast<std::size_t>(k);
      ASSERT_EQ(doctored[at], 'd');
      for (int b = 0; b < 8; ++b) {
        doctored[at + 1 + b] = static_cast<char>((bits >> (8 * b)) & 0xff);
      }
      Node restored(0);
      util::CkptReader r(doctored);
      EXPECT_THROW(util::restore_ckpt(r, restored), util::CkptError)
          << "residual " << k << " from the end = " << bad;
    }
  }
}

TEST(Node, IdleAccruesOnlyTrickleSystemNoise) {
  Node n(1);
  n.advance_idle(900.0);
  const auto& t = n.totals();
  EXPECT_EQ(t.user_at(HpmCounter::kUserCycles), 0u);
  EXPECT_EQ(t.user_at(HpmCounter::kUserFxu0), 0u);
  EXPECT_GT(t.system_at(HpmCounter::kUserFxu0), 0u);
  EXPECT_EQ(n.busy_seconds(), 0.0);
}

TEST(Node, BusyAccruesUserEventsAtSignatureRate) {
  Node n(2);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.compute_fraction = 1.0;
  n.advance(900.0, &sig, act);

  const double cycles = 900.0 * n.config().clock_hz;
  const auto& t = n.totals();
  EXPECT_NEAR(static_cast<double>(t.user_at(HpmCounter::kUserCycles)), cycles,
              cycles * 1e-9 + 64);
  EXPECT_NEAR(static_cast<double>(t.user_at(HpmCounter::kUserFxu0)),
              0.2 * cycles, 0.2 * cycles * 1e-6 + 64);
  EXPECT_NEAR(static_cast<double>(t.user_at(HpmCounter::kFpMulAdd0)),
              0.05 * cycles, 0.05 * cycles * 1e-6 + 64);
  EXPECT_EQ(n.busy_seconds(), 900.0);
}

TEST(Node, UserCyclesSurviveCounterWrap) {
  // 900 s at 66.7 MHz = 6e10 cycles: ~14 wraps of the 32-bit counter.
  // Multipass sampling must recover the true total.
  Node n(3);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  n.advance(900.0, &sig, act);
  const double cycles = 900.0 * n.config().clock_hz;
  EXPECT_GT(cycles, 4.0e9);  // sanity: we really did cross the wrap
  EXPECT_NEAR(
      static_cast<double>(n.totals().user_at(HpmCounter::kUserCycles)),
      cycles, cycles * 1e-9 + 64);
}

TEST(Node, ComputeFractionScalesEvents) {
  Node full(4), half(5);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile f, h;
  f.compute_fraction = 1.0;
  h.compute_fraction = 0.5;
  full.advance(100.0, &sig, f);
  half.advance(100.0, &sig, h);
  EXPECT_NEAR(static_cast<double>(
                  half.totals().user_at(HpmCounter::kUserCycles)),
              0.5 * static_cast<double>(
                        full.totals().user_at(HpmCounter::kUserCycles)),
              1e4);
}

TEST(Node, PagingGeneratesSystemModeWork) {
  Node n(6);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.compute_fraction = 0.2;
  act.page_faults_per_s = 100.0;
  n.advance(100.0, &sig, act);
  const auto& t = n.totals();
  const double faults = 100.0 * 100.0;
  EXPECT_NEAR(static_cast<double>(t.system_at(HpmCounter::kUserFxu0) +
                                  t.system_at(HpmCounter::kUserFxu1)),
              faults * n.config().fault_fxu_inst +
                  100.0 * n.config().os_noise_fxu_per_s,
              faults * n.config().fault_fxu_inst * 0.01);
  EXPECT_GT(t.system_at(HpmCounter::kUserIcu0), 0u);
  EXPECT_GT(t.system_at(HpmCounter::kUserCycles), 0u);
  // Paging I/O shows up in the DMA counters.
  EXPECT_GT(t.user_at(HpmCounter::kDmaRead), 0u);
  EXPECT_GT(t.user_at(HpmCounter::kDmaWrite), 0u);
}

TEST(Node, ThrashingNodeShowsSystemExceedingUserFxu) {
  // The section 6 signature: system-mode FXU counts exceed user mode.
  Node n(7);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.compute_fraction = 0.05;   // thrash: almost no user progress
  act.page_faults_per_s = 300.0;
  n.advance(900.0, &sig, act);
  const auto& t = n.totals();
  const auto user_fxu = t.user_at(HpmCounter::kUserFxu0) +
                        t.user_at(HpmCounter::kUserFxu1);
  const auto sys_fxu = t.system_at(HpmCounter::kUserFxu0) +
                       t.system_at(HpmCounter::kUserFxu1);
  EXPECT_GT(sys_fxu, user_fxu);
}

TEST(Node, DmaCountersFollowTrafficRates) {
  Node n(8);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.comm_send_bytes_per_s = 1.0e6;
  act.comm_recv_bytes_per_s = 0.5e6;
  n.advance(100.0, &sig, act);
  const double per = n.config().dma.avg_transfer_bytes();
  const auto& t = n.totals();
  EXPECT_NEAR(static_cast<double>(t.user_at(HpmCounter::kDmaRead)),
              1.0e8 / per, 2.0);
  EXPECT_NEAR(static_cast<double>(t.user_at(HpmCounter::kDmaWrite)),
              0.5e8 / per, 2.0);
}

TEST(Node, DiskTrafficMapsToDmaDirections) {
  // File reads enter memory (DMA writes); file writes leave it (DMA reads).
  Node n(9);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.disk_read_bytes_per_s = 1e6;
  n.advance(10.0, &sig, act);
  const auto& t = n.totals();
  EXPECT_GT(t.user_at(HpmCounter::kDmaWrite), 0u);
  EXPECT_EQ(t.user_at(HpmCounter::kDmaRead), 0u);
}

TEST(Node, QuadDiagnosticTracked) {
  Node n(10);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  n.advance(10.0, &sig, act);
  EXPECT_NEAR(static_cast<double>(n.quad_total()),
              0.04 * 10.0 * n.config().clock_hz, 1e4);
}

TEST(Node, CrashZeroesCountersAndStopsAccrual) {
  Node n(12);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  n.advance(100.0, &sig, act);
  ASSERT_NE(n.totals(), rs2hpm::ModeTotals{});
  ASSERT_GT(n.quad_total(), 0u);

  n.crash();
  EXPECT_FALSE(n.is_up());
  EXPECT_EQ(n.totals(), rs2hpm::ModeTotals{});
  EXPECT_EQ(n.quad_total(), 0u);

  // A down node accrues nothing — not even idle OS noise.
  n.advance(100.0, &sig, act);
  n.advance_idle(900.0);
  EXPECT_EQ(n.totals(), rs2hpm::ModeTotals{});
}

TEST(Node, RebootResumesFromZero) {
  // The deliberate non-monotonicity downstream layers must survive: totals
  // after the reboot are smaller than totals before the crash.
  Node n(13);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  n.advance(200.0, &sig, act);
  const std::uint64_t before =
      n.totals().user_at(HpmCounter::kUserCycles);

  n.crash();
  n.reboot();
  EXPECT_TRUE(n.is_up());
  EXPECT_EQ(n.totals(), rs2hpm::ModeTotals{});

  n.advance(10.0, &sig, act);
  const std::uint64_t after = n.totals().user_at(HpmCounter::kUserCycles);
  EXPECT_GT(after, 0u);
  EXPECT_LT(after, before);
}

TEST(Node, ZeroSecondsIsNoOp) {
  Node n(11);
  const power2::EventSignature sig = flat_signature();
  n.advance(0.0, &sig, ActivityProfile{});
  EXPECT_EQ(n.totals(), rs2hpm::ModeTotals{});
}

TEST(Node, IdleAdvanceLeavesBusySecondsUntouched) {
  // The advance() accounting contract: busy time only accrues under a
  // signature; sig == nullptr intervals are idle regardless of profile.
  Node n(14);
  ActivityProfile act;
  act.compute_fraction = 0.8;  // meaningless without a job
  n.advance(300.0, nullptr, act);
  EXPECT_EQ(n.busy_seconds(), 0.0);
  const power2::EventSignature sig = flat_signature();
  n.advance(120.0, &sig, act);
  EXPECT_EQ(n.busy_seconds(), 120.0);
}

// Contract violations the library asserts on when checks are compiled in.
// Release (NDEBUG) strips the checks, so the death tests only run on the
// checks-enabled presets (debug, asan-ubsan, tsan).
class NodeContractDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!p2sim::check::library_checks_enabled()) {
      GTEST_SKIP() << "library checks compiled out in this build";
    }
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(NodeContractDeathTest, RejectsNanComputeFraction) {
  Node n(20);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.compute_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(n.advance(10.0, &sig, act),
               "compute_fraction must be finite");
}

TEST_F(NodeContractDeathTest, RejectsFractionAboveOne) {
  Node n(21);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.io_wait_fraction = 1.5;
  EXPECT_DEATH(n.advance(10.0, &sig, act),
               "io_wait_fraction must be finite and in \\[0,1\\]");
}

TEST_F(NodeContractDeathTest, RejectsNegativeTrafficRate) {
  Node n(22);
  const power2::EventSignature sig = flat_signature();
  ActivityProfile act;
  act.disk_read_bytes_per_s = -1.0;
  EXPECT_DEATH(n.advance(10.0, &sig, act),
               "traffic and fault rates must be finite");
}

TEST_F(NodeContractDeathTest, RejectsWaitFractionsWithoutSignature) {
  Node n(23);
  ActivityProfile act;
  act.comm_wait_fraction = 0.3;
  EXPECT_DEATH(n.advance(10.0, nullptr, act),
               "wait fractions require a running job");
}

}  // namespace
}  // namespace p2sim::cluster
