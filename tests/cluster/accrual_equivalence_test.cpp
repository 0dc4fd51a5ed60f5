// The closed-form accrual path's contract: bit-identical node state to the
// reference slice-by-slice loop, for any signature, activity profile,
// slice length, interval length and crash/reboot sequence.
//
// Two nodes differing only in NodeConfig::reference_accrual receive the
// same operation stream; after every operation the full observable state —
// both wrapping 32-bit banks, the RS2HPM 64-bit extension, the DMA
// engine's totals and sub-transfer residuals, the quad diagnostic and
// busy_seconds — must match exactly (doubles compared via ==), and so must
// the two nodes' checkpoint bytes, which also hold the private residual
// accumulators (doubles compared bit for bit).

#include "src/cluster/node.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/carry_chain.hpp"
#include "src/hpm/events.hpp"
#include "src/power2/field_table.hpp"
#include "src/util/ckpt.hpp"
#include "src/util/rng.hpp"

namespace p2sim::cluster {

/// Runs `slices` full slices of `profile` through Node's integer carry
/// replay alone: true when the replay took them, false when it fell back
/// (changing nothing).
struct NodeTestPeer {
  static bool replay(Node& node, std::uint64_t slices, bool busy,
                     const ActivityProfile& profile) {
    power2::EventCounts sys;
    std::uint64_t io_read = 0;
    std::uint64_t io_write = 0;
    return node.replay_full_slices(
        slices,
        node.slice_adds(node.config().max_sample_slice_s, busy, profile),
        sys, io_read, io_write);
  }
};

namespace {

// Random rates kept physical (each <= ~1 event/cycle) and consistent with
// the audit identities, which are enforced here as single-field
// inequalities: fma <= add (per unit), reload <= miss <= memory,
// store <= reload, tlb/quad <= memory, and miss rates <= a single FXU
// rate (the totals rules bound misses by fxu0+fxu1; a one-field bound is
// the rounding-safe way to satisfy them, since llround is monotone so
// single-field rate inequalities survive scaling on every slice length).
power2::EventSignature random_signature(util::Xoshiro256StarStar& rng) {
  power2::EventSignature s;
  s.cycles_per_iter = rng.uniform(1.0, 100.0);
  s.fxu0_inst = rng.uniform(0.0, 0.9);
  s.fxu1_inst = rng.uniform(0.0, 0.9);
  s.fpu0_inst = rng.uniform(0.0, 0.9);
  s.fpu1_inst = rng.uniform(0.0, 0.9);
  s.fp_add0 = rng.uniform(0.0, 0.9);
  s.fp_add1 = rng.uniform(0.0, 0.9);
  s.fp_mul0 = rng.uniform(0.0, 0.9);
  s.fp_mul1 = rng.uniform(0.0, 0.9);
  s.fp_div0 = rng.uniform(0.0, 0.2);
  s.fp_div1 = rng.uniform(0.0, 0.2);
  s.fp_fma0 = s.fp_add0 * rng.uniform();
  s.fp_fma1 = s.fp_add1 * rng.uniform();
  s.icu_type1 = rng.uniform(0.0, 0.5);
  s.icu_type2 = rng.uniform(0.0, 0.5);
  s.icache_reload = rng.uniform(0.0, 0.1);
  s.memory_inst = rng.uniform(0.0, 0.9);
  s.dcache_miss = std::min(s.memory_inst, s.fxu0_inst) * rng.uniform();
  s.dcache_reload = s.dcache_miss * rng.uniform();
  s.dcache_store = s.dcache_reload * rng.uniform();
  s.tlb_miss = std::min(s.memory_inst, s.fxu1_inst) * rng.uniform(0.0, 0.1);
  s.quad_inst = s.memory_inst * rng.uniform();
  s.stall_dcache = rng.uniform(0.0, 0.5);
  s.stall_tlb = rng.uniform(0.0, 0.3);
  return s;
}

ActivityProfile random_profile(util::Xoshiro256StarStar& rng) {
  ActivityProfile a;
  a.compute_fraction = rng.uniform();
  a.comm_wait_fraction = rng.uniform();
  a.io_wait_fraction = rng.uniform();
  a.comm_send_bytes_per_s = rng.uniform(0.0, 5e6);
  a.comm_recv_bytes_per_s = rng.uniform(0.0, 5e6);
  a.disk_read_bytes_per_s = rng.uniform(0.0, 10e6);
  a.disk_write_bytes_per_s = rng.uniform(0.0, 10e6);
  a.page_faults_per_s = rng.uniform(0.0, 50.0);
  return a;
}

void expect_identical(const Node& fast, const Node& ref,
                      const std::string& where) {
  EXPECT_EQ(fast.monitor().bank(hpm::PrivilegeMode::kUser).raw(),
            ref.monitor().bank(hpm::PrivilegeMode::kUser).raw())
      << where << ": user bank";
  EXPECT_EQ(fast.monitor().bank(hpm::PrivilegeMode::kSystem).raw(),
            ref.monitor().bank(hpm::PrivilegeMode::kSystem).raw())
      << where << ": system bank";
  EXPECT_EQ(fast.totals(), ref.totals()) << where << ": extended totals";
  EXPECT_EQ(fast.quad_total(), ref.quad_total()) << where << ": quad";
  EXPECT_EQ(fast.busy_seconds(), ref.busy_seconds()) << where << ": busy";
  EXPECT_EQ(fast.dma().total_read_bytes(), ref.dma().total_read_bytes())
      << where << ": dma read";
  EXPECT_EQ(fast.dma().total_write_bytes(), ref.dma().total_write_bytes())
      << where << ": dma write";
  EXPECT_EQ(fast.dma().pending_read_bytes(), ref.dma().pending_read_bytes())
      << where << ": dma pending read";
  EXPECT_EQ(fast.dma().pending_write_bytes(), ref.dma().pending_write_bytes())
      << where << ": dma pending write";
  // The checkpoint bytes hold everything a restored node carries on with,
  // the five event residuals included, each double bit for bit.
  util::CkptWriter fast_ckpt;
  fast.save_ckpt(fast_ckpt);
  util::CkptWriter ref_ckpt;
  ref.save_ckpt(ref_ckpt);
  EXPECT_EQ(fast_ckpt.bytes(), ref_ckpt.bytes()) << where << ": checkpoint";
}

void fuzz_config(NodeConfig cfg, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  for (int round = 0; round < 12; ++round) {
    NodeConfig fast_cfg = cfg;
    fast_cfg.reference_accrual = false;
    NodeConfig ref_cfg = cfg;
    ref_cfg.reference_accrual = true;
    Node fast(1, fast_cfg);
    Node ref(1, ref_cfg);
    const power2::EventSignature sig = random_signature(rng);

    for (int op = 0; op < 30; ++op) {
      const std::uint64_t kind = rng.below(10);
      if (kind < 6) {
        // Busy interval; occasionally an exact multiple of the slice
        // length to hit the remainder == max boundary.
        double seconds = rng.uniform(0.01, 1800.0);
        if (rng.below(5) == 0) {
          seconds =
              cfg.max_sample_slice_s * static_cast<double>(1 + rng.below(20));
        }
        const ActivityProfile act = random_profile(rng);
        fast.advance(seconds, &sig, act);
        ref.advance(seconds, &sig, act);
      } else if (kind < 8) {
        const double seconds = rng.uniform(0.01, 1800.0);
        fast.advance_idle(seconds);
        ref.advance_idle(seconds);
      } else if (kind == 8) {
        fast.crash();
        ref.crash();
        if (rng.below(2) == 0) {
          // Advances while down are no-ops on both paths.
          const ActivityProfile act = random_profile(rng);
          fast.advance(100.0, &sig, act);
          ref.advance(100.0, &sig, act);
        }
        fast.reboot();
        ref.reboot();
      } else {
        // Zero / negative durations are no-ops.
        const ActivityProfile act = random_profile(rng);
        fast.advance(0.0, &sig, act);
        ref.advance(0.0, &sig, act);
        fast.advance(-5.0, &sig, act);
        ref.advance(-5.0, &sig, act);
      }
      expect_identical(fast, ref,
                       "round " + std::to_string(round) + " op " +
                           std::to_string(op));
      if (testing::Test::HasFailure()) return;  // first divergence is enough
    }
  }
}

TEST(AccrualEquivalence, DefaultConfig) { fuzz_config(NodeConfig{}, 0xA11CE); }

TEST(AccrualEquivalence, ShortSlices) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 13.3;
  fuzz_config(cfg, 0xB0B);
}

TEST(AccrualEquivalence, OddSliceLength) {
  NodeConfig cfg;
  cfg.max_sample_slice_s = 37.7;
  fuzz_config(cfg, 0xC4B1E);
}

TEST(AccrualEquivalence, WaitStateSelection) {
  NodeConfig cfg;
  cfg.monitor.selection = hpm::CounterSelection::kWaitStates;
  fuzz_config(cfg, 0xD00D);
}

TEST(AccrualEquivalence, DivideCounterFixed) {
  NodeConfig cfg;
  cfg.monitor.divide_counter_bug = false;
  fuzz_config(cfg, 0xE66);
}

// The slice decomposition itself: a duration equal to, just under and just
// over one slice must land identically (these are the boundary cases of
// the closed-form n_full/remainder split).
TEST(AccrualEquivalence, SliceBoundaryDurations) {
  util::Xoshiro256StarStar rng(0xF00F);
  const power2::EventSignature sig = random_signature(rng);
  const ActivityProfile act = random_profile(rng);
  NodeConfig fast_cfg;
  fast_cfg.reference_accrual = false;
  NodeConfig ref_cfg;
  ref_cfg.reference_accrual = true;
  Node fast(7, fast_cfg);
  Node ref(7, ref_cfg);
  const double max = fast_cfg.max_sample_slice_s;
  for (double seconds : {max, max - 1e-9, max + 1e-9, 2.0 * max, 0.5 * max,
                         900.0, 1e-6}) {
    fast.advance(seconds, &sig, act);
    ref.advance(seconds, &sig, act);
    expect_identical(fast, ref, "seconds=" + std::to_string(seconds));
  }
}

// ---- the integer carry replay's guard, both arms ----------------------
//
// advance_batched replays the full slices between the first and the last
// in integer arithmetic when every carried quantity sits on the grid of
// its binade, and runs the floating-point step otherwise.  These cases
// put the per-slice adds, the carried residuals and the DMA totals on
// both sides of each condition: sums just below and just above a power
// of two, adds below 1 and below one transfer, residuals restored from a
// checkpoint at arbitrary values, bytes per transfer that are not whole,
// page bytes on and off the grid, idle runs, and runs of many more than
// the 18 slices of a 15-minute interval.

/// The carried state a checkpoint restores.
struct Carried {
  double pending_read = 0.0;
  double pending_write = 0.0;
  double total_read = 0.0;
  double total_write = 0.0;
  std::array<double, 5> resid{};
};

/// Restores `node` from its own checkpoint with the carried state
/// replaced: Node::save_ckpt ends with the DMA engine, the quad total,
/// busy_seconds, the up flag and the five residuals.
void restore_carried(Node& node, const Carried& c) {
  util::CkptWriter full;
  node.save_ckpt(full);
  util::CkptWriter tail;
  tail.put_f64(c.pending_read);
  tail.put_f64(c.pending_write);
  tail.put_f64(c.total_read);
  tail.put_f64(c.total_write);
  tail.put_u64(node.quad_total());
  tail.put_f64(node.busy_seconds());
  tail.put_bool(node.is_up());
  for (double r : c.resid) tail.put_f64(r);
  const std::string bytes =
      full.bytes().substr(0, full.size() - tail.size()) + tail.bytes();
  util::CkptReader r(bytes);
  node.restore_ckpt(r);
}

/// A per-slice amount from a menu of the guard's edge cases, below about
/// 2^max_log2.  (The fast path's contract needs each slice to advance every
/// counter by less than 2^32: a slice's count can sum two adds and two
/// restored residuals, and a DMA counter may sum reads and writes.)
double tricky_amount(util::Xoshiro256StarStar& rng, int max_log2) {
  const double p2 =
      std::ldexp(1.0, 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(max_log2))));
  // A few units of a random binary place, from 2^-40 up to 2^6.
  const double step = std::ldexp(static_cast<double>(1 + rng.below(7)),
                                 static_cast<int>(rng.below(47)) - 40);
  switch (rng.below(9)) {
    case 0: return std::max(0.0, p2 - step);       // just below 2^k
    case 1: return p2 + step;                       // just above 2^k
    case 2: return p2 - 1.0 + rng.uniform();        // x + a straddles 2^k
    case 3: return std::max(0.0, p2 - 48.0 * rng.uniform());  // p + a too
    case 4: return rng.uniform();                   // below 1
    case 5: return 48.0 * rng.uniform();            // below one transfer
    case 6: return static_cast<double>(rng.below(1u << 30));  // whole
    case 7: return rng.uniform(0.0, 1e9);           // anything
    default: return 0.0;
  }
}

/// A carried value from a menu: zero, a fraction of the modulus, or an
/// arbitrary value a checkpoint could hold.
double tricky_residual(util::Xoshiro256StarStar& rng, double m,
                       int max_log2) {
  switch (rng.below(5)) {
    case 0: return 0.0;
    case 1: return m * rng.uniform();
    case 2: return std::nextafter(m, 0.0);
    case 3: return rng.uniform(0.0, 1e7);
    default: return tricky_amount(rng, max_log2);
  }
}

/// A lifetime DMA total: empty, tiny, or just below a power of two so the
/// run's adds cross into the next binade.
double tricky_total(util::Xoshiro256StarStar& rng) {
  switch (rng.below(4)) {
    case 0: return 0.0;
    case 1: return rng.uniform();
    case 2: return std::ldexp(1.0, static_cast<int>(10 + rng.below(40))) -
                   tricky_amount(rng, 8);
    default: return rng.uniform(1.0, 1e12);
  }
}

void fuzz_carry_guard(std::uint64_t seed, double slice_s) {
  constexpr int kEvents = 28;
  constexpr int kBytes = 33;
  util::Xoshiro256StarStar rng(seed);
  for (int round = 0; round < 60; ++round) {
    NodeConfig cfg;
    cfg.max_sample_slice_s = slice_s;
    // A power-of-two slice makes rate * slice exact, so each amount below
    // is exactly what one slice adds; other slices round it.
    cfg.os_noise_fxu_per_s = tricky_amount(rng, kEvents) / slice_s;
    cfg.os_noise_icu_per_s = tricky_amount(rng, kEvents) / slice_s;
    cfg.fault_fxu_inst = tricky_amount(rng, kEvents);
    cfg.fault_icu_inst = tricky_amount(rng, kEvents);
    cfg.fault_cycles = tricky_amount(rng, kEvents);
    cfg.page_bytes = rng.below(2) == 0 ? 4096.0 : tricky_amount(rng, kBytes);
    // 48 (the default), 32 and 64 bytes are whole; 41.6 and 42.67 are not.
    constexpr std::array kEightWord{0.5, 0.0, 1.0, 0.3, 1.0 / 3.0, 0.25};
    cfg.dma.eight_word_fraction = kEightWord[rng.below(kEightWord.size())];
    const double per = cfg.dma.avg_transfer_bytes();

    NodeConfig ref_cfg = cfg;
    ref_cfg.reference_accrual = true;
    Node fast(3, cfg);
    Node ref(3, ref_cfg);
    util::Xoshiro256StarStar sig_rng(seed + static_cast<std::uint64_t>(round));
    const power2::EventSignature sig = random_signature(sig_rng);

    for (int op = 0; op < 24; ++op) {
      const std::uint64_t kind = rng.below(8);
      if (kind == 0) {
        Carried c;
        c.pending_read = tricky_residual(rng, per, kBytes);
        c.pending_write = tricky_residual(rng, per, kBytes);
        c.total_read = tricky_total(rng);
        c.total_write = tricky_total(rng);
        for (double& r : c.resid) r = tricky_residual(rng, 1.0, kEvents);
        restore_carried(fast, c);
        restore_carried(ref, c);
      } else {
        ActivityProfile act;
        act.compute_fraction = rng.uniform();
        // One fault per slice (so each fault cost is the slice's add), a
        // random fraction of one (page bytes off the grid), or none.
        switch (rng.below(3)) {
          case 0: act.page_faults_per_s = 1.0 / slice_s; break;
          case 1: act.page_faults_per_s = rng.uniform() / slice_s; break;
          default: break;
        }
        act.comm_send_bytes_per_s = tricky_amount(rng, kBytes) / slice_s;
        act.comm_recv_bytes_per_s = tricky_amount(rng, kBytes) / slice_s;
        if (rng.below(2) == 0) {
          act.disk_read_bytes_per_s = tricky_amount(rng, kBytes) / slice_s;
          act.disk_write_bytes_per_s = tricky_amount(rng, kBytes) / slice_s;
        }
        // 18 slices as in a 15-minute interval, up to a few, the most the
        // replay takes in one run and one more, and many more.
        std::uint64_t slices = 18;
        switch (rng.below(6)) {
          case 0: slices = 1 + rng.below(5); break;
          case 1: slices = 20 + rng.below(200); break;
          case 2: slices = CarryChain::kMaxSlices + rng.below(3); break;
          case 3: slices = 600; break;
          default: break;
        }
        double seconds = slice_s * static_cast<double>(slices);
        if (rng.below(4) == 0) seconds -= slice_s * rng.uniform();
        if (kind < 3) {
          fast.advance_idle(seconds);
          ref.advance_idle(seconds);
        } else {
          fast.advance(seconds, &sig, act);
          ref.advance(seconds, &sig, act);
        }
      }
      expect_identical(fast, ref,
                       "seed " + std::to_string(seed) + " round " +
                           std::to_string(round) + " op " +
                           std::to_string(op));
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(AccrualEquivalence, CarryGuardPowerOfTwoSlices) {
  fuzz_carry_guard(0x5EED1, 32.0);
}

TEST(AccrualEquivalence, CarryGuardPaperSlices) {
  fuzz_carry_guard(0x5EED2, 50.0);
}

// The campaign's steady state: a busy or idle node on 900 s intervals for
// many intervals, whole and fractional rates, with and without paging.
TEST(AccrualEquivalence, CarryGuardLongCampaignRuns) {
  util::Xoshiro256StarStar rng(0x5EED3);
  for (double faults : {0.0, 1.0, 0.37, 2.5e-3}) {
    NodeConfig ref_cfg;
    ref_cfg.reference_accrual = true;
    Node fast(4);
    Node ref(4, ref_cfg);
    const power2::EventSignature sig = random_signature(rng);
    ActivityProfile act = random_profile(rng);
    act.page_faults_per_s = faults;
    for (int interval = 0; interval < 200; ++interval) {
      if (interval % 3 == 2) {
        fast.advance_idle(900.0);
        ref.advance_idle(900.0);
      } else {
        fast.advance(900.0, &sig, act);
        ref.advance(900.0, &sig, act);
      }
      expect_identical(fast, ref, "interval " + std::to_string(interval));
      if (testing::Test::HasFailure()) return;
    }
  }
}

// The fallback is exact, so the cases above pass whichever arm runs; these
// pin down which one the campaign's node-intervals take.
std::string ckpt_bytes(const Node& node) {
  util::CkptWriter w;
  node.save_ckpt(w);
  return w.bytes();
}

TEST(AccrualEquivalence, CampaignIntervalsTakeIntegerReplay) {
  util::Xoshiro256StarStar rng(0x5EED4);
  const power2::EventSignature sig = random_signature(rng);
  // perf_gate's engine profile: whole byte rates; with one fault a second
  // its page bytes (204800 per slice) are on the traffic's grid too.
  ActivityProfile act;
  act.compute_fraction = 0.7;
  act.comm_wait_fraction = 0.2;
  act.io_wait_fraction = 0.05;
  act.comm_send_bytes_per_s = 1.2e6;
  act.comm_recv_bytes_per_s = 1.2e6;
  act.disk_read_bytes_per_s = 8e3;
  act.disk_write_bytes_per_s = 15e3;
  ActivityProfile idle;
  idle.compute_fraction = 0.0;
  for (double faults : {0.0, 1.0}) {
    act.page_faults_per_s = faults;
    Node node(5);
    for (int interval = 0; interval < 20; ++interval) {
      node.advance(900.0, &sig, act);
      EXPECT_TRUE(NodeTestPeer::replay(node, 16, true, act))
          << "busy, faults " << faults << ", interval " << interval;
      node.advance_idle(900.0);
      EXPECT_TRUE(NodeTestPeer::replay(node, 16, false, idle))
          << "idle, faults " << faults << ", interval " << interval;
    }
  }
}

TEST(AccrualEquivalence, ReplayFallsBackWithoutChangingState) {
  util::Xoshiro256StarStar rng(0x5EED5);
  const power2::EventSignature sig = random_signature(rng);
  NodeConfig cfg;
  // A power-of-two slice keeps rate * slice exact: one fault per slice
  // adds 0.5 to the fault fxu residual, and OS noise 0.25 or 3.
  cfg.max_sample_slice_s = 32.0;
  cfg.fault_fxu_inst = 0.5;
  cfg.os_noise_fxu_per_s = 0.25 / 32.0;
  ActivityProfile act;
  act.page_faults_per_s = 1.0 / 32.0;
  act.comm_send_bytes_per_s = 1024.0 / 32.0;
  {
    // Neither fxu chain is steady: the per-slice split depends on where
    // each carries.
    Node node(6, cfg);
    node.advance(32.0 * 18, &sig, act);
    const std::string before = ckpt_bytes(node);
    EXPECT_FALSE(NodeTestPeer::replay(node, 16, true, act));
    EXPECT_EQ(ckpt_bytes(node), before);
  }
  {
    // Whole OS noise is steady, so the same paging replays.
    NodeConfig steady = cfg;
    steady.os_noise_fxu_per_s = 3.0 / 32.0;
    Node node(6, steady);
    node.advance(32.0 * 18, &sig, act);
    EXPECT_TRUE(NodeTestPeer::replay(node, 16, true, act));
  }
  {
    // 41.6 bytes per transfer is off the grid of 1024 + 41.6's binade.
    NodeConfig off_grid = cfg;
    off_grid.os_noise_fxu_per_s = 3.0 / 32.0;
    off_grid.dma.eight_word_fraction = 0.3;
    Node node(6, off_grid);
    node.advance(32.0 * 18, &sig, act);
    const std::string before = ckpt_bytes(node);
    EXPECT_FALSE(NodeTestPeer::replay(node, 16, true, act));
    EXPECT_EQ(ckpt_bytes(node), before);
  }
  {
    // A run longer than the replay takes in one go.
    NodeConfig steady = cfg;
    steady.os_noise_fxu_per_s = 3.0 / 32.0;
    Node node(6, steady);
    node.advance(32.0 * 18, &sig, act);
    const std::string before = ckpt_bytes(node);
    EXPECT_FALSE(
        NodeTestPeer::replay(node, CarryChain::kMaxSlices + 1, true, act));
    EXPECT_EQ(ckpt_bytes(node), before);
  }
}

}  // namespace
}  // namespace p2sim::cluster
