#include "src/cluster/node.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "src/check/check.hpp"
#include "src/power2/field_table.hpp"

namespace p2sim::cluster {
namespace {

/// One wrap of a 32-bit counter.
constexpr double kWrap = 4294967296.0;

/// Bitwise equality of a plain aggregate of doubles: a plan serves only
/// the order whose every bit matches the one it was built for.
template <class T>
P2SIM_PAR_SAFE bool same_bits(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}
static_assert(sizeof(power2::EventSignature) == 24 * sizeof(double),
              "a plan key compares every byte: no padding, no pointers");
static_assert(sizeof(ActivityProfile) == 8 * sizeof(double),
              "a plan key compares every byte: no padding, no pointers");

/// Splits an accumulated fractional count into a whole number plus residual.
P2SIM_PAR_SAFE std::uint64_t take_whole(double& residual) {
  const double whole = std::floor(residual);
  residual -= whole;
  return static_cast<std::uint64_t>(whole);
}

}  // namespace

Node::Node(int id, const NodeConfig& cfg)
    : id_(id), cfg_(cfg), monitor_(cfg.monitor), dma_(cfg.dma) {
  if (cfg_.max_sample_slice_s <= 0.0 ||
      cfg_.max_sample_slice_s * cfg_.clock_hz >= 4.0e9) {
    throw std::invalid_argument(
        "max_sample_slice_s must keep the cycle counter below one wrap");
  }
  // A negative or non-finite cost or rate would drive a residual negative,
  // and take_whole cannot convert a negative count.
  for (const double v : {cfg_.fault_fxu_inst, cfg_.fault_icu_inst,
                         cfg_.fault_cycles, cfg_.page_bytes,
                         cfg_.os_noise_fxu_per_s, cfg_.os_noise_icu_per_s}) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      throw std::invalid_argument(
          "node fault costs, page bytes and noise rates must be finite and "
          ">= 0");
    }
  }
  // A slice's noise, plus a carry from each of the two residuals it shares
  // a counter with, must stay below one wrap (the bound make_plan checks
  // for every work order).
  for (const double rate : {cfg_.os_noise_fxu_per_s, cfg_.os_noise_icu_per_s}) {
    if (!(rate * cfg_.max_sample_slice_s + 2.0 < kWrap)) {
      throw std::invalid_argument(
          "OS-noise rates must keep one slice's count below one counter "
          "wrap");
    }
  }
  ext_.attach(monitor_);
}

void Node::crash() {
  up_ = false;
  // Everything volatile dies with the OS: raw 32-bit banks, the daemon's
  // 64-bit extension (its process is gone), the DMA engine's residuals and
  // the quad diagnostic.  busy_seconds_ survives — it is the simulator's
  // own lifetime statistic, not node state.
  monitor_.clear();
  ext_ = rs2hpm::ExtendedCounters{};
  ext_.attach(monitor_);
  dma_ = DmaEngine(cfg_.dma);
  quad_total_ = 0;
  resid_fault_fxu_ = resid_fault_icu_ = resid_fault_cycles_ = 0.0;
  resid_noise_fxu_ = resid_noise_icu_ = 0.0;
  plan_.reset();
}

void Node::reboot() { up_ = true; }

void Node::advance(double seconds, const power2::EventSignature* sig,
                   const ActivityProfile& profile) {
  if (!up_) return;  // a down node executes nothing and counts nothing
  if (seconds <= 0.0) return;
  check_profile(sig, profile);
  if (cfg_.reference_accrual) {
    advance_reference(seconds, sig, profile);
  } else {
    advance_batched(seconds, sig, profile);
  }
  // busy_seconds_ counts job-attached wall time only: with sig == nullptr
  // the slice is idle/system time even when wait fractions were requested
  // (check_profile forbids that combination — see the advance() contract).
  if (sig != nullptr) busy_seconds_ += seconds;
}

void Node::advance_reference(double seconds, const power2::EventSignature* sig,
                             const ActivityProfile& profile) {
  double left = seconds;
  while (left > 0.0) {
    const double slice = std::min(left, cfg_.max_sample_slice_s);
    apply_slice(slice, sig, profile);
    ext_.sample(monitor_);  // multipass: sample well below the wrap period
    left -= slice;
  }
}

// The closed-form fast path.  The reference loop above cuts `seconds` into
// n identical full slices of max_sample_slice_s plus one fp-exact remainder
// (repeated `left -= max` reproduces the same doubles), and every full
// slice is arithmetically identical: the same `rounded(rate * cycles)` per
// field, the same wait-state truncation.  So the user-mode total is
//     n * scale(full_slice) + scale(remainder)
// computed with two scales instead of n + 1 (one when the remainder is a
// full slice, as in every 900 s interval).  The 32-bit banks only ever
// see sums mod 2^32, and each reference slice advances every mapped
// counter by < 2^32 (the ctor's wrap bound on cycles, make_plan's on the
// system-mode and DMA counts; physical rates are <= a few per cycle), so
// each per-slice wrap_delta equals the true increment and the summed
// 64-bit totals handed to ExtendedCounters::accrue are exactly what
// slice-by-slice sampling would have accumulated.
//
// All of that is a pure function of the work order and the config, so it
// lives in an IntervalPlan (make_plan) that the node keeps for its last
// order: a node repeating its previous order, as most campaign intervals
// do, only applies the plan to its carried state.  That state — the five
// residual accumulators, the integer fxu split, and the DMA pending bytes
// and lifetime totals — depends on slice boundaries.  Each chain there is
// the recurrence x <- (x + a) mod m, with m = 1 for a residual and m =
// bytes per transfer for a pending-byte counter, and replays exactly in
// integers whenever its value is on the plan's grid (replay_full_slices).
// Residuals left by the same order are on its grids, so all n identical
// slices replay in integers.  Otherwise the first slice runs the
// reference's floating-point step (carry_slice), which puts the residuals
// on the grids when the order allows it, and the rest replay; a slice the
// replay cannot take, and a remainder shorter than a full slice, run the
// floating-point step.
std::uint64_t Node::advance_batched(double seconds,
                                    const power2::EventSignature* sig,
                                    const ActivityProfile& profile) {
  if (!plan_ || !plan_->matches(seconds, sig, profile)) {
    plan_ = make_plan(seconds, sig, profile);
  }
  const IntervalPlan& p = *plan_;

  hpm::CounterAdds user_adds = p.user_adds;
  hpm::CounterAdds sys_adds{};
  quad_total_ += p.quad;

  // --- system-mode work + DMA: replay only the carried state per slice ---
  power2::EventCounts sys_total;
  std::uint64_t io_read = 0;
  std::uint64_t io_write = 0;
  std::uint64_t fp_slices = 0;
  // The reference's floating-point step for one slice.  Without paging the
  // fault adds are +0.0, which leave a residual's value as the reference's
  // skipped adds do, and a transfer of 0 bytes moves nothing.
  const auto carry_slice = [&](const SliceAdds& a) {
    resid_fault_fxu_ += a.fault_fxu;
    resid_fault_icu_ += a.fault_icu;
    resid_fault_cycles_ += a.fault_cycles;
    dma_.transfer(/*read_bytes=*/a.page_bytes, /*write_bytes=*/a.page_bytes);
    resid_noise_fxu_ += a.noise_fxu;
    resid_noise_icu_ += a.noise_icu;
    const std::uint64_t f_fxu =
        take_whole(resid_fault_fxu_) + take_whole(resid_noise_fxu_);
    const std::uint64_t f_icu =
        take_whole(resid_fault_icu_) + take_whole(resid_noise_icu_);
    sys_total.fxu0_inst += f_fxu / 2;
    sys_total.fxu1_inst += f_fxu - f_fxu / 2;
    sys_total.icu_type1 += f_icu;
    sys_total.cycles += take_whole(resid_fault_cycles_);
    dma_.transfer(a.read_bytes, a.write_bytes);
    const DmaEngine::Harvest h = dma_.harvest();
    io_read += h.read_transfers;
    io_write += h.write_transfers;
    ++fp_slices;
  };
  // All the full slices replay when the carried values enter on the
  // plan's grids; if not, one floating-point slice may put them there.
  for (std::uint64_t done = 0; done < p.n_same; ++done) {
    if (done < 2 && replay_full_slices(p.n_same - done, p, sys_total,
                                       io_read, io_write)) {
      break;
    }
    carry_slice(p.full);
  }
  if (!p.rem_is_full) carry_slice(p.rem);

  monitor_.map_events(sys_total, sys_adds);
  if (io_read != 0 || io_write != 0) {
    power2::EventCounts io;
    io.dma_read = io_read;
    io.dma_write = io_write;
    monitor_.map_events(io, user_adds);
  }
  monitor_.accumulate_adds(user_adds, hpm::PrivilegeMode::kUser);
  monitor_.accumulate_adds(sys_adds, hpm::PrivilegeMode::kSystem);
  ext_.accrue(monitor_, user_adds, sys_adds);
  return fp_slices;
}

bool Node::IntervalPlan::matches(double s, const power2::EventSignature* g,
                                 const ActivityProfile& a) const {
  return same_bits(seconds, s) && has_sig == (g != nullptr) &&
         same_bits(profile, a) && (g == nullptr || same_bits(sig, *g));
}

Node::IntervalPlan Node::make_plan(double seconds,
                                   const power2::EventSignature* sig,
                                   const ActivityProfile& profile) const {
  IntervalPlan p;
  p.seconds = seconds;
  p.has_sig = sig != nullptr;
  if (sig != nullptr) p.sig = *sig;
  p.profile = profile;

  // Replicate the reference slice decomposition bit-for-bit.
  const double max = cfg_.max_sample_slice_s;
  std::uint64_t n_full = 0;
  double left = seconds;
  while (left > max) {
    left -= max;
    ++n_full;
  }
  const double rem = left;  // in (0, max_sample_slice_s]
  // A remainder of exactly one slice (every multiple of the slice length)
  // reuses the full slice's scaled counts and carried adds.
  p.rem_is_full = rem == max;
  p.n_same = n_full + (p.rem_is_full ? 1 : 0);

  // --- user-mode work, closed form ---
  if (sig != nullptr && profile.compute_fraction > 0.0) {
    const auto slice_user = [&](double slice) {
      const double cycles =
          slice * cfg_.clock_hz * std::min(profile.compute_fraction, 1.0);
      P2SIM_INVARIANT(cycles < kWrap,
                      "slice cycles must stay below one counter wrap");
      power2::EventCounts ev = sig->scale(cycles);
      ev.comm_wait_cycles = static_cast<std::uint64_t>(
          slice * cfg_.clock_hz * std::min(profile.comm_wait_fraction, 1.0));
      ev.io_wait_cycles = static_cast<std::uint64_t>(
          slice * cfg_.clock_hz * std::min(profile.io_wait_fraction, 1.0));
      return ev;
    };
    power2::EventCounts user_total;
    if (p.n_same > 0) {
      const power2::EventCounts full = slice_user(max);
      user_total.cycles = full.cycles * p.n_same;
      for (const power2::ScaledField& f : power2::kScaledFields)
        user_total.*(f.count) = (full.*(f.count)) * p.n_same;
      user_total.comm_wait_cycles = full.comm_wait_cycles * p.n_same;
      user_total.io_wait_cycles = full.io_wait_cycles * p.n_same;
    }
    if (!p.rem_is_full) user_total += slice_user(rem);
    monitor_.map_events(user_total, p.user_adds);
    p.quad = user_total.quad_inst;
  }

  // --- the carried adds of each slice kind, and the full slice's grids ---
  const bool busy = sig != nullptr;
  if (p.n_same > 0) {
    p.full = slice_adds(max, busy, profile);
    check_slice_bound(p.full);
    const SliceAdds& a = p.full;
    p.fault_fxu = CarryGrid(a.fault_fxu, 0.0, 1.0);
    p.fault_icu = CarryGrid(a.fault_icu, 0.0, 1.0);
    p.fault_cycles = CarryGrid(a.fault_cycles, 0.0, 1.0);
    p.noise_fxu = CarryGrid(a.noise_fxu, 0.0, 1.0);
    p.noise_icu = CarryGrid(a.noise_icu, 0.0, 1.0);
    p.dma = dma_.replay_grids(a.page_bytes, a.read_bytes, a.write_bytes);
    // The per-slice fxu split is closed-form only while one of its two
    // chains never carries (see replay_full_slices).
    p.replayable = p.fault_fxu.exact() && p.fault_icu.exact() &&
                   p.fault_cycles.exact() && p.noise_fxu.exact() &&
                   p.noise_icu.exact() &&
                   (p.fault_fxu.steady() || p.noise_fxu.steady());
  }
  if (!p.rem_is_full) {
    p.rem = slice_adds(rem, busy, profile);
    check_slice_bound(p.rem);
  }
  return p;
}

void Node::check_slice_bound(const SliceAdds& a) const {
  // A chain's whole count in one slice is below its add plus one carry,
  // and a DMA harvest below its bytes over the transfer size plus one;
  // the fxu and icu counts each sum two chains.  Every such count must
  // stay below one wrap, or the 64-bit totals and the reference's
  // per-slice sampling disagree.  The system-mode cycle count is not
  // checked: the paging-storm preset's fault rates charge more fault
  // cycles per slice than one wrap (and than the clock delivers), so its
  // bound waits for a paging model whose fault service fits in the slice.
  const double per = cfg_.dma.avg_transfer_bytes();
  if (!(a.fault_fxu + a.noise_fxu + 2.0 < kWrap &&
        a.fault_icu + a.noise_icu + 2.0 < kWrap &&
        (a.page_bytes + a.read_bytes) / per + 1.0 < kWrap &&
        (a.page_bytes + a.write_bytes) / per + 1.0 < kWrap)) {
    throw std::invalid_argument(
        "one slice of this work order moves a system-mode or DMA counter "
        "by a wrap or more");
  }
}

Node::SliceAdds Node::slice_adds(double seconds, bool busy,
                                 const ActivityProfile& profile) const {
  SliceAdds a;
  if (profile.page_faults_per_s > 0.0) {
    const double faults = profile.page_faults_per_s * seconds;
    a.fault_fxu = faults * cfg_.fault_fxu_inst;
    a.fault_icu = faults * cfg_.fault_icu_inst;
    a.fault_cycles = faults * cfg_.fault_cycles;
    a.page_bytes = faults * cfg_.page_bytes;
  }
  if (busy) {
    a.noise_fxu = cfg_.os_noise_fxu_per_s * seconds;
    a.noise_icu = cfg_.os_noise_icu_per_s * seconds;
  } else {
    a.noise_fxu = 0.05 * cfg_.os_noise_fxu_per_s * seconds;
    a.noise_icu = 0.05 * cfg_.os_noise_icu_per_s * seconds;
  }
  a.read_bytes =
      (profile.comm_send_bytes_per_s + profile.disk_write_bytes_per_s) *
      seconds;
  a.write_bytes =
      (profile.comm_recv_bytes_per_s + profile.disk_read_bytes_per_s) *
      seconds;
  return a;
}

// Exact integer replay of `slices` full slices of carry_slice.  Each
// residual is the chain x <- (x + a) mod 1 and each DMA pending-byte
// counter the chain x <- (x + page + traffic) mod bytes-per-transfer;
// CarryGrid (src/cluster/carry_chain.hpp) gives the grid/binade argument
// that makes the integer replay exact and each condition under which a
// chain is off its grid.  The plan built the grids; the guard here only
// checks that the carried values are on them.
//
// Falls back (returns false, changing nothing) when the plan is not
// replayable (a grid is off, or neither fxu chain is steady, since the
// per-slice fxu split then depends on where each chain carries), when a
// carried value is off its grid, or when the run is longer than
// CarryGrid::kMaxSlices.
bool Node::replay_full_slices(std::uint64_t slices, const IntervalPlan& plan,
                              power2::EventCounts& sys,
                              std::uint64_t& io_read,
                              std::uint64_t& io_write) {
  if (!plan.replayable || slices > CarryGrid::kMaxSlices) return false;
  std::uint64_t fault_fxu = 0;
  std::uint64_t fault_icu = 0;
  std::uint64_t fault_cycles = 0;
  std::uint64_t noise_fxu = 0;
  std::uint64_t noise_icu = 0;
  if (!(plan.fault_fxu.enter(resid_fault_fxu_, fault_fxu) &&
        plan.fault_icu.enter(resid_fault_icu_, fault_icu) &&
        plan.fault_cycles.enter(resid_fault_cycles_, fault_cycles) &&
        plan.noise_fxu.enter(resid_noise_fxu_, noise_fxu) &&
        plan.noise_icu.enter(resid_noise_icu_, noise_icu))) {
    return false;
  }
  const SliceAdds& a = plan.full;
  const std::optional<DmaEngine::Harvest> io = dma_.replay(
      slices, plan.dma, a.page_bytes, a.read_bytes, a.write_bytes);
  if (!io) return false;
  io_read += io->read_transfers;
  io_write += io->write_transfers;
  // The fxu split halves each slice's count f on its own.  With one of the
  // two chains steady, f is q or q + 1 with q the two base counts summed,
  // and f / 2 gains 1 over q / 2 on each carry exactly when q is odd.
  const std::uint64_t q = plan.fault_fxu.base() + plan.noise_fxu.base();
  const std::uint64_t fxu = plan.fault_fxu.take(fault_fxu, slices) +
                            plan.noise_fxu.take(noise_fxu, slices);
  const std::uint64_t fxu0 = slices * (q / 2) + (q & 1) * (fxu - slices * q);
  sys.fxu0_inst += fxu0;
  sys.fxu1_inst += fxu - fxu0;
  sys.icu_type1 += plan.fault_icu.take(fault_icu, slices) +
                   plan.noise_icu.take(noise_icu, slices);
  sys.cycles += plan.fault_cycles.take(fault_cycles, slices);
  resid_fault_fxu_ = plan.fault_fxu.value(fault_fxu);
  resid_fault_icu_ = plan.fault_icu.value(fault_icu);
  resid_fault_cycles_ = plan.fault_cycles.value(fault_cycles);
  resid_noise_fxu_ = plan.noise_fxu.value(noise_fxu);
  resid_noise_icu_ = plan.noise_icu.value(noise_icu);
  return true;
}

void Node::check_profile(const power2::EventSignature* sig,
                         const ActivityProfile& profile) const {
#if P2SIM_CHECKS_ENABLED
  const auto fraction_ok = [](double f) {
    return std::isfinite(f) && f >= 0.0 && f <= 1.0;
  };
  const auto rate_ok = [](double r) { return std::isfinite(r) && r >= 0.0; };
  P2SIM_CHECK(fraction_ok(profile.compute_fraction),
              "compute_fraction must be finite and in [0,1]");
  P2SIM_CHECK(fraction_ok(profile.comm_wait_fraction),
              "comm_wait_fraction must be finite and in [0,1]");
  P2SIM_CHECK(fraction_ok(profile.io_wait_fraction),
              "io_wait_fraction must be finite and in [0,1]");
  P2SIM_CHECK(rate_ok(profile.comm_send_bytes_per_s) &&
                  rate_ok(profile.comm_recv_bytes_per_s) &&
                  rate_ok(profile.disk_read_bytes_per_s) &&
                  rate_ok(profile.disk_write_bytes_per_s) &&
                  rate_ok(profile.page_faults_per_s),
              "traffic and fault rates must be finite and >= 0");
  // Wait time belongs to a job; without a signature the slice is idle and
  // the wait-state counters stay silent (see the advance() contract).
  P2SIM_CHECK(sig != nullptr || (profile.comm_wait_fraction == 0.0 &&
                                 profile.io_wait_fraction == 0.0),
              "wait fractions require a running job (sig != nullptr)");
#else
  (void)sig;
  (void)profile;
#endif
}

void Node::advance_idle(double seconds) {
  ActivityProfile idle;
  idle.compute_fraction = 0.0;
  advance(seconds, nullptr, idle);
}

void Node::apply_slice(double seconds, const power2::EventSignature* sig,
                       const ActivityProfile& profile) {
  // --- user-mode work ---
  if (sig != nullptr && profile.compute_fraction > 0.0) {
    const double cycles =
        seconds * cfg_.clock_hz * std::min(profile.compute_fraction, 1.0);
    // The multipass-sampling contract: no slice may advance any counter by
    // a full 2^32, or the wrap correction in ExtendedCounters under-counts
    // (the paper's 15-minute-vs-64-second sampling rule).
    P2SIM_INVARIANT(cycles < 4294967296.0,
                    "slice cycles must stay below one counter wrap");
    power2::EventCounts ev = sig->scale(cycles);
    // Wait-state signals are slice-level, not per-compute-cycle: they count
    // the wall time the processor spent blocked.
    ev.comm_wait_cycles = static_cast<std::uint64_t>(
        seconds * cfg_.clock_hz * std::min(profile.comm_wait_fraction, 1.0));
    ev.io_wait_cycles = static_cast<std::uint64_t>(
        seconds * cfg_.clock_hz * std::min(profile.io_wait_fraction, 1.0));
    monitor_.accumulate(ev, hpm::PrivilegeMode::kUser);
    quad_total_ += ev.quad_inst;
  }

  // --- system-mode work: page-fault handling + background OS noise ---
  power2::EventCounts sys;
  if (profile.page_faults_per_s > 0.0) {
    const double faults = profile.page_faults_per_s * seconds;
    resid_fault_fxu_ += faults * cfg_.fault_fxu_inst;
    resid_fault_icu_ += faults * cfg_.fault_icu_inst;
    resid_fault_cycles_ += faults * cfg_.fault_cycles;
    // Paging I/O moves pages over DMA: evictions out, refills in.
    const double page_bytes = faults * cfg_.page_bytes;
    dma_.transfer(/*read_bytes=*/page_bytes, /*write_bytes=*/page_bytes);
  }
  const bool busy = sig != nullptr;
  if (busy) {
    resid_noise_fxu_ += cfg_.os_noise_fxu_per_s * seconds;
    resid_noise_icu_ += cfg_.os_noise_icu_per_s * seconds;
  } else {
    // Idle nodes still run daemons at a trickle.
    resid_noise_fxu_ += 0.05 * cfg_.os_noise_fxu_per_s * seconds;
    resid_noise_icu_ += 0.05 * cfg_.os_noise_icu_per_s * seconds;
  }
  const std::uint64_t f_fxu = take_whole(resid_fault_fxu_) +
                              take_whole(resid_noise_fxu_);
  const std::uint64_t f_icu = take_whole(resid_fault_icu_) +
                              take_whole(resid_noise_icu_);
  sys.fxu0_inst = f_fxu / 2;
  sys.fxu1_inst = f_fxu - f_fxu / 2;
  sys.icu_type1 = f_icu;
  sys.cycles = take_whole(resid_fault_cycles_);
  monitor_.accumulate(sys, hpm::PrivilegeMode::kSystem);

  // --- DMA traffic: messages and filesystem ---
  // "Reads" move data from memory to a device (sends, file writes);
  // "writes" move data into memory (receives, file reads).
  dma_.transfer(
      (profile.comm_send_bytes_per_s + profile.disk_write_bytes_per_s) *
          seconds,
      (profile.comm_recv_bytes_per_s + profile.disk_read_bytes_per_s) *
          seconds);
  const DmaEngine::Harvest h = dma_.harvest();
  if (h.read_transfers || h.write_transfers) {
    power2::EventCounts io;
    io.dma_read = h.read_transfers;
    io.dma_write = h.write_transfers;
    monitor_.accumulate(io, hpm::PrivilegeMode::kUser);
  }
}

}  // namespace p2sim::cluster
