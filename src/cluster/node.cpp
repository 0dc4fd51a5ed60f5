#include "src/cluster/node.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/check/check.hpp"
#include "src/cluster/carry_chain.hpp"
#include "src/power2/field_table.hpp"

namespace p2sim::cluster {
namespace {

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
}

void Node::reboot() { up_ = true; }

void Node::restore_ckpt(util::CkptReader& r) {
  monitor_.restore_ckpt(r);
  ext_.restore_ckpt(r);
  dma_.restore_ckpt(r);
  quad_total_ = r.read_u64("node.quad_total");
  busy_seconds_ = r.read_f64("node.busy_seconds");
  up_ = r.read_bool("node.up");
  const auto residual = [&r](const char* what) {
    const double v = r.read_f64(what);
    if (!(std::isfinite(v) && v >= 0.0)) {
      throw util::CkptError(std::string(what) +
                            ": negative or non-finite residual");
    }
    return v;
  };
  resid_fault_fxu_ = residual("node.resid_fault_fxu");
  resid_fault_icu_ = residual("node.resid_fault_icu");
  resid_fault_cycles_ = residual("node.resid_fault_cycles");
  resid_noise_fxu_ = residual("node.resid_noise_fxu");
  resid_noise_icu_ = residual("node.resid_noise_icu");
}

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
// counter by < 2^32 (the ctor's wrap bound on cycles; physical rates are
// <= a few per cycle), so each per-slice wrap_delta equals the true
// increment and the summed 64-bit totals handed to ExtendedCounters::
// accrue are exactly what slice-by-slice sampling would have accumulated.
//
// Only the carried state depends on slice boundaries: the five residual
// accumulators, the integer fxu split, and the DMA pending bytes and
// lifetime totals.  The first full slice and the remainder run the
// reference's floating-point step (carry_slice).  The full slices between
// them are replayed exactly in integers (replay_full_slices): each chain
// there is the recurrence x <- (x + a) mod m, with m = 1 for a residual
// and m = bytes per transfer for a pending-byte counter.  When a guard of
// that replay fails, those slices run the floating-point step too.
void Node::advance_batched(double seconds, const power2::EventSignature* sig,
                           const ActivityProfile& profile) {
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
  const bool rem_is_full = rem == max;

  hpm::CounterAdds user_adds{};
  hpm::CounterAdds sys_adds{};

  // --- user-mode work, closed form ---
  if (sig != nullptr && profile.compute_fraction > 0.0) {
    const auto slice_user = [&](double slice) {
      const double cycles =
          slice * cfg_.clock_hz * std::min(profile.compute_fraction, 1.0);
      P2SIM_INVARIANT(cycles < 4294967296.0,
                      "slice cycles must stay below one counter wrap");
      power2::EventCounts ev = sig->scale(cycles);
      ev.comm_wait_cycles = static_cast<std::uint64_t>(
          slice * cfg_.clock_hz * std::min(profile.comm_wait_fraction, 1.0));
      ev.io_wait_cycles = static_cast<std::uint64_t>(
          slice * cfg_.clock_hz * std::min(profile.io_wait_fraction, 1.0));
      return ev;
    };
    power2::EventCounts user_total;
    const std::uint64_t n_same = n_full + (rem_is_full ? 1 : 0);
    if (n_same > 0) {
      const power2::EventCounts full = slice_user(max);
      user_total.cycles = full.cycles * n_same;
      for (const power2::ScaledField& f : power2::kScaledFields)
        user_total.*(f.count) = (full.*(f.count)) * n_same;
      user_total.comm_wait_cycles = full.comm_wait_cycles * n_same;
      user_total.io_wait_cycles = full.io_wait_cycles * n_same;
    }
    if (!rem_is_full) user_total += slice_user(rem);
    monitor_.map_events(user_total, user_adds);
    quad_total_ += user_total.quad_inst;
  }

  // --- system-mode work + DMA: replay only the carried state per slice ---
  power2::EventCounts sys_total;
  std::uint64_t io_read = 0;
  std::uint64_t io_write = 0;
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
  };
  const bool busy = sig != nullptr;
  const SliceAdds full_adds =
      n_full > 0 || rem_is_full ? slice_adds(max, busy, profile) : SliceAdds{};
  if (n_full > 0) {
    carry_slice(full_adds);
    std::uint64_t done = 1;
    if (n_full > 1 &&
        replay_full_slices(n_full - 1, full_adds, sys_total, io_read,
                           io_write)) {
      done = n_full;
    }
    for (; done < n_full; ++done) carry_slice(full_adds);
  }
  carry_slice(rem_is_full ? full_adds : slice_adds(rem, busy, profile));

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

// Exact integer replay of `slices` further full slices of carry_slice.
// Each residual is the chain x <- (x + a) mod 1 and each DMA pending-byte
// counter the chain x <- (x + page + traffic) mod bytes-per-transfer;
// CarryChain (src/cluster/carry_chain.hpp) gives the grid/binade argument
// that makes the integer replay exact and each condition under which a
// chain is off its grid.  The guard is checked once, on the residuals the
// first full slice left.
//
// Falls back (returns false, changing nothing) when any of the seven
// chains is off its grid, when the run is longer than
// CarryChain::kMaxSlices, or when neither fxu chain is steady, since the
// per-slice fxu split then depends on where each chain carries.
bool Node::replay_full_slices(std::uint64_t slices, const SliceAdds& adds,
                              power2::EventCounts& sys,
                              std::uint64_t& io_read,
                              std::uint64_t& io_write) {
  if (slices > CarryChain::kMaxSlices) return false;
  CarryChain fault_fxu(resid_fault_fxu_, adds.fault_fxu, 0.0, 1.0);
  CarryChain fault_icu(resid_fault_icu_, adds.fault_icu, 0.0, 1.0);
  CarryChain fault_cycles(resid_fault_cycles_, adds.fault_cycles, 0.0, 1.0);
  CarryChain noise_fxu(resid_noise_fxu_, adds.noise_fxu, 0.0, 1.0);
  CarryChain noise_icu(resid_noise_icu_, adds.noise_icu, 0.0, 1.0);
  if (!(fault_fxu.exact() && fault_icu.exact() && fault_cycles.exact() &&
        noise_fxu.exact() && noise_icu.exact()) ||
      !(fault_fxu.steady() || noise_fxu.steady())) {
    return false;
  }
  const std::optional<DmaEngine::Harvest> io =
      dma_.replay(slices, adds.page_bytes, adds.read_bytes, adds.write_bytes);
  if (!io) return false;
  io_read += io->read_transfers;
  io_write += io->write_transfers;
  // The fxu split halves each slice's count f on its own.  With one of the
  // two chains steady, f is q or q + 1 with q the two base counts summed,
  // and f / 2 gains 1 over q / 2 on each carry exactly when q is odd.
  const std::uint64_t q = fault_fxu.base() + noise_fxu.base();
  const std::uint64_t fxu = fault_fxu.take(slices) + noise_fxu.take(slices);
  const std::uint64_t fxu0 = slices * (q / 2) + (q & 1) * (fxu - slices * q);
  sys.fxu0_inst += fxu0;
  sys.fxu1_inst += fxu - fxu0;
  sys.icu_type1 += fault_icu.take(slices) + noise_icu.take(slices);
  sys.cycles += fault_cycles.take(slices);
  resid_fault_fxu_ = fault_fxu.residual();
  resid_fault_icu_ = fault_icu.residual();
  resid_fault_cycles_ = fault_cycles.residual();
  resid_noise_fxu_ = noise_fxu.residual();
  resid_noise_icu_ = noise_icu.residual();
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
