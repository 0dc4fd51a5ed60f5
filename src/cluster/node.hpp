// One SP2 node: a POWER2 CPU with its performance monitor, the RS2HPM
// extension layer, and a Micro Channel DMA engine.
//
// At workload (level B) granularity the node advances in wall-time slices:
// user work accrues counter events from a kernel's EventSignature, system
// work (paging, OS overhead) accrues into the system-mode bank, and I/O
// traffic accrues DMA transfers.  Faithfulness detail: events pass through
// the real 32-bit wrapping CounterBank and are recovered by sub-wrap
// multipass sampling, exactly as the Maki tools did — advance() internally
// chunks long slices so no counter can wrap twice between samples.
#pragma once

#include <cstdint>
#include <optional>

#include "src/check/annotate.hpp"
#include "src/cluster/carry_chain.hpp"
#include "src/cluster/dma.hpp"
#include "src/hpm/monitor.hpp"
#include "src/power2/signature.hpp"
#include "src/rs2hpm/snapshot.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::cluster {

/// What a node is doing during a wall-time slice.
struct ActivityProfile {
  /// Fraction of wall time executing user compute (the rest is comm wait,
  /// I/O wait, fault service or idle — none of which retire user events).
  double compute_fraction = 1.0;
  /// Message-passing traffic rates (bytes/s of wall time).
  double comm_send_bytes_per_s = 0.0;
  double comm_recv_bytes_per_s = 0.0;
  /// Filesystem traffic (bytes/s): reads enter memory, writes leave it.
  double disk_read_bytes_per_s = 0.0;
  double disk_write_bytes_per_s = 0.0;
  /// Paging intensity (see PagingModel) and per-fault OS costs.
  double page_faults_per_s = 0.0;
  /// Wait-state shares of wall time (for the kWaitStates selection): time
  /// blocked in message-passing and in disk/fault service respectively.
  double comm_wait_fraction = 0.0;
  double io_wait_fraction = 0.0;
};

struct NodeConfig {
  double clock_hz = util::MachineClock::kHz;
  double memory_mb = 128.0;
  hpm::MonitorConfig monitor{};
  DmaConfig dma{};
  /// System-mode costs per page fault (kept here so the node can convert a
  /// fault rate into counter events without knowing the paging model).
  /// These, page_bytes and the noise rates must be finite and >= 0.
  double fault_fxu_inst = 55000.0;
  double fault_icu_inst = 13000.0;
  double fault_cycles = 130000.0;
  double page_bytes = 4096.0;
  /// Background OS noise while busy (system-mode instructions per second);
  /// one slice's noise must stay below one counter wrap.
  double os_noise_fxu_per_s = 150e3;
  double os_noise_icu_per_s = 40e3;
  /// Longest slice applied between multipass samples; must stay below the
  /// 32-bit cycle-counter wrap (~64 s at 66.7 MHz).
  double max_sample_slice_s = 50.0;
  /// Use the original slice-by-slice accrual loop instead of the
  /// closed-form batched path.  The two are bit-identical by contract
  /// (tests/cluster/accrual_equivalence_test.cpp); the reference loop is
  /// kept as the oracle and for perf comparison, not for correctness.
  bool reference_accrual = false;
};

class Node {
 public:
  explicit Node(int id, const NodeConfig& cfg = {});

  /// Advances `seconds` of wall time running user work described by `sig`
  /// and `profile`.  Pass sig == nullptr for a purely idle/system slice.
  ///
  /// Contract (checked under P2SIM_CHECKS): every ActivityProfile fraction
  /// must be finite and in [0, 1], and every rate finite and >= 0 — a NaN
  /// rate would silently poison the residual accumulators.  Wait-state
  /// fractions require sig != nullptr: without a job there is nothing to
  /// attribute blocked time to, so the slice counts as idle/system time,
  /// no wait-state cycles are recorded, and busy_seconds() does not grow.
  P2SIM_PAR_SAFE void advance(double seconds,
                              const power2::EventSignature* sig,
                              const ActivityProfile& profile);

  /// Idle slice: only daemon-level OS noise accrues.
  P2SIM_PAR_SAFE void advance_idle(double seconds);

  /// Power failure: the node drops out of service instantly.  Monitor
  /// state does not survive — the 32-bit banks, the RS2HPM 64-bit
  /// extension and the quad diagnostic all restart from zero, which is
  /// exactly the non-monotonicity downstream consumers must tolerate.
  /// advance()/advance_idle() are no-ops while the node is down.
  P2SIM_SERIAL_ONLY void crash();
  /// Returns the node to service (counters stay zeroed from the crash).
  P2SIM_SERIAL_ONLY void reboot();
  P2SIM_PAR_SAFE bool is_up() const { return up_; }

  P2SIM_PAR_SAFE int id() const { return id_; }
  const NodeConfig& config() const { return cfg_; }

  /// RS2HPM view: monotone 64-bit extended totals.  Lane-local reads, so
  /// the owning lane may probe them inside the parallel region.
  P2SIM_PAR_SAFE const rs2hpm::ModeTotals& totals() const {
    return ext_.totals();
  }
  /// Diagnostic channel (not a hardware counter): cumulative quad ops.
  P2SIM_PAR_SAFE std::uint64_t quad_total() const { return quad_total_; }
  /// Raw monitor (tests peek at the wrapping banks).
  const hpm::PerformanceMonitor& monitor() const { return monitor_; }
  /// DMA engine state (equivalence tests compare it byte-for-byte).
  const DmaEngine& dma() const { return dma_; }

  double busy_seconds() const { return busy_seconds_; }

  /// Checkpoint fields: the complete per-node dynamic state (wrapping
  /// banks, 64-bit extension, DMA residuals, up/down flag, event
  /// residuals), so a restored node advances bit-identically.  Restoring
  /// throws util::CkptError on a negative or non-finite residual.
  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "node.monitor", self.monitor_);
    util::ckpt_field(io, "node.ext", self.ext_);
    util::ckpt_field(io, "node.dma", self.dma_);
    util::ckpt_field(io, "node.quad_total", self.quad_total_);
    util::ckpt_field(io, "node.busy_seconds", self.busy_seconds_);
    util::ckpt_field(io, "node.up", self.up_);
    util::ckpt_residual(io, "node.resid_fault_fxu", self.resid_fault_fxu_);
    util::ckpt_residual(io, "node.resid_fault_icu", self.resid_fault_icu_);
    util::ckpt_residual(io, "node.resid_fault_cycles",
                        self.resid_fault_cycles_);
    util::ckpt_residual(io, "node.resid_noise_fxu", self.resid_noise_fxu_);
    util::ckpt_residual(io, "node.resid_noise_icu", self.resid_noise_icu_);
    if constexpr (util::kRestoring<Io>) self.plan_.reset();
  }

 private:
  /// Lets the equivalence tests check which arm of the carry replay a
  /// node-interval takes; the fallback is exact, so no output shows it.
  friend struct NodeTestPeer;

  /// What one slice of `advance` adds to each carried quantity: the three
  /// fault residuals and the page bytes (all zero without paging), the
  /// two OS-noise residuals, and the DMA read and write traffic.
  struct SliceAdds {
    double fault_fxu = 0.0;
    double fault_icu = 0.0;
    double fault_cycles = 0.0;
    double page_bytes = 0.0;
    double noise_fxu = 0.0;
    double noise_icu = 0.0;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
  };

  /// Everything advance_batched derives from one work order — the seconds,
  /// the signature (or none) and the activity profile — and the config
  /// alone, so a node running the same order again reuses it.  Derived
  /// data: not checkpointed, never part of the node's observable state.
  struct IntervalPlan {
    // The work order, compared bit for bit (matches()): a plan is never
    // found through the signature's address alone.
    double seconds = 0.0;
    bool has_sig = false;
    power2::EventSignature sig{};
    ActivityProfile profile{};
    /// The reference's slice decomposition: n_same slices of
    /// max_sample_slice_s (the full slices, plus the remainder when it is
    /// a full slice too), then the remainder `rem` unless rem_is_full.
    std::uint64_t n_same = 0;
    bool rem_is_full = false;
    /// The user-mode counts of the whole order, mapped onto the counters,
    /// and its quad diagnostic.
    hpm::CounterAdds user_adds{};
    std::uint64_t quad = 0;
    SliceAdds full;
    SliceAdds rem;
    /// The seven carry chains of a full slice: the five residuals (m = 1)
    /// and the two DMA pending-byte counters.
    CarryGrid fault_fxu, fault_icu, fault_cycles, noise_fxu, noise_icu;
    DmaEngine::ReplayGrids dma;
    /// Every residual grid is exact and one fxu chain is steady, so the
    /// full slices may replay in integers once the residuals are on the
    /// grids.
    bool replayable = false;

    P2SIM_PAR_SAFE bool matches(double seconds,
                                const power2::EventSignature* sig,
                                const ActivityProfile& profile) const;
  };

  /// Builds the plan of a work order from the config alone (the monitor
  /// is read only for its counter wiring).  Throws std::invalid_argument
  /// when one slice of the order would move a system-mode instruction
  /// counter or a DMA counter by a wrap or more (check_slice_bound).
  P2SIM_PAR_SAFE IntervalPlan make_plan(double seconds,
                                        const power2::EventSignature* sig,
                                        const ActivityProfile& profile) const;
  P2SIM_PAR_SAFE SliceAdds slice_adds(double seconds, bool busy,
                                      const ActivityProfile& profile) const;
  /// Throws std::invalid_argument when a slice of `a` could move a
  /// system-mode instruction counter or a DMA counter by a wrap or more.
  P2SIM_PAR_SAFE void check_slice_bound(const SliceAdds& a) const;
  P2SIM_PAR_SAFE bool replay_full_slices(std::uint64_t slices,
                                         const IntervalPlan& plan,
                                         power2::EventCounts& sys,
                                         std::uint64_t& io_read,
                                         std::uint64_t& io_write);

  P2SIM_PAR_SAFE void apply_slice(double seconds,
                                  const power2::EventSignature* sig,
                                  const ActivityProfile& profile);
  P2SIM_PAR_SAFE void advance_reference(double seconds,
                                        const power2::EventSignature* sig,
                                        const ActivityProfile& profile);
  /// Returns how many slices ran the floating-point carry step (0 when
  /// every slice replayed in integers).
  P2SIM_PAR_SAFE std::uint64_t advance_batched(
      double seconds, const power2::EventSignature* sig,
      const ActivityProfile& profile);
  P2SIM_PAR_SAFE void check_profile(const power2::EventSignature* sig,
                                    const ActivityProfile& profile) const;

  int id_;
  NodeConfig cfg_;
  hpm::PerformanceMonitor monitor_;
  rs2hpm::ExtendedCounters ext_;
  DmaEngine dma_;
  std::uint64_t quad_total_ = 0;
  double busy_seconds_ = 0.0;
  bool up_ = true;
  // Residual accumulators so sub-event rates survive chunking.
  double resid_fault_fxu_ = 0.0;
  double resid_fault_icu_ = 0.0;
  double resid_fault_cycles_ = 0.0;
  double resid_noise_fxu_ = 0.0;
  double resid_noise_icu_ = 0.0;
  /// The plan of the last work order advance_batched ran; a crash or a
  /// restore drops it, and the next advance rebuilds it.
  std::optional<IntervalPlan> plan_;
};

}  // namespace p2sim::cluster
