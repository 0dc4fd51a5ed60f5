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

#include "src/check/annotate.hpp"
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
  /// Background OS noise while busy (system-mode instructions per second).
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

  /// Checkpoint support: the complete per-node dynamic state (wrapping
  /// banks, 64-bit extension, DMA residuals, up/down flag, event
  /// residuals), so a restored node advances bit-identically.
  void save_ckpt(util::CkptWriter& w) const {
    monitor_.save_ckpt(w);
    ext_.save_ckpt(w);
    dma_.save_ckpt(w);
    w.put_u64(quad_total_);
    w.put_f64(busy_seconds_);
    w.put_bool(up_);
    w.put_f64(resid_fault_fxu_);
    w.put_f64(resid_fault_icu_);
    w.put_f64(resid_fault_cycles_);
    w.put_f64(resid_noise_fxu_);
    w.put_f64(resid_noise_icu_);
  }
  /// Throws util::CkptError on a negative or non-finite residual.
  void restore_ckpt(util::CkptReader& r);

 private:
  /// Lets the equivalence tests check which arm of replay_full_slices a
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
  P2SIM_PAR_SAFE SliceAdds slice_adds(double seconds, bool busy,
                                      const ActivityProfile& profile) const;
  P2SIM_PAR_SAFE bool replay_full_slices(std::uint64_t slices,
                                         const SliceAdds& adds,
                                         power2::EventCounts& sys,
                                         std::uint64_t& io_read,
                                         std::uint64_t& io_write);

  P2SIM_PAR_SAFE void apply_slice(double seconds,
                                  const power2::EventSignature* sig,
                                  const ActivityProfile& profile);
  P2SIM_PAR_SAFE void advance_reference(double seconds,
                                        const power2::EventSignature* sig,
                                        const ActivityProfile& profile);
  P2SIM_PAR_SAFE void advance_batched(double seconds,
                                      const power2::EventSignature* sig,
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
};

}  // namespace p2sim::cluster
