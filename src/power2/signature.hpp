// Event signatures: the bridge between the cycle-approximate kernel engine
// (level A) and the interval-analytic workload engine (level B).
//
// A signature is a kernel's steady-state event production per CPU cycle, as
// measured by actually running the kernel through the core model.  The
// nine-month workload simulation then advances node counters by
// signature-rate x busy-cycles per 15-minute interval — the same
// quantization the real RS2HPM daemon imposed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/power2/core.hpp"
#include "src/power2/event_counts.hpp"
#include "src/power2/kernel_desc.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::power2 {

/// Per-cycle event rates for one kernel on one core configuration.
struct EventSignature {
  double cycles_per_iter = 0.0;

  // One rate per EventCounts field (events per cycle).  The authoritative
  // rate-to-counter mapping is the field table in
  // src/power2/field_table.hpp; scaling and store I/O iterate that table
  // rather than naming these members.
  double fxu0_inst = 0, fxu1_inst = 0;
  double dcache_miss = 0, tlb_miss = 0;
  double fpu0_inst = 0, fpu1_inst = 0;
  double fp_add0 = 0, fp_add1 = 0;
  double fp_mul0 = 0, fp_mul1 = 0;
  double fp_div0 = 0, fp_div1 = 0;
  double fp_fma0 = 0, fp_fma1 = 0;
  double icu_type1 = 0, icu_type2 = 0;
  double icache_reload = 0, dcache_reload = 0, dcache_store = 0;
  double memory_inst = 0, quad_inst = 0;
  double stall_dcache = 0, stall_tlb = 0;

  double flops_per_cycle() const {
    return fp_add0 + fp_add1 + fp_mul0 + fp_mul1 + fp_div0 + fp_div1 +
           fp_fma0 + fp_fma1;
  }
  double instructions_per_cycle() const {
    return fxu0_inst + fxu1_inst + fpu0_inst + fpu1_inst + icu_type1 +
           icu_type2;
  }
  double mflops(double clock_hz = telemetry::kClockHz) const {
    return flops_per_cycle() * clock_hz / 1e6;
  }

  /// Scales the signature to event totals over `cycles` busy cycles.
  /// Each field rounds independently, half away from zero as std::llround
  /// does; the result for a given (signature, cycles) pair is
  /// deterministic and platform-stable.
  P2SIM_PAR_SAFE EventCounts scale(double cycles) const;

  /// Accumulating form: adds the scaled totals for `cycles` busy cycles
  /// into `ev` (table fields only — `ev.cycles` is the caller's business).
  /// `scale` is `scale_into` on a zeroed EventCounts plus the cycle count.
  P2SIM_PAR_SAFE void scale_into(double cycles, EventCounts& ev) const;

  bool operator==(const EventSignature&) const = default;

  /// Checkpoint support (field-table driven, like the store I/O).
  void save_ckpt(util::CkptWriter& w) const;
  void restore_ckpt(util::CkptReader& r);
};

/// Derives a signature by running the kernel on a core.
EventSignature measure_signature(Power2Core& core, const KernelDesc& kernel);

/// One kernel measured without touching the telemetry session: the derived
/// signature plus the raw run and wall duration needed for the deferred
/// telemetry replay (Power2Core::note_kernel_run).
struct QuietMeasurement {
  EventSignature sig;
  RunResult run;
  std::int64_t wall_us = 0;
};

/// Measures a kernel's signature on a fresh worker-private core (a fresh
/// core is exactly the reset state measure_signature establishes) and emits
/// no telemetry — the parallel half of batched signature measurement.  The
/// result is bit-identical to measure_signature on a fresh core, in any
/// thread, in any order.
P2SIM_PAR_SAFE QuietMeasurement measure_quiet(const CoreConfig& core_cfg,
                                              const KernelDesc& kernel);

/// Optional persistence for SignatureCache: a versioned on-disk store keyed
/// by kernel-content hash and guarded by a core-config hash, so repeated
/// campaigns and benches skip the cycle-accurate cold start.  Empty path
/// disables persistence.
struct SignatureStoreConfig {
  std::string path;
  bool read = true;   ///< load the store (if present) at construction
  bool write = true;  ///< persist newly measured signatures on flush()
};

/// Memoizes signatures by (kernel content hash, core config).  The
/// nine-month run touches a few dozen kernel variants thousands of times;
/// each is simulated once — or zero times when the persistent store
/// already has it.
///
/// One ordered map, touched only by the campaign's serial phases: parallel
/// measurement workers call the free function measure_quiet and never see
/// the cache; their results enter it through adopt().  Entries are
/// pointer-stable for the cache's lifetime (std::map nodes do not move),
/// so callers may hold `const EventSignature*` across intervals.
class SignatureCache {
 public:
  explicit SignatureCache(const CoreConfig& core_cfg = {},
                          SignatureStoreConfig store = {});

  /// Returns the signature, measuring it on first use (an on-demand
  /// measurement, counted in Stats::measured_on_demand).
  P2SIM_SERIAL_ONLY const EventSignature& get(const KernelDesc& kernel);

  /// Writes newly measured signatures back to the persistent store.
  /// Returns false when a configured write fails; true otherwise
  /// (including when persistence is disabled or nothing is dirty).
  P2SIM_SERIAL_ONLY bool flush();

  /// The core configuration measurements run under; workers pass it to
  /// measure_quiet so batch and on-demand measurement are interchangeable.
  const CoreConfig& core_config() const { return core_cfg_; }

  /// Batched measurement, step 1: the sublist of `kernels` that still
  /// needs measuring — unknown to the cache, deduplicated by content hash,
  /// in first-appearance order.  The plan points at the caller's kernels,
  /// which must outlive it.  The caller measures the plan's entries with
  /// measure_quiet (typically in parallel) and hands each result to
  /// adopt().
  P2SIM_SERIAL_ONLY std::vector<const KernelDesc*> plan_batch(
      const std::vector<const KernelDesc*>& kernels) const;

  /// Batched measurement, step 2: adopts `m` as the signature of `kernel`
  /// and replays its deferred kernel-run telemetry.  Adopting in the order
  /// the on-demand path would have measured keeps exports byte-identical.
  P2SIM_SERIAL_ONLY const EventSignature& adopt(const KernelDesc& kernel,
                                                const QuietMeasurement& m);

  std::size_t size() const { return by_hash_.size(); }

  /// Observability for tests, benches and campaign results.
  struct Stats {
    std::uint64_t hits = 0;      ///< get() calls served from the map
    std::uint64_t measured = 0;  ///< measurements adopted or run by get()
    /// The subset of `measured` that get() ran itself because nobody had
    /// measured the kernel ahead of its first use.
    std::uint64_t measured_on_demand = 0;
    std::uint64_t store_loaded = 0;         ///< entries adopted from disk
    std::uint64_t store_corrupt_lines = 0;  ///< checksum/parse rejects
    bool store_rejected = false;  ///< whole store dropped (core-hash mismatch)
  };
  const Stats& stats() const { return stats_; }

  /// Checkpoint support: the measured/loaded signature set and the dirty
  /// flag round-trip.  The restored cache then serves mid-campaign lookups
  /// exactly as the original process would have (re-measurements are
  /// deterministic, so a kernel first seen after the checkpoint
  /// re-measures identically).  The entries are append-only, so they
  /// travel in the checkpoint journal in insertion order: save_journal
  /// writes the entries from the `from`-th on, replay_journal appends one
  /// such section (a section from entry 0 replaces the whole set, store
  /// loads included); save_ckpt/restore_ckpt carry the rest.
  P2SIM_SERIAL_ONLY void save_ckpt(util::CkptWriter& w) const;
  P2SIM_SERIAL_ONLY void restore_ckpt(util::CkptReader& r);
  P2SIM_SERIAL_ONLY void save_journal(util::CkptWriter& w,
                                      std::size_t from) const;
  P2SIM_SERIAL_ONLY void replay_journal(util::CkptReader& r);

 private:
  CoreConfig core_cfg_;
  std::uint64_t core_hash_ = 0;
  SignatureStoreConfig store_;
  std::map<std::uint64_t, EventSignature> by_hash_;
  /// by_hash_'s keys in insertion order (store load, then adoption): the
  /// order the checkpoint journal carries the entries in.
  std::vector<std::uint64_t> order_;
  bool dirty_ = false;
  Stats stats_{};
};

}  // namespace p2sim::power2
