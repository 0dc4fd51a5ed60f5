// Counter snapshots and wrap correction — the core of Maki's RS2HPM library.
//
// The physical counters are 32-bit and wrap silently; at 66.7 MHz the cycle
// counter wraps every ~64 seconds.  The library therefore samples each bank
// on a period comfortably below the fastest wrap ("multipass sampling") and
// extends the values to 64 bits by accumulating wrap-corrected deltas.
// A single missed period makes totals under-count by a multiple of 2^32 —
// the classic failure mode this module's tests pin down.
#pragma once

#include <array>
#include <cstdint>

#include "src/check/annotate.hpp"
#include "src/hpm/monitor.hpp"

namespace p2sim::rs2hpm {

/// 64-bit totals for the 22 counters in one privilege mode.
using CounterTotals = std::array<std::uint64_t, hpm::kNumCounters>;

/// 64-bit totals for both modes.
struct ModeTotals {
  CounterTotals user{};
  CounterTotals system{};

  P2SIM_PAR_SAFE ModeTotals& operator+=(const ModeTotals& o);
  friend ModeTotals operator+(ModeTotals a, const ModeTotals& b) {
    a += b;
    return a;
  }
  /// Per-counter difference (this - earlier); requires monotone inputs.
  /// Pure value arithmetic: safe inside the parallel region on lane-local
  /// snapshots.
  P2SIM_PAR_SAFE ModeTotals since(const ModeTotals& earlier) const;

  /// True when every counter in both modes is >= its value in `earlier` —
  /// the monotonicity precondition of since().  A false return means the
  /// source counters were reset between the snapshots (node reboot): the
  /// consumer must re-prime its baseline, never subtract.  Its one
  /// consumer is add_delta_if_monotone.
  P2SIM_PAR_SAFE bool covers(const ModeTotals& earlier) const;

  std::uint64_t user_at(hpm::HpmCounter c) const {
    return user[hpm::index_of(c)];
  }
  std::uint64_t system_at(hpm::HpmCounter c) const {
    return system[hpm::index_of(c)];
  }
  /// user + system for a counter.
  std::uint64_t total_at(hpm::HpmCounter c) const {
    return user_at(c) + system_at(c);
  }

  bool operator==(const ModeTotals&) const = default;

  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "mode_totals.user", self.user);
    util::ckpt_field(io, "mode_totals.system", self.system);
  }
};

/// One node's counter baseline: its 64-bit extended totals and its
/// cumulative quad-instruction diagnostic, read at the same instant.  The
/// daemon probe keeps one per node between samples; the job monitor keeps
/// one per held node between prologue and epilogue.
struct NodeSample {
  ModeTotals totals;
  std::uint64_t quad = 0;

  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "node_sample.totals", self.totals);
    util::ckpt_field(io, "node_sample.quad", self.quad);
  }
};

/// The reboot guard, shared by the daemon probe and the job epilogue.
/// When `totals`/`quad` (a node's values now) are monotone over `base` —
/// every counter in both modes and the quad diagnostic — adds their
/// per-counter deltas into `delta` and `quad_surplus` and returns true.
/// Otherwise the counters were reset between the two reads (node reboot):
/// it adds nothing and returns false, and the caller drops the node's
/// contribution rather than wrap the uint64 deltas into astronomical
/// garbage that no downstream check could attribute.  The guard is
/// unconditional in every build.  Pure value arithmetic: safe inside the
/// parallel region on lane-local baselines.
P2SIM_PAR_SAFE bool add_delta_if_monotone(const NodeSample& base,
                                          const ModeTotals& totals,
                                          std::uint64_t quad,
                                          ModeTotals& delta,
                                          std::uint64_t& quad_surplus);

/// Wrap-corrected 32-bit delta: (now - prev) mod 2^32.  Correct as long as
/// fewer than 2^32 events occurred between the samples.
P2SIM_PAR_SAFE constexpr std::uint64_t wrap_delta(std::uint32_t prev,
                                                  std::uint32_t now) {
  return static_cast<std::uint32_t>(now - prev);
}

/// Maintains 64-bit extended totals over a wrapping PerformanceMonitor by
/// periodic sampling.  sample() must be called at least once per counter
/// wrap period; the SP2 deployment sampled far more often than the 64 s
/// cycle-counter wrap.
class ExtendedCounters {
 public:
  /// Captures the monitor's current raw values as the baseline.
  P2SIM_PAR_SAFE void attach(const hpm::PerformanceMonitor& mon);

  /// Folds the events since the previous sample into the 64-bit totals.
  P2SIM_PAR_SAFE void sample(const hpm::PerformanceMonitor& mon);

  /// Batched accrual — the closed-form fast path.  The caller has just
  /// folded exactly `user_adds`/`system_adds` into the monitor's wrapping
  /// banks (hpm::PerformanceMonitor::accumulate_adds), possibly spanning
  /// many wraps at once, and hands over the 64-bit truth.  Equivalent to
  /// interleaving sub-wrap accumulate()/sample() pairs: the totals gain the
  /// exact amounts and the sampling baseline re-anchors at the registers'
  /// current raw values.  Requires a prior attach().
  P2SIM_PAR_SAFE void accrue(const hpm::PerformanceMonitor& mon,
                             const hpm::CounterAdds& user_adds,
                             const hpm::CounterAdds& system_adds);

  P2SIM_PAR_SAFE const ModeTotals& totals() const { return totals_; }

  /// Checkpoint fields: sampling baselines, anchors and 64-bit totals all
  /// round-trip so wrap-consistency holds across a resume.
  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "ext.last_user", self.last_user_);
    util::ckpt_field(io, "ext.last_system", self.last_system_);
    util::ckpt_field(io, "ext.base_user", self.base_user_);
    util::ckpt_field(io, "ext.base_system", self.base_system_);
    util::ckpt_field(io, "ext.totals", self.totals_);
    util::ckpt_field(io, "ext.attached", self.attached_);
  }

  void reset_totals() {
    totals_ = ModeTotals{};
    // Re-anchor the wrap-consistency baseline: totals restart from zero at
    // the current raw counter values.
    base_user_ = last_user_;
    base_system_ = last_system_;
  }

 private:
  /// Debug-build audit: (baseline + extended total) mod 2^32 must equal
  /// each raw 32-bit register — the wrap-consistency identity between
  /// hpm::CounterBank and this extension layer.  Compiled out in Release.
  P2SIM_PAR_SAFE void check_wrap_consistency(
      const hpm::PerformanceMonitor& mon) const;

  std::array<std::uint32_t, hpm::kNumCounters> last_user_{};
  std::array<std::uint32_t, hpm::kNumCounters> last_system_{};
  // Raw values at attach (or last reset_totals): the anchor that makes the
  // 64-bit totals and the wrapping registers mutually checkable.
  std::array<std::uint32_t, hpm::kNumCounters> base_user_{};
  std::array<std::uint32_t, hpm::kNumCounters> base_system_{};
  ModeTotals totals_;
  bool attached_ = false;
};

}  // namespace p2sim::rs2hpm
