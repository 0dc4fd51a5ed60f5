// The measurement-loss report: how much of the nine-month campaign was
// actually measured, and where the rest went.
//
// Bergeron analyzed 30 of 270 days; the rest were lost to low activity and
// to the collection stack itself (crashed nodes, missed cron samples, dead
// prologue/epilogue scripts).  This module audits a fault-injected campaign
// from the *consumer* side: it reconstructs every loss visible in the
// recorded data and reconciles the totals against the injector's ground
// truth FaultLog.  A campaign whose report does not reconcile has either a
// leak in the degradation handling or a fault the pipeline silently
// absorbed into its rates — both bugs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/telemetry/reporter.hpp"
#include "src/workload/driver.hpp"

namespace p2sim::analysis {

struct MeasurementLoss {
  // --- daemon channel (15-minute interval records) ---
  std::int64_t intervals_expected = 0;
  std::int64_t intervals_recorded = 0;
  std::int64_t intervals_missing() const {
    return intervals_expected - intervals_recorded;
  }
  /// Node-samples over *recorded* intervals only.
  std::int64_t node_samples_expected = 0;
  /// Clean per-node deltas that entered the rates.
  std::int64_t node_samples_clean = 0;
  /// Baselines re-established after a counter reset (delta dropped).
  std::int64_t node_samples_reprimed = 0;

  // --- job channel (PBS accounting records) ---
  std::int64_t jobs_recorded = 0;
  std::int64_t jobs_complete = 0;
  std::int64_t jobs_incomplete = 0;
  /// Runs that never produced a record (still running/queued at the end).
  std::int64_t jobs_open_at_end = 0;

  // --- day channel (the paper's unit of analysis) ---
  std::int64_t days_total = 0;
  std::int64_t days_full_coverage = 0;
  /// Days meeting the coverage threshold below.
  std::int64_t days_usable = 0;
  double min_coverage = 0.0;
  double mean_coverage = 0.0;

  // --- ground truth and reconciliation ---
  fault::FaultLog injected;
  /// intervals_missing() == injected.intervals_missed.
  bool intervals_reconciled = false;
  /// expected - clean == unreachable + lost-in-flight + reprimed.
  bool node_samples_reconciled = false;
  /// incomplete records == lost prologues + kills + lost epilogues, less
  /// the overlaps (a killed prologue-less run is one record, not two) and
  /// the prologue-less runs still open at campaign end.
  bool jobs_reconciled = false;

  bool reconciled() const {
    return intervals_reconciled && node_samples_reconciled &&
           jobs_reconciled;
  }
};

/// Builds the report from a campaign result.  `min_coverage` is the
/// day-usability threshold (the same value the tables should be given).
MeasurementLoss measure_loss(const workload::CampaignResult& result,
                             double min_coverage = 0.9);

/// Human-readable rendering, one channel per block.
std::string format_measurement_loss(const MeasurementLoss& loss);

/// Reconciles the live view of a campaign (a HealthReporter's running
/// totals) against its post-hoc report.  Returns the names of the fields
/// that disagree — empty when the two agree to the last node-sample — and
/// "loss.reconciled" when the report itself does not reconcile against
/// the injector's log.
std::vector<std::string> reconcile_live(const telemetry::HealthSnapshot& live,
                                        const MeasurementLoss& loss);

}  // namespace p2sim::analysis
