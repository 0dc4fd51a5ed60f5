// Campaign progress / health reporter: the live view Bergeron never had.
//
// A HealthReporter is a CampaignObserver that aggregates every interval's
// HealthSample, optionally streams a one-line health record every `stride`
// intervals (day, coverage, live Mflops, faults so far), and renders an
// ASCII dashboard of the whole campaign on demand.  Its cumulative
// snapshot uses exactly the same node-sample arithmetic as the post-hoc
// measurement-loss report, so the two must agree to the last sample — the
// dashboard smoke test pins that.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/telemetry/health.hpp"

namespace p2sim::telemetry {

struct ReporterConfig {
  /// Emit one health line per this many intervals (96 = daily); <= 0
  /// disables streaming.  Aggregation happens every interval regardless.
  std::int64_t stride = 96;
  /// Stream for health lines; nullptr collects silently.
  std::ostream* out = nullptr;
};

/// Running totals over the campaign so far.  The node-sample fields are
/// summed over *recorded* intervals only, mirroring analysis::loss.
struct HealthSnapshot {
  std::int64_t intervals_seen = 0;
  std::int64_t intervals_recorded = 0;
  std::int64_t node_samples_expected = 0;
  std::int64_t node_samples_clean = 0;
  std::int64_t node_samples_reprimed = 0;
  std::int64_t jobs_dispatched = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_requeued = 0;
  std::int64_t faults_injected = 0;
  double mflops_sum = 0.0;

  /// Clean node-samples over expected, as analysis::loss computes it.
  double coverage() const {
    return node_samples_expected > 0
               ? static_cast<double>(node_samples_clean) /
                     static_cast<double>(node_samples_expected)
               : 1.0;
  }
  double mean_mflops() const {
    return intervals_recorded > 0
               ? mflops_sum / static_cast<double>(intervals_recorded)
               : 0.0;
  }
};

class HealthReporter : public CampaignObserver {
 public:
  explicit HealthReporter(const ReporterConfig& cfg = {});

  void on_interval(const HealthSample& sample) override;

  const HealthSnapshot& snapshot() const { return snap_; }

  /// Mean system Gflops per day (0 for days with no recorded interval).
  std::vector<double> daily_gflops() const;
  /// Node-sample coverage per day (1.0 for untouched days).
  std::vector<double> daily_coverage() const;

  /// One streaming health line for a sample (also what `out` receives).
  static std::string format_line(const HealthSample& sample);

  /// Full ASCII dashboard: cumulative health block plus daily Gflops and
  /// coverage charts (util::ascii_chart).
  std::string render_dashboard() const;

 private:
  struct DayAccum {
    std::int64_t intervals_seen = 0;
    std::int64_t intervals_recorded = 0;
    std::int64_t node_samples_expected = 0;
    std::int64_t node_samples_clean = 0;
    double mflops_sum = 0.0;
  };

  ReporterConfig cfg_;
  HealthSnapshot snap_;
  /// The job and fault counts of the campaigns before the current one
  /// (a sample's counts restart with its campaign).
  HealthSnapshot base_;
  std::int64_t last_interval_ = -1;
  std::vector<DayAccum> days_;
};

}  // namespace p2sim::telemetry
