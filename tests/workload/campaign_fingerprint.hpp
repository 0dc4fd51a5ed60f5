// Shared byte-identity oracle for driver tests: the concatenation of every
// byte-stable artifact a campaign produces — the v2 interval and job record
// streams, the measurement-loss report, the scalar result fields, and the
// sim-time telemetry exports captured under a session.  Two campaigns are
// "the same campaign" exactly when these fingerprints are equal; the
// parallel-determinism suite uses it across thread counts and the
// crash-recovery suite uses it across kill/resume cycles.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/analysis/loss.hpp"
#include "src/analysis/record_io.hpp"
#include "src/fault/fault.hpp"
#include "src/telemetry/session.hpp"
#include "src/workload/driver.hpp"

namespace p2sim::workload {

inline DriverConfig small_config(std::int64_t days = 4, int nodes = 16) {
  DriverConfig cfg;
  cfg.num_nodes = nodes;
  cfg.days = days;
  cfg.jobs_per_day = 42.0 * nodes / 144.0;
  cfg.jobgen.node_choices = {1, 2, 4, 8, 16};
  cfg.jobgen.node_weights = {4, 3, 6, 14, 22};
  cfg.sched.drain_threshold_nodes = 8;
  return cfg;
}

inline DriverConfig faulted_config() {
  DriverConfig cfg = small_config(6, 16);
  cfg.faults = fault::FaultConfig::reference();
  return cfg;
}

/// Renders an already-run campaign (and the session its telemetry landed
/// in) as the canonical fingerprint string.
inline std::string fingerprint_result(const CampaignResult& result,
                                      const telemetry::Session* session) {
  std::ostringstream out;
  out.precision(17);
  analysis::save_intervals(out, result.intervals);
  analysis::save_jobs(out, result.jobs);
  out << analysis::format_measurement_loss(
      analysis::measure_loss(result, 0.9));
  out << "busy=" << result.total_busy_node_seconds
      << " open=" << result.jobs_open_at_end
      << " sans_prologue=" << result.jobs_open_sans_prologue
      << " faults=" << result.faults.total_faults() << "\n";
  if (session != nullptr) {
    out << session->registry.jsonl();
    out << session->tracer.chrome_trace_json(/*include_wall=*/false);
  }
  return out.str();
}

/// Runs the campaign under a fresh telemetry session and fingerprints it.
inline std::string campaign_fingerprint(DriverConfig cfg, int threads,
                                        bool include_telemetry = true) {
  cfg.threads = threads;
  telemetry::Session session;
  workload::CampaignResult result;
  {
    telemetry::ScopedSession scoped(session);
    result = run_campaign(cfg);
  }
  // The run's one batch measured every kernel the schedule names before
  // the first pass, resumed runs included: no launch measures on demand.
  EXPECT_EQ(result.signature_stats.measured_on_demand, 0u);
  return fingerprint_result(result, include_telemetry ? &session : nullptr);
}

/// Points at the first differing byte so a regression names the artifact
/// (interval stream, job stream, loss report, jsonl, trace) that diverged.
inline void expect_identical(const std::string& a, const std::string& b,
                             const char* label) {
  if (a == b) {
    SUCCEED();
    return;
  }
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const std::size_t lo = i > 40 ? i - 40 : 0;
  FAIL() << label << ": fingerprints diverge at byte " << i << "\n  a: ..."
         << a.substr(lo, 80) << "\n  b: ..." << b.substr(lo, 80);
}

}  // namespace p2sim::workload
