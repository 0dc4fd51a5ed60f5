// End-to-end: a short fault-injected campaign must complete, account for
// every injected fault, and leave faults-disabled campaigns untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/analysis/loss.hpp"
#include "src/analysis/record_io.hpp"
#include "src/core/simulation.hpp"

namespace p2sim {
namespace {

core::Sp2Config faulted_config() {
  core::Sp2Config cfg = core::Sp2Config::small(20, 16);
  cfg.faults() = fault::FaultConfig::reference();
  // Push the rates up so every fault class fires in 20 days on 16 nodes.
  cfg.faults().node_crashes_per_node_day = 0.05;
  cfg.faults().interval_miss_prob = 0.02;
  cfg.faults().node_sample_loss_prob = 0.01;
  cfg.faults().prologue_loss_prob = 0.05;
  cfg.faults().epilogue_loss_prob = 0.08;
  return cfg;
}

TEST(FaultCampaign, DisabledFaultsAreBitIdentical) {
  core::Sp2Config plain = core::Sp2Config::small(5, 8);
  core::Sp2Config gated = core::Sp2Config::small(5, 8);
  // Nonzero rates but the master switch off: nothing may change.
  gated.faults() = fault::FaultConfig::reference();
  gated.faults().enabled = false;

  core::Sp2Simulation a(plain);
  core::Sp2Simulation b(gated);
  const workload::CampaignResult& ra = a.campaign();
  const workload::CampaignResult& rb = b.campaign();
  ASSERT_EQ(ra.intervals.size(), rb.intervals.size());
  for (std::size_t i = 0; i < ra.intervals.size(); ++i) {
    EXPECT_EQ(ra.intervals[i].delta.user, rb.intervals[i].delta.user);
    EXPECT_EQ(ra.intervals[i].delta.system, rb.intervals[i].delta.system);
    EXPECT_EQ(ra.intervals[i].nodes_sampled, rb.intervals[i].nodes_sampled);
  }
  EXPECT_EQ(ra.jobs.size(), rb.jobs.size());
  EXPECT_DOUBLE_EQ(ra.total_busy_node_seconds, rb.total_busy_node_seconds);
  EXPECT_EQ(rb.faults.total_faults(), 0);
}

TEST(FaultCampaign, FaultFreeCampaignHasFullCoverage) {
  core::Sp2Simulation sim(core::Sp2Config::small(5, 8));
  const analysis::MeasurementLoss loss = sim.measurement_loss();
  EXPECT_EQ(loss.intervals_missing(), 0);
  EXPECT_EQ(loss.node_samples_expected, loss.node_samples_clean);
  EXPECT_EQ(loss.days_full_coverage, loss.days_total);
  EXPECT_TRUE(loss.reconciled());
  for (const analysis::DayStats& d : sim.days()) {
    EXPECT_DOUBLE_EQ(d.coverage, 1.0);
  }
}

TEST(FaultCampaign, CompletesAndReconcilesUnderFaults) {
  core::Sp2Simulation sim(faulted_config());
  const workload::CampaignResult& result = sim.campaign();

  // The campaign actually lost data...
  EXPECT_GT(result.faults.total_faults(), 0);
  EXPECT_GT(result.faults.node_crashes, 0);
  EXPECT_GT(result.faults.intervals_missed, 0);
  EXPECT_GT(result.faults.jobs_killed, 0);

  // ...and the loss report accounts for every injected fault.
  const analysis::MeasurementLoss loss = sim.measurement_loss();
  EXPECT_TRUE(loss.intervals_reconciled);
  EXPECT_TRUE(loss.node_samples_reconciled);
  EXPECT_TRUE(loss.jobs_reconciled);
  EXPECT_LT(loss.mean_coverage, 1.0);
  EXPECT_GT(loss.mean_coverage, 0.5);

  // Killed jobs were requeued, and incomplete records are excluded from
  // the analysis sample.
  EXPECT_EQ(result.faults.jobs_killed, result.faults.jobs_requeued);
  EXPECT_GT(result.jobs.incomplete_count(), 0u);
  for (const pbs::JobRecord* rec : result.jobs.analyzed()) {
    EXPECT_TRUE(rec->report.complete);
  }
}

TEST(FaultCampaign, IntervalDeltasStaySane) {
  // The original failure mode this subsystem guards against: a counter
  // reset subtracted from a larger baseline wraps uint64 and produces
  // astronomical deltas.  Every recorded interval must stay physically
  // plausible (cycles <= clock * interval * nodes, with slack).
  core::Sp2Simulation sim(faulted_config());
  const workload::CampaignResult& result = sim.campaign();
  const double clock_hz = result.intervals.empty()
                              ? 0.0
                              : util::MachineClock::kHz;
  for (const rs2hpm::IntervalRecord& rec : result.intervals) {
    const double bound = 2.0 * clock_hz * 900.0 * rec.nodes_sampled + 1e9;
    for (std::uint64_t v : rec.delta.user) {
      EXPECT_LT(static_cast<double>(v), bound);
    }
    EXPECT_LE(rec.nodes_sampled + rec.nodes_reprimed, rec.nodes_expected);
  }
}

TEST(FaultCampaign, CoverageFilterDropsLossyDays) {
  core::Sp2Config cfg = faulted_config();
  cfg.faults().interval_miss_prob = 0.5;  // half the samples vanish
  core::Sp2Simulation sim(cfg);
  std::int64_t usable = 0;
  for (const analysis::DayStats& d : sim.days()) {
    EXPECT_LT(d.coverage, 1.0);
    if (d.coverage >= 0.9) ++usable;
  }
  const auto filtered = analysis::filter_days(sim.days(), -1.0, 0.9);
  EXPECT_EQ(static_cast<std::int64_t>(filtered.size()), usable);
}

TEST(FaultCampaign, RecordsSurviveStorageCorruption) {
  // Save the faulted campaign, rot the file, reload with recovery: every
  // uncorrupted record must survive and every corrupted line be reported.
  core::Sp2Simulation sim(faulted_config());
  std::ostringstream save;
  analysis::save_intervals(save, sim.campaign().intervals);

  fault::FaultConfig rot;
  rot.enabled = true;
  rot.record_corruption_prob = 0.05;
  const fault::FaultSchedule rot_sched(rot);
  std::string text = save.str();
  const std::int64_t corrupted = fault::corrupt_records(text, rot_sched);
  ASSERT_GT(corrupted, 0);

  // The commit trailer is the last payload line; if the rot schedule hit
  // it the file reads as truncated and one of the `corrupted` lines was
  // the trailer, not a record.
  const std::int64_t trailer_line =
      static_cast<std::int64_t>(sim.campaign().intervals.size()) + 1;
  const bool trailer_hit = rot_sched.record_corrupted(trailer_line);
  const std::int64_t records_lost = corrupted - (trailer_hit ? 1 : 0);

  std::istringstream load(text);
  analysis::ParseReport report;
  const auto recovered = analysis::load_intervals(load, &report);
  EXPECT_EQ(report.lines_skipped, corrupted);
  EXPECT_EQ(recovered.size(),
            sim.campaign().intervals.size() -
                static_cast<std::size_t>(records_lost));
  EXPECT_EQ(report.committed, !trailer_hit);
  EXPECT_EQ(report.truncated, trailer_hit);
  // The report attaches only the first max_issues offending lines (the
  // skip count above still covers every one); raising the cap recovers
  // the full listing.
  EXPECT_EQ(static_cast<std::int64_t>(report.issues.size()),
            std::min<std::int64_t>(report.max_issues, corrupted));
  std::istringstream reload(text);
  analysis::ParseReport full;
  full.max_issues = corrupted;
  (void)analysis::load_intervals(reload, &full);
  EXPECT_EQ(full.issues.size(), static_cast<std::size_t>(corrupted));
  const std::string rendered = analysis::format_parse_report(report);
  if (corrupted > report.max_issues) {
    EXPECT_NE(rendered.find("and"), std::string::npos);
  }
}

}  // namespace
}  // namespace p2sim
