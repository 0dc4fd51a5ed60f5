// Dashboard smoke test: a faulted campaign observed live through a
// HealthReporter must agree with the post-hoc measurement-loss report to
// the last node-sample, and the rendered dashboard must carry the daily
// charts.  This is the "live view equals batch view" contract
// p2sim_monitord stakes its per-campaign reconciliation check on.
#include "src/telemetry/reporter.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/loss.hpp"
#include "src/core/simulation.hpp"
#include "src/telemetry/session.hpp"
#include "src/workload/driver.hpp"

namespace p2sim {
namespace {

struct ObservedCampaign {
  workload::CampaignResult result;
  telemetry::HealthReporter reporter;
};

ObservedCampaign run_observed(std::int64_t days, int nodes,
                              std::ostream* out = nullptr) {
  core::Sp2Config cfg = core::Sp2Config::small(days, nodes);
  cfg.faults() = fault::FaultConfig::reference();
  telemetry::ReporterConfig rep_cfg;
  rep_cfg.out = out;
  ObservedCampaign obs{{}, telemetry::HealthReporter(rep_cfg)};
  cfg.driver.observer = &obs.reporter;
  telemetry::Session session;
  telemetry::ScopedSession scoped(session);
  obs.result = workload::run_campaign(cfg.driver);
  return obs;
}

TEST(Dashboard, SnapshotMatchesMeasurementLossExactly) {
  ObservedCampaign obs = run_observed(/*days=*/30, /*nodes=*/32);
  const telemetry::HealthSnapshot& snap = obs.reporter.snapshot();
  const analysis::MeasurementLoss loss = analysis::measure_loss(obs.result);

  ASSERT_TRUE(loss.reconciled());
  ASSERT_GT(loss.injected.total_faults(), 0);

  // Intervals seen and recorded, node-samples expected, clean and
  // reprimed, faults injected and jobs requeued all agree.
  EXPECT_EQ(analysis::reconcile_live(snap, loss), std::vector<std::string>{});
  EXPECT_DOUBLE_EQ(snap.coverage(),
                   static_cast<double>(loss.node_samples_clean) /
                       static_cast<double>(loss.node_samples_expected));
}

TEST(Dashboard, ReconcileLiveNamesEachPerturbedField) {
  analysis::MeasurementLoss loss;
  loss.intervals_expected = 96;
  loss.intervals_recorded = 95;
  loss.node_samples_expected = 760;
  loss.node_samples_clean = 750;
  loss.node_samples_reprimed = 4;
  loss.injected.intervals_missed = 1;
  loss.injected.jobs_requeued = 2;
  loss.intervals_reconciled = loss.node_samples_reconciled =
      loss.jobs_reconciled = true;
  telemetry::HealthSnapshot live;
  live.intervals_seen = 96;
  live.intervals_recorded = 95;
  live.node_samples_expected = 760;
  live.node_samples_clean = 750;
  live.node_samples_reprimed = 4;
  live.faults_injected = loss.injected.total_faults();
  live.jobs_requeued = 2;
  ASSERT_EQ(analysis::reconcile_live(live, loss), std::vector<std::string>{});

  using Field = std::int64_t telemetry::HealthSnapshot::*;
  const std::pair<Field, const char*> fields[] = {
      {&telemetry::HealthSnapshot::intervals_seen, "intervals_seen"},
      {&telemetry::HealthSnapshot::intervals_recorded, "intervals_recorded"},
      {&telemetry::HealthSnapshot::node_samples_expected,
       "node_samples_expected"},
      {&telemetry::HealthSnapshot::node_samples_clean, "node_samples_clean"},
      {&telemetry::HealthSnapshot::node_samples_reprimed,
       "node_samples_reprimed"},
      {&telemetry::HealthSnapshot::faults_injected, "faults_injected"},
      {&telemetry::HealthSnapshot::jobs_requeued, "jobs_requeued"},
  };
  for (const auto& [field, name] : fields) {
    telemetry::HealthSnapshot perturbed = live;
    perturbed.*field += 1;
    EXPECT_EQ(analysis::reconcile_live(perturbed, loss),
              std::vector<std::string>{name});
  }
  analysis::MeasurementLoss broken = loss;
  broken.jobs_reconciled = false;
  EXPECT_EQ(analysis::reconcile_live(live, broken),
            std::vector<std::string>{"loss.reconciled"});
}

TEST(Dashboard, JobTalliesMatchTheCampaign) {
  ObservedCampaign obs = run_observed(/*days=*/10, /*nodes=*/16);
  const telemetry::HealthSnapshot& snap = obs.reporter.snapshot();
  // Every dispatched run either ran to completion, was crash-killed, or was
  // still on nodes when the window closed; the still-running count is
  // bounded by jobs_open_at_end (which additionally counts the queue).
  EXPECT_GT(snap.jobs_dispatched, 0);
  const std::int64_t still_running = snap.jobs_dispatched -
                                     snap.jobs_completed -
                                     obs.result.faults.jobs_killed;
  EXPECT_GE(still_running, 0);
  EXPECT_LE(still_running, obs.result.jobs_open_at_end);
}

TEST(Dashboard, StreamsOneLinePerStride) {
  std::ostringstream stream;
  core::Sp2Config cfg = core::Sp2Config::small(/*days=*/3, /*nodes=*/8);
  telemetry::ReporterConfig rep_cfg;
  rep_cfg.stride = 96;  // daily
  rep_cfg.out = &stream;
  telemetry::HealthReporter reporter(rep_cfg);
  cfg.driver.observer = &reporter;
  (void)workload::run_campaign(cfg.driver);

  const std::string lines = stream.str();
  std::int64_t count = 0;
  for (char c : lines) count += (c == '\n');
  EXPECT_EQ(count, 3);  // one per simulated day
}

TEST(Dashboard, RenderCarriesChartsAndHealthBlock) {
  ObservedCampaign obs = run_observed(/*days=*/6, /*nodes=*/8);
  const std::string dash = obs.reporter.render_dashboard();
  EXPECT_NE(dash.find("coverage"), std::string::npos);
  EXPECT_NE(dash.find("Gflops"), std::string::npos);
  EXPECT_EQ(obs.reporter.daily_gflops().size(), 6u);
  EXPECT_EQ(obs.reporter.daily_coverage().size(), 6u);
}

TEST(Dashboard, UntouchedReporterRendersCleanly) {
  // Zero campaigns, zero completed jobs: every accessor has a defined
  // value and the dashboard renders without dividing by zero.
  telemetry::HealthReporter reporter;
  const telemetry::HealthSnapshot& snap = reporter.snapshot();
  EXPECT_EQ(snap.intervals_seen, 0);
  EXPECT_EQ(snap.jobs_completed, 0);
  EXPECT_DOUBLE_EQ(snap.coverage(), 1.0);  // nothing expected, nothing lost
  EXPECT_DOUBLE_EQ(snap.mean_mflops(), 0.0);
  EXPECT_TRUE(reporter.daily_gflops().empty());
  EXPECT_TRUE(reporter.daily_coverage().empty());
  const std::string dash = reporter.render_dashboard();
  EXPECT_NE(dash.find("Campaign pipeline health"), std::string::npos);
}

TEST(Dashboard, FullyDarkDayHasZeroCoverage) {
  // A day whose every daemon sample was lost: daily coverage must be 0
  // (scaled by the recorded-interval fraction), not 1.0-because-nothing-
  // was-expected; daily Gflops must be 0, not NaN.
  telemetry::HealthReporter reporter;
  for (int i = 0; i < 96; ++i) {
    telemetry::HealthSample s;
    s.interval = i;
    s.day = 0;
    s.interval_recorded = false;
    reporter.on_interval(s);
  }
  telemetry::HealthSample lit;
  lit.interval = 96;
  lit.day = 1;
  lit.interval_recorded = true;
  lit.nodes_expected = 8;
  lit.nodes_sampled = 6;
  lit.mflops = 120.0;
  reporter.on_interval(lit);

  const std::vector<double> cov = reporter.daily_coverage();
  const std::vector<double> gfl = reporter.daily_gflops();
  ASSERT_EQ(cov.size(), 2u);
  EXPECT_DOUBLE_EQ(cov[0], 0.0);
  EXPECT_DOUBLE_EQ(gfl[0], 0.0);
  EXPECT_DOUBLE_EQ(cov[1], 6.0 / 8.0);
  // The cumulative view only counts recorded intervals' node samples.
  const telemetry::HealthSnapshot& snap = reporter.snapshot();
  EXPECT_EQ(snap.intervals_seen, 97);
  EXPECT_EQ(snap.intervals_recorded, 1);
  EXPECT_EQ(snap.node_samples_expected, 8);
  EXPECT_EQ(snap.node_samples_clean, 6);
}

TEST(Dashboard, SnapshotIsConsistentAtEveryIntervalBoundary) {
  // A scrape can land between any two on_interval calls; the snapshot it
  // reads must already account for every interval delivered so far — no
  // deferred or batched accounting.
  telemetry::HealthReporter reporter;
  for (int i = 0; i < 20; ++i) {
    telemetry::HealthSample s;
    s.interval = i;
    s.day = i / 4;
    s.interval_recorded = (i % 5 != 4);  // every fifth interval is lost
    s.nodes_expected = s.interval_recorded ? 4 : 0;
    s.nodes_sampled = s.nodes_expected;
    s.mflops = 10.0;
    reporter.on_interval(s);
    const telemetry::HealthSnapshot& snap = reporter.snapshot();
    EXPECT_EQ(snap.intervals_seen, i + 1);
    EXPECT_EQ(snap.intervals_recorded, (i + 1) - (i + 1) / 5);
    EXPECT_EQ(snap.node_samples_expected, snap.node_samples_clean);
    EXPECT_EQ(snap.node_samples_expected,
              4 * ((i + 1) - (i + 1) / 5));
  }
}

TEST(Dashboard, FaultFreeCampaignHasFullCoverage) {
  core::Sp2Config cfg = core::Sp2Config::small(/*days=*/4, /*nodes=*/8);
  telemetry::HealthReporter reporter;
  cfg.driver.observer = &reporter;
  const workload::CampaignResult result = workload::run_campaign(cfg.driver);
  const telemetry::HealthSnapshot& snap = reporter.snapshot();
  EXPECT_EQ(snap.intervals_seen, result.intervals_expected);
  EXPECT_EQ(snap.intervals_recorded, snap.intervals_seen);
  EXPECT_EQ(snap.node_samples_clean, snap.node_samples_expected);
  EXPECT_EQ(snap.faults_injected, 0);
  EXPECT_DOUBLE_EQ(snap.coverage(), 1.0);
  EXPECT_GT(snap.mean_mflops(), 0.0);
}

}  // namespace
}  // namespace p2sim
