#include "src/workload/driver.hpp"

#include <gtest/gtest.h>

#include "src/util/sim_time.hpp"

namespace p2sim::workload {
namespace {

DriverConfig small_config(std::int64_t days = 5, int nodes = 16) {
  DriverConfig cfg;
  cfg.num_nodes = nodes;
  cfg.days = days;
  cfg.jobs_per_day = 42.0 * nodes / 144.0;
  cfg.jobgen.node_choices = {1, 2, 4, 8, 16};
  cfg.jobgen.node_weights = {4, 3, 6, 14, 22};
  cfg.sched.drain_threshold_nodes = 8;
  return cfg;
}

TEST(Driver, RejectsInvalidConfigs) {
  DriverConfig bad = small_config();
  bad.num_nodes = 0;
  EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument);
  bad = small_config();
  bad.days = 0;
  EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument);
  bad = small_config();
  bad.jobs_per_day = -1.0;
  EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument);
  bad = small_config();
  bad.demand_min = 2.0;
  bad.demand_max = 1.0;
  EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument);
  bad = small_config();
  bad.slump_depth_max = 1.5;
  EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument);
}

TEST(Driver, RejectsCheckpointDirWithoutCadence) {
  // A checkpoint directory with no positive cadence would run the whole
  // campaign and write no generation at all.
  for (const std::int64_t every : {0, -5}) {
    DriverConfig bad = small_config();
    bad.checkpoint.dir = "unused_ckpt_dir";
    bad.checkpoint.every_intervals = every;
    EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument) << every;
  }
  // Without a directory the cadence is unused.
  DriverConfig off = small_config();
  off.checkpoint.every_intervals = 0;
  EXPECT_NO_THROW(WorkloadDriver{off});
}

TEST(Driver, ProducesOneRecordPerInterval) {
  const CampaignResult r = run_campaign(small_config());
  EXPECT_EQ(r.days, 5);
  EXPECT_EQ(r.num_nodes, 16);
  EXPECT_EQ(r.intervals.size(),
            static_cast<std::size_t>(5 * util::kIntervalsPerDay));
  for (std::size_t i = 0; i < r.intervals.size(); ++i) {
    EXPECT_EQ(r.intervals[i].interval, static_cast<std::int64_t>(i));
    EXPECT_EQ(r.intervals[i].nodes_sampled, 16);
  }
}

TEST(Driver, BusyNodesNeverExceedMachine) {
  const CampaignResult r = run_campaign(small_config());
  for (const auto& rec : r.intervals) {
    EXPECT_GE(rec.busy_nodes, 0);
    EXPECT_LE(rec.busy_nodes, 16);
  }
}

TEST(Driver, UtilizationIsAFraction) {
  const CampaignResult r = run_campaign(small_config());
  EXPECT_GT(r.mean_utilization(), 0.0);
  EXPECT_LT(r.mean_utilization(), 1.0);
}

TEST(Driver, JobsCompleteAndAreAccounted) {
  const CampaignResult r = run_campaign(small_config());
  EXPECT_GT(r.jobs.size(), 10u);
  for (const auto& rec : r.jobs.all()) {
    EXPECT_GT(rec.walltime_s(), 0.0);
    EXPECT_GE(rec.start_time_s, rec.spec.submit_time_s);
    EXPECT_EQ(rec.report.nodes, rec.spec.nodes_requested);
    EXPECT_GE(rec.mflops_per_node(), 0.0);
    // No job can beat the 267 Mflops hardware peak.
    EXPECT_LT(rec.mflops_per_node(), util::MachineClock::kPeakMflopsPerNode);
  }
}

TEST(Driver, DeterministicForSeed) {
  const CampaignResult a = run_campaign(small_config());
  const CampaignResult b = run_campaign(small_config());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].delta, b.intervals[i].delta) << i;
  }
  EXPECT_DOUBLE_EQ(a.total_busy_node_seconds, b.total_busy_node_seconds);
}

TEST(Driver, SeedChangesTheCampaign) {
  DriverConfig cfg = small_config();
  const CampaignResult a = run_campaign(cfg);
  cfg.seed ^= 0xDEADBEEF;
  const CampaignResult b = run_campaign(cfg);
  EXPECT_NE(a.jobs.size(), b.jobs.size());
}

TEST(Driver, CountersAreBelievable) {
  const CampaignResult r = run_campaign(small_config());
  using hpm::HpmCounter;
  std::uint64_t cycles = 0, flops = 0, fxu = 0;
  for (const auto& rec : r.intervals) {
    cycles += rec.delta.user_at(HpmCounter::kUserCycles);
    flops += rec.delta.user_at(HpmCounter::kFpAdd0) +
             rec.delta.user_at(HpmCounter::kFpAdd1) +
             rec.delta.user_at(HpmCounter::kFpMul0) +
             rec.delta.user_at(HpmCounter::kFpMul1) +
             rec.delta.user_at(HpmCounter::kFpMulAdd0) +
             rec.delta.user_at(HpmCounter::kFpMulAdd1);
    fxu += rec.delta.user_at(HpmCounter::kUserFxu0) +
           rec.delta.user_at(HpmCounter::kUserFxu1);
  }
  EXPECT_GT(cycles, 0u);
  EXPECT_GT(flops, 0u);
  EXPECT_GT(fxu, 0u);
  // User cycles cannot exceed total busy node time at the clock.
  EXPECT_LT(static_cast<double>(cycles),
            r.total_busy_node_seconds * util::MachineClock::kHz * 1.001);
  // Flops per cycle below the 4/cycle hardware bound.
  EXPECT_LT(static_cast<double>(flops), 4.0 * static_cast<double>(cycles));
}

TEST(Driver, DivideCounterBugHolds) {
  // The campaign is measured with the buggy monitor: no divide counts.
  const CampaignResult r = run_campaign(small_config());
  for (const auto& rec : r.intervals) {
    EXPECT_EQ(rec.delta.user_at(hpm::HpmCounter::kFpDiv0), 0u);
    EXPECT_EQ(rec.delta.user_at(hpm::HpmCounter::kFpDiv1), 0u);
  }
}

TEST(Driver, SystemModeWorkExists) {
  const CampaignResult r = run_campaign(small_config(10));
  std::uint64_t sys_fxu = 0;
  for (const auto& rec : r.intervals) {
    sys_fxu += rec.delta.system_at(hpm::HpmCounter::kUserFxu0);
  }
  EXPECT_GT(sys_fxu, 0u);
}

TEST(Driver, LongerCampaignsRunMoreJobs) {
  const CampaignResult short_run = run_campaign(small_config(3));
  const CampaignResult long_run = run_campaign(small_config(9));
  EXPECT_GT(long_run.jobs.size(), short_run.jobs.size());
}

}  // namespace
}  // namespace p2sim::workload
