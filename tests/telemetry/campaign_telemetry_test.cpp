// Campaign-level telemetry contracts: the overhead guard (telemetry off
// means zero metric allocations), determinism of the simulated-time
// exports, fault-counter reconciliation against the FaultLog, and the lane
// counters' node-interval accounting.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "src/core/simulation.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/service.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/sim_time.hpp"
#include "src/workload/driver.hpp"

namespace p2sim {
namespace {

workload::DriverConfig small_faulted(std::int64_t days = 4, int nodes = 8) {
  core::Sp2Config cfg = core::Sp2Config::small(days, nodes);
  cfg.faults() = fault::FaultConfig::reference();
  return cfg.driver;
}

TEST(CampaignTelemetry, DisabledCampaignAllocatesNoMetrics) {
  // The overhead guard: with no session installed, a faulted campaign must
  // construct zero Counter/Gauge/Histogram objects anywhere in the
  // pipeline.  This pins "disabled means off", not "off but allocating".
  const std::uint64_t before = telemetry::metrics_created();
  (void)workload::run_campaign(small_faulted());
  EXPECT_EQ(telemetry::metrics_created(), before);
}

TEST(CampaignTelemetry, ScrapePathAllocatesNoMetrics) {
  // The other half of the overhead guard: serving the monitoring plane
  // must construct zero metric objects.  All registration happens at
  // MonitorService construction and during the campaign; every scrape and
  // query after that works entirely on existing storage.
  telemetry::Session session;
  telemetry::MonitorService svc(session);
  {
    telemetry::ScopedSession scoped(session);
    (void)workload::run_campaign(small_faulted());
  }
  const std::uint64_t before = telemetry::metrics_created();
  for (int i = 0; i < 50; ++i) {
    (void)svc.metrics_text();
    (void)svc.healthz_json();
    (void)svc.days_json();
    (void)svc.jobs_json(16);
    (void)session.registry.snapshot();
    (void)session.registry.prometheus_text();
  }
  EXPECT_EQ(telemetry::metrics_created(), before);
}

TEST(CampaignTelemetry, SessionCollectsDuringCampaign) {
  telemetry::Session session;
  {
    telemetry::ScopedSession scoped(session);
    (void)workload::run_campaign(small_faulted());
  }
  EXPECT_GT(session.registry.size(), 0u);
  EXPECT_TRUE(session.registry.contains("p2sim_daemon_coverage"));
  EXPECT_TRUE(
      session.registry.contains("p2sim_driver_jobs_dispatched_total"));
  EXPECT_FALSE(session.tracer.events().empty());
  EXPECT_EQ(session.tracer.open_depth(), 0);
  // Level A kernel runs advanced the dedicated engine timeline.
  EXPECT_GT(session.engine_clock_s, 0.0);
}

TEST(CampaignTelemetry, ScopedSessionRestoresPrevious) {
  EXPECT_EQ(telemetry::current(), nullptr);
  telemetry::Session session;
  {
    telemetry::ScopedSession scoped(session);
    EXPECT_EQ(telemetry::current(), &session);
  }
  EXPECT_EQ(telemetry::current(), nullptr);
}

TEST(CampaignTelemetry, SimTimeExportsAreDeterministic) {
  // Two identical campaigns under fresh sessions must produce
  // byte-identical simulated-time exports (wall-clock metrics excluded by
  // default, wall args omitted from the trace).
  std::string jsonl[2];
  std::string trace[2];
  for (int i = 0; i < 2; ++i) {
    telemetry::Session session;
    {
      telemetry::ScopedSession scoped(session);
      (void)workload::run_campaign(small_faulted());
    }
    jsonl[i] = session.registry.jsonl();
    trace[i] = session.tracer.chrome_trace_json(/*include_wall=*/false);
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(trace[0], trace[1]);
}

TEST(CampaignTelemetry, TelemetryDoesNotPerturbTheCampaign) {
  // Observing a campaign must not change it: results with and without a
  // session installed are identical (telemetry reads, never draws).
  const workload::CampaignResult bare =
      workload::run_campaign(small_faulted());
  telemetry::Session session;
  workload::CampaignResult observed;
  {
    telemetry::ScopedSession scoped(session);
    observed = workload::run_campaign(small_faulted());
  }
  EXPECT_EQ(bare.intervals.size(), observed.intervals.size());
  EXPECT_EQ(bare.jobs.size(), observed.jobs.size());
  EXPECT_DOUBLE_EQ(bare.total_busy_node_seconds,
                   observed.total_busy_node_seconds);
  EXPECT_EQ(bare.faults.total_faults(), observed.faults.total_faults());
  for (std::size_t i = 0; i < bare.intervals.size(); ++i) {
    EXPECT_EQ(bare.intervals[i].delta.user,
              observed.intervals[i].delta.user);
  }
}

TEST(CampaignTelemetry, FaultCountersReconcileWithFaultLog) {
  telemetry::Session session;
  workload::CampaignResult result;
  {
    telemetry::ScopedSession scoped(session);
    result = workload::run_campaign(small_faulted(/*days=*/8));
  }
  const fault::FaultLog& log = result.faults;
  ASSERT_GT(log.total_faults(), 0);
  auto counter_value = [&](const char* name) -> std::uint64_t {
    if (!session.registry.contains(name)) return 0;
    // help is ignored on re-registration; kind must match.
    return session.registry.counter(name, "").value();
  };
  EXPECT_EQ(counter_value("p2sim_fault_node_crashes_total"),
            static_cast<std::uint64_t>(log.node_crashes));
  EXPECT_EQ(counter_value("p2sim_fault_intervals_missed_total"),
            static_cast<std::uint64_t>(log.intervals_missed));
  EXPECT_EQ(counter_value("p2sim_fault_node_samples_lost_total"),
            static_cast<std::uint64_t>(log.node_samples_lost));
  EXPECT_EQ(counter_value("p2sim_fault_prologues_lost_total"),
            static_cast<std::uint64_t>(log.prologues_lost));
  EXPECT_EQ(counter_value("p2sim_fault_epilogues_lost_total"),
            static_cast<std::uint64_t>(log.epilogues_lost));
  EXPECT_EQ(counter_value("p2sim_driver_jobs_requeued_total"),
            static_cast<std::uint64_t>(log.jobs_requeued));
  // The daemon cannot tell a crashed node from a sample dropped in flight;
  // its unreachable tally covers both FaultLog categories.
  EXPECT_EQ(counter_value("p2sim_daemon_unreachable_total"),
            static_cast<std::uint64_t>(log.node_samples_unreachable +
                                       log.node_samples_lost));
}

TEST(CampaignTelemetry, LaneCountersPartitionEveryNodeInterval) {
  // Every node spends every interval busy, idle or down, so the three
  // p2sim_lane_* counters add up to nodes x intervals — cron-missed
  // intervals included: the lanes count where the node advances, not
  // where the daemon probes it.  The counts are integer sums over the
  // workers' tallies, so they agree for every thread count.
  const char* const kNames[3] = {"p2sim_lane_busy_node_intervals_total",
                                 "p2sim_lane_idle_node_intervals_total",
                                 "p2sim_lane_down_node_intervals_total"};
  std::int64_t missed = 0;
  auto lane_counts = [&](const workload::DriverConfig& cfg) {
    telemetry::Session session;
    {
      telemetry::ScopedSession scoped(session);
      missed = workload::run_campaign(cfg).faults.intervals_missed;
    }
    std::array<std::uint64_t, 3> v{};
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_TRUE(session.registry.contains(kNames[i])) << kNames[i];
      v[i] = session.registry.counter(kNames[i], "").value();
    }
    return v;
  };
  workload::DriverConfig cfg = small_faulted(/*days=*/8);
  const std::array<std::uint64_t, 3> serial = lane_counts(cfg);
  ASSERT_GT(missed, 0);
  EXPECT_EQ(serial[0] + serial[1] + serial[2],
            static_cast<std::uint64_t>(cfg.num_nodes * cfg.days *
                                       util::kIntervalsPerDay));
  EXPECT_GT(serial[2], 0u) << "no node was ever down";
  cfg.threads = 3;
  EXPECT_EQ(lane_counts(cfg), serial);
  // A fault-free campaign registers the down counter too, at 0, so the
  // export's sample set does not depend on the fault mix.
  EXPECT_EQ(lane_counts(core::Sp2Config::small(2, 8).driver)[2], 0u);
}

}  // namespace
}  // namespace p2sim
