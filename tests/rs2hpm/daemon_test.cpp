// The daemon's one sampling path, end to end: each NodeLane probes its node
// against its own baseline through the shared reboot guard
// (add_delta_if_monotone), the probes of an interval are summed into one
// ProbeTally, and SamplingDaemon::ingest appends the merged record -- the
// campaign's lane-pipeline and collect phases without the scheduler.
#include "src/rs2hpm/daemon.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault.hpp"
#include "src/util/sim_time.hpp"
#include "src/workload/lane.hpp"

namespace p2sim::rs2hpm {
namespace {

using workload::NodeLane;
using workload::ProbeTally;

constexpr double kIntervalS = static_cast<double>(util::kIntervalSeconds);

/// A fault view that drops every node sample in flight.
fault::FaultSchedule lossy_schedule() {
  fault::FaultConfig cfg;
  cfg.enabled = true;
  cfg.node_sample_loss_prob = 1.0;
  return fault::FaultSchedule(cfg);
}

/// A few lanes plus the daemon's log.  The test advances the nodes itself
/// and reads their totals as the oracle for the next delta.
class Fleet {
 public:
  explicit Fleet(int nodes) {
    lanes_.reserve(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i) {
      lanes_.emplace_back(i, cluster::NodeConfig{}, /*rng_seed=*/1,
                          /*fault_view=*/nullptr);
    }
  }

  NodeLane& lane(int i) { return lanes_[static_cast<std::size_t>(i)]; }
  ModeTotals totals(int i) { return lane(i).node.totals(); }

  /// Runs every node through `intervals` idle intervals (OS noise only;
  /// a down node counts nothing).
  void idle(int intervals = 1) {
    for (NodeLane& l : lanes_) l.node.advance_idle(intervals * kIntervalS);
  }

  /// One collect: probes every lane, then hands the sum to the daemon the
  /// way the campaign's collect phase does.  Returns the new record.
  IntervalRecord collect(std::int64_t interval, int busy_nodes = 0) {
    tally = ProbeTally{};
    for (NodeLane& l : lanes_) l.probe(interval, /*missed=*/false, tally);
    IntervalRecord rec;
    rec.interval = interval;
    rec.delta = tally.delta;
    rec.quad_surplus = tally.quad_surplus;
    rec.nodes_sampled = tally.sampled;
    rec.nodes_expected = static_cast<int>(lanes_.size());
    rec.nodes_reprimed = tally.reprimed;
    rec.busy_nodes = busy_nodes;
    daemon.ingest(rec, tally.down + tally.lost);
    return daemon.records().back();
  }

  SamplingDaemon daemon;
  ProbeTally tally;  ///< the probes of the latest collect

 private:
  std::vector<NodeLane> lanes_;
};

TEST(Daemon, DeltasAggregateAcrossNodes) {
  Fleet f(2);
  f.lane(0).node.advance_idle(3 * kIntervalS);
  f.lane(1).node.advance_idle(kIntervalS);
  // Fresh lanes start at the all-zero baseline of fresh counters, so the
  // first collect is a clean delta from zero.
  const IntervalRecord& rec = f.collect(0, /*busy_nodes=*/2);
  EXPECT_EQ(rec.interval, 0);
  EXPECT_EQ(rec.delta, f.totals(0) + f.totals(1));
  EXPECT_NE(rec.delta, ModeTotals{});
  EXPECT_EQ(rec.busy_nodes, 2);
  EXPECT_EQ(rec.nodes_sampled, 2);
  EXPECT_EQ(rec.nodes_expected, 2);
}

TEST(Daemon, SuccessiveIntervalsIndependent) {
  Fleet f(1);
  f.idle();
  f.collect(0);
  const ModeTotals before = f.totals(0);
  f.idle(2);
  f.collect(1);
  f.collect(2);  // no progress since the last probe
  ASSERT_EQ(f.daemon.records().size(), 3u);
  EXPECT_EQ(f.daemon.records()[1].delta, f.totals(0).since(before));
  EXPECT_NE(f.daemon.records()[1].delta, ModeTotals{});
  EXPECT_EQ(f.daemon.records()[2].delta, ModeTotals{});
  EXPECT_EQ(f.daemon.records()[2].nodes_sampled, 1);
}

TEST(Daemon, SystemModeTracked) {
  // An idle node accrues OS noise in system mode only.
  Fleet f(1);
  f.idle();
  const IntervalRecord& rec = f.collect(0);
  EXPECT_EQ(rec.delta.system, f.totals(0).system);
  EXPECT_NE(rec.delta.system, CounterTotals{});
}

TEST(Daemon, CounterResetReprimesInsteadOfUnderflowing) {
  // The Release-mode failure this guard exists for: a node reboots, its
  // totals restart below the baseline, and baseline subtraction would wrap
  // uint64.  The probe must drop the node's interval and re-prime.
  Fleet f(2);
  f.idle(4);
  f.collect(0);
  f.lane(0).node.crash();  // counters restart from zero...
  f.lane(0).node.reboot();
  const ModeTotals node1_before = f.totals(1);
  f.idle();  // ...and one interval leaves node 0 below its old baseline
  ASSERT_FALSE(f.totals(0).covers(f.lane(0).baseline.totals));
  const IntervalRecord& rec = f.collect(1, 2);
  EXPECT_EQ(rec.delta, f.totals(1).since(node1_before));  // node 1 only
  EXPECT_EQ(rec.nodes_sampled, 1);
  EXPECT_EQ(rec.nodes_reprimed, 1);
  EXPECT_EQ(rec.nodes_expected, 2);
  EXPECT_EQ(f.lane(0).baseline.totals, f.totals(0));

  // The re-established baseline works: next interval node 0 contributes.
  const ModeTotals before0 = f.totals(0);
  const ModeTotals before1 = f.totals(1);
  f.idle();
  const IntervalRecord& next = f.collect(2, 2);
  EXPECT_EQ(next.delta,
            f.totals(0).since(before0) + f.totals(1).since(before1));
  EXPECT_EQ(next.nodes_sampled, 2);
  EXPECT_EQ(next.nodes_reprimed, 0);
}

TEST(Daemon, QuadRegressionAloneAlsoReprimes) {
  Fleet f(1);
  f.idle();
  f.collect(0);
  // The counter totals stay monotone but the quad diagnostic went
  // backwards: treat it as a reset.
  f.lane(0).baseline.quad = f.lane(0).node.quad_total() + 1;
  f.idle();
  const IntervalRecord& rec = f.collect(1);
  EXPECT_EQ(rec.nodes_sampled, 0);
  EXPECT_EQ(rec.nodes_reprimed, 1);
  EXPECT_EQ(rec.delta, ModeTotals{});
  EXPECT_EQ(rec.quad_surplus, 0u);
  EXPECT_EQ(f.lane(0).baseline.quad, f.lane(0).node.quad_total());
  EXPECT_EQ(f.lane(0).baseline.totals, f.totals(0));
}

TEST(Daemon, UnreachableNodeKeepsBaselineAndCoversGapLater) {
  const fault::FaultSchedule lossy = lossy_schedule();
  Fleet f(2);
  f.idle();
  f.collect(0);
  const NodeSample node1_base = f.lane(1).baseline;

  // Node 1's fetch is dropped this interval; its counters still advance.
  f.lane(1).fault_view = &lossy;
  const ModeTotals node0_before = f.totals(0);
  f.idle();
  const IntervalRecord& rec = f.collect(1, 2);
  EXPECT_EQ(rec.delta, f.totals(0).since(node0_before));
  EXPECT_EQ(rec.nodes_sampled, 1);
  EXPECT_EQ(rec.nodes_reprimed, 0);
  EXPECT_EQ(f.tally.lost, 1);
  EXPECT_EQ(f.lane(1).baseline.totals, node1_base.totals);

  // Node 1 is reachable again: its delta covers both intervals.
  f.lane(1).fault_view = nullptr;
  const ModeTotals node0_mid = f.totals(0);
  f.idle();
  const IntervalRecord& next = f.collect(2, 2);
  EXPECT_EQ(next.delta, f.totals(0).since(node0_mid) +
                            f.totals(1).since(node1_base.totals));
  EXPECT_EQ(next.nodes_sampled, 2);
}

TEST(Daemon, DownNodeKeepsBaselineUntilItsResetIsSeen) {
  Fleet f(2);
  f.idle(4);
  f.collect(0);
  const NodeSample node1_base = f.lane(1).baseline;
  f.lane(1).node.crash();
  f.idle();
  const IntervalRecord& rec = f.collect(1);
  EXPECT_EQ(f.tally.down, 1);
  EXPECT_EQ(rec.nodes_sampled, 1);
  EXPECT_EQ(rec.nodes_reprimed, 0);
  EXPECT_EQ(f.lane(1).baseline.totals, node1_base.totals);
  EXPECT_EQ(f.lane(1).baseline.quad, node1_base.quad);

  // Back in service with zeroed counters: the kept baseline exposes the
  // reset, so the node re-primes rather than wrapping.
  f.lane(1).node.reboot();
  f.idle();
  const IntervalRecord& back = f.collect(2);
  EXPECT_EQ(f.tally.down, 0);
  EXPECT_EQ(back.nodes_reprimed, 1);
  EXPECT_EQ(back.nodes_sampled, 1);
}

TEST(Daemon, CronMissKeepsBaselineAndCoversGapLater) {
  Fleet f(1);
  f.idle();
  f.collect(0);
  const ModeTotals base = f.lane(0).baseline.totals;
  f.idle();
  ProbeTally missed;
  f.lane(0).probe(1, /*missed=*/true, missed);
  EXPECT_EQ(missed.sampled + missed.reprimed + missed.down + missed.lost, 0);
  EXPECT_EQ(missed.delta, ModeTotals{});
  EXPECT_EQ(f.lane(0).baseline.totals, base);
  f.idle();
  EXPECT_EQ(f.collect(2).delta, f.totals(0).since(base));
}

TEST(Daemon, CoverageFractionReflectsSampledNodes) {
  const fault::FaultSchedule lossy = lossy_schedule();
  Fleet f(4);
  f.idle();
  EXPECT_DOUBLE_EQ(f.collect(0).coverage(), 1.0);
  f.lane(2).fault_view = &lossy;
  f.lane(3).fault_view = &lossy;
  f.idle();
  EXPECT_DOUBLE_EQ(f.collect(1).coverage(), 0.5);
  f.lane(2).fault_view = nullptr;
  f.lane(3).fault_view = nullptr;
  f.idle();
  EXPECT_DOUBLE_EQ(f.collect(2).coverage(), 1.0);
}

TEST(Daemon, ProbeOutcomesPartitionTheFleet) {
  // One node in each arm: sampled, re-primed, down and lost.
  const fault::FaultSchedule lossy = lossy_schedule();
  Fleet f(4);
  f.idle(4);
  f.collect(0);
  f.lane(1).node.crash();
  f.lane(1).node.reboot();
  f.lane(2).node.crash();
  f.lane(3).fault_view = &lossy;
  f.idle();
  const IntervalRecord& rec = f.collect(1);
  EXPECT_EQ(f.tally.sampled, 1);
  EXPECT_EQ(f.tally.reprimed, 1);
  EXPECT_EQ(f.tally.down, 1);
  EXPECT_EQ(f.tally.lost, 1);
  EXPECT_EQ(rec.nodes_sampled + rec.nodes_reprimed + f.tally.down +
                f.tally.lost,
            rec.nodes_expected);
  EXPECT_DOUBLE_EQ(rec.coverage(), 0.25);
}

}  // namespace
}  // namespace p2sim::rs2hpm
