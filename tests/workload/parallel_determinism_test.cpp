// The parallel driver's contract, enforced byte-for-byte: a campaign run
// with DriverConfig::threads = 1, 2 or 4 (or 0 = auto) produces identical
// campaign records, job accounting, measurement-loss reconciliation and
// simulated-time telemetry exports — fault-free and under the reference
// crash/reboot + lossy-collection schedule alike.  The fingerprint is the
// serialized v2 record streams plus the JSONL metric export and the
// wall-free Chrome trace, so any divergence in any counter, any record or
// any span fails loudly with the first differing byte's context.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/task_pool.hpp"
#include "src/workload/driver.hpp"
#include "tests/workload/campaign_fingerprint.hpp"

namespace p2sim::workload {
namespace {

TEST(ParallelDeterminism, FaultFreeCampaignIsByteIdenticalAcrossThreads) {
  const std::string serial = campaign_fingerprint(small_config(), 1);
  expect_identical(serial, campaign_fingerprint(small_config(), 2),
                   "threads=2 vs 1");
  expect_identical(serial, campaign_fingerprint(small_config(), 4),
                   "threads=4 vs 1");
}

TEST(ParallelDeterminism, FaultedCampaignIsByteIdenticalAcrossThreads) {
  // Crash/reboot churn plus lossy collection exercises every serial-phase
  // interaction with the lanes: kills, requeues, reachability, repriming.
  const std::string serial = campaign_fingerprint(faulted_config(), 1);
  expect_identical(serial, campaign_fingerprint(faulted_config(), 2),
                   "faulted threads=2 vs 1");
  expect_identical(serial, campaign_fingerprint(faulted_config(), 4),
                   "faulted threads=4 vs 1");
}

TEST(ParallelDeterminism, FaultedCampaignIsByteIdenticalAtWiderThreadCounts) {
  // With the horizon engine the pass structure (how many intervals drain
  // per barrier) is fixed by schedules alone, so odd and oversubscribed
  // worker counts — 3 leaves a ragged tree-merge, 8 exceeds this config's
  // per-pass work for some phases — must not move a single byte.
  const std::string serial = campaign_fingerprint(faulted_config(), 1);
  expect_identical(serial, campaign_fingerprint(faulted_config(), 3),
                   "faulted threads=3 vs 1");
  expect_identical(serial, campaign_fingerprint(faulted_config(), 8),
                   "faulted threads=8 vs 1");
}

TEST(ParallelDeterminism, AutoThreadCountMatchesSerial) {
  expect_identical(campaign_fingerprint(small_config(), 1),
                   campaign_fingerprint(small_config(), 0),
                   "threads=0 (auto) vs 1");
}

TEST(ParallelDeterminism, MoreThreadsThanNodesMatchesSerial) {
  DriverConfig tiny = small_config(2, 3);
  tiny.jobgen.node_choices = {1, 2};
  tiny.jobgen.node_weights = {3, 1};
  tiny.sched.drain_threshold_nodes = 2;
  expect_identical(campaign_fingerprint(tiny, 1),
                   campaign_fingerprint(tiny, 8),
                   "threads=8 on 3 nodes vs serial");
}

// The lane pipeline adds each worker's probes into a tally owned by its
// shard, and the fold adds the shards.  These pin that worker-side fold
// against the serial one where the shard map is least regular.
TEST(ParallelDeterminism, UnevenShardsMatchSerial) {
  // 13 lanes over 4 workers: shards of 3, 3, 3 and 4 lanes.
  DriverConfig odd = small_config(4, 13);
  odd.jobgen.node_choices = {1, 2, 4, 8};
  odd.jobgen.node_weights = {4, 3, 6, 14};
  expect_identical(campaign_fingerprint(odd, 1),
                   campaign_fingerprint(odd, 4),
                   "13 nodes threads=4 vs serial");
}

TEST(ParallelDeterminism, EmptyShardsContributeZero) {
  // 2 lanes over 4 workers: two shards own no lane, so their tallies must
  // stay zero through the fold.
  DriverConfig tiny = small_config(3, 2);
  tiny.jobgen.node_choices = {1, 2};
  tiny.jobgen.node_weights = {3, 1};
  tiny.sched.drain_threshold_nodes = 2;
  expect_identical(campaign_fingerprint(tiny, 1),
                   campaign_fingerprint(tiny, 4),
                   "2 nodes threads=4 vs serial");
}

TEST(ParallelDeterminism, FaultedTalliesMatchSerialAtThreeThreads) {
  // The reference crash rate gives this small config no crash at all, so
  // crashes are made common here: a crashed node is down (unreachable)
  // until its reboot, and reprimes at the first probe after it.
  DriverConfig churn = faulted_config();
  churn.faults.node_crashes_per_node_day = 0.5;
  // The campaign must reach every non-sampled probe arm, or the
  // comparison below would not cover their tallies.
  const CampaignResult r = run_campaign(churn);
  std::int64_t reprimed = 0;
  for (const rs2hpm::IntervalRecord& rec : r.intervals) {
    reprimed += rec.nodes_reprimed;
  }
  EXPECT_GT(r.faults.node_samples_unreachable, 0);  // down
  EXPECT_GT(r.faults.node_samples_lost, 0);         // lost
  EXPECT_GT(reprimed, 0);                           // reprimed
  expect_identical(campaign_fingerprint(churn, 1),
                   campaign_fingerprint(churn, 3),
                   "crash-churn threads=3 vs 1");
}

TEST(ParallelDeterminism, RepeatedRunsAreStableAtFixedThreadCount) {
  expect_identical(campaign_fingerprint(faulted_config(), 4),
                   campaign_fingerprint(faulted_config(), 4),
                   "threads=4 run-to-run");
}

TEST(ParallelDeterminism, FastAccrualMatchesReferenceByteForByte) {
  // The closed-form accrual path must not change a single campaign byte
  // relative to the slice-by-slice reference oracle.
  DriverConfig ref_cfg = small_config();
  ref_cfg.node.reference_accrual = true;
  expect_identical(campaign_fingerprint(small_config(), 1),
                   campaign_fingerprint(ref_cfg, 1),
                   "fast vs reference accrual (fault-free)");
}

TEST(ParallelDeterminism, FastAccrualMatchesReferenceUnderFaultsAndThreads) {
  // Cross both axes at once: parallel fast path vs serial reference oracle
  // on the crash/reboot + lossy-collection schedule.
  DriverConfig ref_cfg = faulted_config();
  ref_cfg.node.reference_accrual = true;
  expect_identical(campaign_fingerprint(faulted_config(), 4),
                   campaign_fingerprint(ref_cfg, 1),
                   "faulted fast threads=4 vs reference serial");
}

TEST(ParallelDeterminism, SignatureStoreDoesNotPerturbCampaign) {
  // Cold run (populates the store), warm run (loads it) and store-free run
  // must fingerprint identically — persistence is purely a speed lever.
  const std::string store =
      testing::TempDir() + "p2sim_determinism_store.txt";
  std::remove(store.c_str());
  DriverConfig stored = small_config();
  stored.signature_store_path = store;

  // A cold run measures every kernel itself, so even the telemetry stream
  // (core-run histograms included) matches a store-free run exactly.
  expect_identical(campaign_fingerprint(small_config(), 1),
                   campaign_fingerprint(stored, 1), "cold store vs no store");
  // Warm runs skip the level-A core runs entirely, so core-run telemetry
  // legitimately vanishes; every campaign artifact — interval and job
  // record streams, loss reconciliation, scalar totals — must still match
  // byte for byte.
  const std::string no_store =
      campaign_fingerprint(small_config(), 1, /*include_telemetry=*/false);
  expect_identical(no_store,
                   campaign_fingerprint(stored, 1, false),
                   "warm store vs no store");
  expect_identical(no_store,
                   campaign_fingerprint(stored, 4, false),
                   "warm store threads=4 vs no store");
  std::remove(store.c_str());
}

TEST(ParallelDeterminism, NegativeThreadCountIsRejected) {
  DriverConfig bad = small_config();
  bad.threads = -2;
  EXPECT_THROW(WorkloadDriver{bad}, std::invalid_argument);
}

TEST(ParallelDeterminism, PhaseTableNamesMeasureAndLanePipelineAsParallel) {
  std::vector<std::string> parallel;
  for (const WorkloadDriver::PhaseInfo& p : WorkloadDriver::kPhases) {
    if (p.parallel) parallel.push_back(p.name);
  }
  // Exactly two phases may enter the worker pool: batched signature
  // measurement and the lane pipeline.  Everything else is serial by
  // contract (tools/detlint.py enforces the closure).
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_EQ(parallel[0], "measure");
  EXPECT_EQ(parallel[1], "lane-pipeline");
  EXPECT_STREQ(WorkloadDriver::phase_name(WorkloadDriver::Phase::kCollect),
               "collect");
  EXPECT_STREQ(WorkloadDriver::phase_name(WorkloadDriver::Phase::kHorizon),
               "horizon");
  EXPECT_STREQ(WorkloadDriver::phase_name(WorkloadDriver::Phase::kFold),
               "fold");
}

}  // namespace
}  // namespace p2sim::workload
