#include "src/rs2hpm/job_monitor.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace p2sim::rs2hpm {
namespace {

using hpm::HpmCounter;

ModeTotals with_flops(std::uint64_t adds, std::uint64_t fxu) {
  ModeTotals t;
  t.user[hpm::index_of(HpmCounter::kFpAdd0)] = adds;
  t.user[hpm::index_of(HpmCounter::kUserFxu0)] = fxu;
  return t;
}

/// One node sample per (totals, quad) pair.
std::vector<NodeSample> samples(const std::vector<ModeTotals>& totals,
                                const std::vector<std::uint64_t>& quads) {
  std::vector<NodeSample> out;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    out.push_back({totals[i], quads[i]});
  }
  return out;
}

TEST(JobMonitor, PrologueEpilogueDelta) {
  JobMonitor jm;
  std::vector<ModeTotals> start = {with_flops(100, 10), with_flops(200, 20)};
  std::vector<std::uint64_t> q0 = {1, 2};
  jm.prologue(7, 1000.0, samples(start, q0));
  EXPECT_TRUE(jm.pending(7));

  std::vector<ModeTotals> end = {with_flops(600, 60), with_flops(900, 70)};
  std::vector<std::uint64_t> q1 = {5, 6};
  const JobCounterReport rep = jm.epilogue(7, 1600.0, samples(end, q1));
  EXPECT_FALSE(jm.pending(7));
  EXPECT_EQ(rep.job_id, 7);
  EXPECT_EQ(rep.nodes, 2);
  EXPECT_DOUBLE_EQ(rep.elapsed_s, 600.0);
  EXPECT_EQ(rep.delta.user_at(HpmCounter::kFpAdd0), 1200u);
  EXPECT_EQ(rep.delta.user_at(HpmCounter::kUserFxu0), 100u);
  EXPECT_EQ(rep.quad_surplus, 8u);
}

TEST(JobMonitor, MflopsComputedOverElapsed) {
  JobMonitor jm;
  std::vector<ModeTotals> start = {ModeTotals{}};
  std::vector<std::uint64_t> q = {0};
  jm.prologue(1, 0.0, samples(start, q));
  // 50M adds over 10 s on one node = 5 Mflops.
  std::vector<ModeTotals> end = {with_flops(50'000'000, 0)};
  const JobCounterReport rep = jm.epilogue(1, 10.0, samples(end, q));
  EXPECT_NEAR(rep.job_mflops(), 5.0, 1e-9);
  EXPECT_NEAR(rep.mflops_per_node(), 5.0, 1e-9);
}

TEST(JobMonitor, PerNodeDividesByNodes) {
  JobMonitor jm;
  std::vector<ModeTotals> start(4);
  std::vector<std::uint64_t> q(4, 0);
  jm.prologue(2, 0.0, samples(start, q));
  std::vector<ModeTotals> end(4, with_flops(10'000'000, 0));
  const JobCounterReport rep = jm.epilogue(2, 1.0, samples(end, q));
  EXPECT_NEAR(rep.job_mflops(), 40.0, 1e-9);
  EXPECT_NEAR(rep.mflops_per_node(), 10.0, 1e-9);
}

TEST(JobMonitor, DoubleProloguesRejected) {
  JobMonitor jm;
  std::vector<ModeTotals> t = {ModeTotals{}};
  std::vector<std::uint64_t> q = {0};
  jm.prologue(3, 0.0, samples(t, q));
  EXPECT_THROW(jm.prologue(3, 1.0, samples(t, q)), std::invalid_argument);
}

TEST(JobMonitor, EpilogueWithoutPrologueRejected) {
  JobMonitor jm;
  std::vector<ModeTotals> t = {ModeTotals{}};
  std::vector<std::uint64_t> q = {0};
  EXPECT_THROW(jm.epilogue(9, 1.0, samples(t, q)), std::invalid_argument);
}

TEST(JobMonitor, NodeCountChangeRejected) {
  JobMonitor jm;
  std::vector<ModeTotals> t2(2);
  std::vector<std::uint64_t> q2(2, 0);
  jm.prologue(4, 0.0, samples(t2, q2));
  std::vector<ModeTotals> t3(3);
  std::vector<std::uint64_t> q3(3, 0);
  EXPECT_THROW(jm.epilogue(4, 1.0, samples(t3, q3)), std::invalid_argument);
}

TEST(JobMonitor, EmptyNodeSpanRejected) {
  JobMonitor jm;
  std::vector<ModeTotals> t;
  std::vector<std::uint64_t> q;
  EXPECT_THROW(jm.prologue(5, 0.0, samples(t, q)), std::invalid_argument);
}

TEST(JobMonitor, NonMonotoneNodeDroppedAndReportIncomplete) {
  // A node rebooted mid-job: its epilogue totals are below the prologue
  // baseline.  The delta must come from the surviving node only — never
  // from wrapped uint64 subtraction — and the report must say so.
  JobMonitor jm;
  std::vector<ModeTotals> start = {with_flops(1000, 0), with_flops(1000, 0)};
  std::vector<std::uint64_t> q0 = {10, 10};
  jm.prologue(20, 0.0, samples(start, q0));
  std::vector<ModeTotals> end = {with_flops(5, 0),  // reset: 5 < 1000
                                 with_flops(4000, 0)};
  std::vector<std::uint64_t> q1 = {0, 25};
  const JobCounterReport rep = jm.epilogue(20, 100.0, samples(end, q1));
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.nodes_reset, 1);
  EXPECT_EQ(rep.nodes, 2);
  EXPECT_EQ(rep.delta.user_at(HpmCounter::kFpAdd0), 3000u);
  EXPECT_EQ(rep.quad_surplus, 15u);
}

TEST(JobMonitor, QuadRegressionAloneMarksIncomplete) {
  JobMonitor jm;
  std::vector<ModeTotals> start = {with_flops(10, 0)};
  std::vector<std::uint64_t> q0 = {100};
  jm.prologue(21, 0.0, samples(start, q0));
  std::vector<ModeTotals> end = {with_flops(20, 0)};
  std::vector<std::uint64_t> q1 = {50};
  const JobCounterReport rep = jm.epilogue(21, 1.0, samples(end, q1));
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.nodes_reset, 1);
  EXPECT_EQ(rep.delta.user_at(HpmCounter::kFpAdd0), 0u);
}

TEST(JobMonitor, AbandonClosesPrologueWithIncompleteReport) {
  JobMonitor jm;
  std::vector<ModeTotals> start(3);
  std::vector<std::uint64_t> q(3, 0);
  jm.prologue(30, 100.0, samples(start, q));
  const JobCounterReport rep = jm.abandon(30, 700.0);
  EXPECT_FALSE(jm.pending(30));
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.job_id, 30);
  EXPECT_EQ(rep.nodes, 3);
  EXPECT_DOUBLE_EQ(rep.elapsed_s, 600.0);
  EXPECT_EQ(rep.job_mflops(), 0.0);
}

TEST(JobMonitor, AbandonWithoutPrologueRejected) {
  JobMonitor jm;
  EXPECT_THROW(jm.abandon(31, 0.0), std::invalid_argument);
}

TEST(JobMonitor, IncompleteFactoryCarriesFacts) {
  const JobCounterReport rep = JobCounterReport::incomplete(42, 8, 1234.5);
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.job_id, 42);
  EXPECT_EQ(rep.nodes, 8);
  EXPECT_DOUBLE_EQ(rep.elapsed_s, 1234.5);
  EXPECT_EQ(rep.quad_surplus, 0u);
}

TEST(JobMonitor, ConcurrentJobsIndependent) {
  JobMonitor jm;
  std::vector<ModeTotals> t = {ModeTotals{}};
  std::vector<std::uint64_t> q = {0};
  jm.prologue(10, 0.0, samples(t, q));
  jm.prologue(11, 5.0, samples(t, q));
  EXPECT_EQ(jm.pending_count(), 2u);
  std::vector<ModeTotals> e = {with_flops(1000, 0)};
  jm.epilogue(10, 10.0, samples(e, q));
  EXPECT_TRUE(jm.pending(11));
  EXPECT_EQ(jm.pending_count(), 1u);
}

}  // namespace
}  // namespace p2sim::rs2hpm
