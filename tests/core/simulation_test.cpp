#include "src/core/simulation.hpp"

#include <gtest/gtest.h>

#include "src/util/sim_time.hpp"
#include "src/workload/checkpoint.hpp"
#include "src/workload/kernels.hpp"

namespace p2sim::core {
namespace {

Sp2Config quick() { return Sp2Config::small(/*days=*/8, /*nodes=*/16); }

TEST(Sp2Config, SmallScalesTheMachine) {
  const Sp2Config cfg = Sp2Config::small(10, 32);
  EXPECT_EQ(cfg.driver.days, 10);
  EXPECT_EQ(cfg.driver.num_nodes, 32);
  // Node choices wider than the machine are dropped.
  for (int n : cfg.driver.jobgen.node_choices) EXPECT_LE(n, 32);
  // The day filter keeps the paper's per-node severity.
  EXPECT_NEAR(cfg.table_min_gflops, 2.0 * 32 / 144.0, 1e-12);
}

// small() at the paper's scale is the paper's configuration, so every
// tool builds its config through small() alone.
TEST(Sp2Config, SmallAtPaperScaleIsTheDefault) {
  const Sp2Config paper{};
  const Sp2Config small = Sp2Config::small(util::kCampaignDays, 144);
  EXPECT_EQ(workload::config_fingerprint(small.driver),
            workload::config_fingerprint(paper.driver));
  EXPECT_EQ(small.table_min_gflops, paper.table_min_gflops);
  EXPECT_EQ(small.table_min_coverage, paper.table_min_coverage);
}

TEST(Sp2Simulation, LazyCampaignIsConsistent) {
  Sp2Simulation sim(quick());
  const auto& c1 = sim.campaign();
  const auto& c2 = sim.campaign();
  EXPECT_EQ(&c1, &c2);  // computed once
  EXPECT_EQ(sim.days().size(), static_cast<std::size_t>(8));
}

TEST(Sp2Simulation, TablesComeFromTheCampaign) {
  Sp2Simulation sim(quick());
  const auto t2 = sim.table2();
  EXPECT_EQ(t2.total_days, 8);
  const auto t3 = sim.table3();
  EXPECT_EQ(t3.rows.size(), 17u);
  const auto t4 = sim.table4();
  EXPECT_GT(t4.sequential.cache_miss_ratio, 0.02);
}

TEST(Sp2Simulation, FiguresAreServed) {
  Sp2Simulation sim(quick());
  EXPECT_EQ(sim.fig1().day.size(), 8u);
  EXPECT_FALSE(sim.fig2().bins.empty());
  EXPECT_FALSE(sim.fig3().bins.empty());
  const auto f4 = sim.fig4(16);
  EXPECT_FALSE(f4.job_mflops.empty());
  const auto f5 = sim.fig5();
  EXPECT_FALSE(f5.mflops_per_node.empty());
}

TEST(Sp2Simulation, RunKernelUsesTheConfiguredCore) {
  Sp2Simulation sim(quick());
  const auto r = sim.run_kernel(workload::blocked_matmul());
  EXPECT_GT(r.mflops(), 200.0);
}

TEST(Sp2Simulation, DeterministicAcrossInstances) {
  Sp2Simulation a(quick()), b(quick());
  EXPECT_EQ(a.campaign().jobs.size(), b.campaign().jobs.size());
  EXPECT_DOUBLE_EQ(a.fig1().mean_gflops, b.fig1().mean_gflops);
}

}  // namespace
}  // namespace p2sim::core
