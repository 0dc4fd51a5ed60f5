#include "src/workload/jobgen.hpp"

#include <gtest/gtest.h>

#include <map>

namespace p2sim::workload {
namespace {

TEST(JobGen, ConfigValidation) {
  ProfileRegistry reg;
  JobGenConfig bad;
  bad.node_weights.pop_back();
  EXPECT_THROW(JobGenerator(bad, reg), std::invalid_argument);
  JobGenConfig bad2;
  bad2.family_weights = {1.0};
  EXPECT_THROW(JobGenerator(bad2, reg), std::invalid_argument);
}

TEST(JobGen, DeterministicForSeed) {
  ProfileRegistry r1, r2;
  JobGenConfig cfg;
  JobGenerator g1(cfg, r1), g2(cfg, r2);
  for (int i = 0; i < 200; ++i) {
    const pbs::JobSpec a = g1.next(i * 100.0);
    const pbs::JobSpec b = g2.next(i * 100.0);
    EXPECT_EQ(a.nodes_requested, b.nodes_requested);
    EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
    EXPECT_DOUBLE_EQ(a.memory_mb_per_node, b.memory_mb_per_node);
  }
}

TEST(JobGen, IdsAreSequential) {
  ProfileRegistry reg;
  JobGenerator g(JobGenConfig{}, reg);
  EXPECT_EQ(g.next(0.0).job_id, 1);
  EXPECT_EQ(g.next(0.0).job_id, 2);
  EXPECT_EQ(g.jobs_generated(), 2);
}

TEST(JobGen, ProfilesRegisteredPerJob) {
  ProfileRegistry reg;
  JobGenerator g(JobGenConfig{}, reg);
  const pbs::JobSpec s = g.next(0.0);
  EXPECT_NO_THROW(reg.get(s.profile_id));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(JobGen, SixteenNodesDominatesBatchJobs) {
  // Figure 2's headline: 16 nodes is the most popular request.
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  cfg.dev_session_prob = 0.0;
  JobGenerator g(cfg, reg);
  std::map<int, int> counts;
  for (int i = 0; i < 5000; ++i) counts[g.next(0.0).nodes_requested]++;
  int best_nodes = 0, best = 0;
  for (const auto& [n, c] : counts) {
    if (c > best) {
      best = c;
      best_nodes = n;
    }
  }
  EXPECT_EQ(best_nodes, 16);
  // Wide jobs are rare ("essentially no wall clock time ... more than 64").
  int wide = 0, total = 0;
  for (const auto& [n, c] : counts) {
    total += c;
    if (n > 64) wide += c;
  }
  EXPECT_LT(static_cast<double>(wide) / total, 0.05);
}

TEST(JobGen, RuntimesWithinBounds) {
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  cfg.dev_session_prob = 0.0;
  JobGenerator g(cfg, reg);
  for (int i = 0; i < 2000; ++i) {
    const pbs::JobSpec s = g.next(0.0);
    EXPECT_GE(s.runtime_s, cfg.runtime_min_s);
    EXPECT_LE(s.runtime_s, cfg.runtime_max_s);
    EXPECT_GE(s.walltime_request_s, s.runtime_s);
  }
}

TEST(JobGen, InteractiveSessionsAreShortAndNarrow) {
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 1.0;
  JobGenerator g(cfg, reg);
  for (int i = 0; i < 500; ++i) {
    const pbs::JobSpec s = g.next(0.0);
    EXPECT_EQ(s.kind, pbs::JobKind::kInteractive);
    EXPECT_LT(s.runtime_s, 600.0);  // removed by the paper's filter
    EXPECT_LE(s.nodes_requested, 4);
  }
}

TEST(JobGen, WideJobsUsuallyOversubscribeMemory) {
  // Section 6: jobs beyond 64 nodes were paging.
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  cfg.dev_session_prob = 0.0;
  cfg.node_choices = {128};
  cfg.node_weights = {1.0};
  JobGenerator g(cfg, reg);
  int paging = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    if (g.next(0.0).memory_mb_per_node > 128.0) ++paging;
  }
  EXPECT_NEAR(static_cast<double>(paging) / n, cfg.wide_paging_prob, 0.06);
}

TEST(JobGen, NarrowJobsRarelyPageOutsideEpisodes) {
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  cfg.dev_session_prob = 0.0;
  cfg.paging_episode_start_prob = 0.0;  // no episodes
  cfg.node_choices = {16};
  cfg.node_weights = {1.0};
  JobGenerator g(cfg, reg);
  int paging = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (g.next(0.0).memory_mb_per_node > 128.0) ++paging;
  }
  EXPECT_NEAR(static_cast<double>(paging) / n, cfg.narrow_paging_prob, 0.025);
}

TEST(JobGen, PagingEpisodesClusterByDay) {
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  cfg.dev_session_prob = 0.0;
  cfg.paging_episode_start_prob = 1.0;  // always in an episode
  cfg.paging_episode_narrow_prob = 1.0;
  cfg.node_choices = {16};
  cfg.node_weights = {1.0};
  JobGenerator g(cfg, reg);
  // Advance past day 0 (episodes start at day boundaries).
  g.next(0.0);
  int paging = 0;
  for (int i = 0; i < 100; ++i) {
    if (g.next(90000.0).memory_mb_per_node > 128.0) ++paging;
  }
  EXPECT_EQ(paging, 100);
}

TEST(JobGen, DevSessionsHaveLowDutyCycle) {
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  cfg.dev_session_prob = 1.0;
  JobGenerator g(cfg, reg);
  for (int i = 0; i < 200; ++i) {
    const pbs::JobSpec s = g.next(0.0);
    const JobProfile& p = reg.get(s.profile_id);
    EXPECT_EQ(p.family, "dev");
    EXPECT_GE(p.duty_cycle, cfg.dev_duty_min);
    EXPECT_LE(p.duty_cycle, cfg.dev_duty_max);
    EXPECT_LE(s.nodes_requested, cfg.dev_max_nodes);
  }
}

TEST(JobGen, ProfilesCarryCommunicationModel) {
  ProfileRegistry reg;
  JobGenConfig cfg;
  cfg.interactive_prob = 0.0;
  JobGenerator g(cfg, reg);
  for (int i = 0; i < 200; ++i) {
    const JobProfile& p = reg.get(g.next(0.0).profile_id);
    EXPECT_GE(p.comm_fraction_base, 0.0);
    EXPECT_LT(p.comm_fraction_base, 1.0);
    EXPECT_GT(p.msg_bytes_per_s, 0.0);
    EXPECT_GT(p.imbalance_efficiency, 0.5);
    EXPECT_LE(p.imbalance_efficiency, 1.0);
    // Comm share grows (weakly) with node count and stays bounded.
    EXPECT_LE(p.comm_fraction(144), 0.9);
    EXPECT_GE(p.comm_fraction(144), p.comm_fraction(16) - 1e-12);
    EXPECT_EQ(p.comm_fraction(1), 0.0);
  }
}

TEST(ProfileRegistry, UnknownIdThrows) {
  ProfileRegistry reg;
  EXPECT_THROW(reg.get(42), std::out_of_range);
}

}  // namespace
}  // namespace p2sim::workload
