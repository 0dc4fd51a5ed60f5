// Statistical job population generator.
//
// Draws JobSpec + JobProfile pairs matching the populations the paper
// reports: node counts peaked at 16 (then 32 and 8, Figure 2), a wide
// spread of per-code quality (Figure 4's 50-900 Mflops spread on 16
// nodes), wide jobs that oversubscribe memory and page (section 6), and a
// small interactive/benchmark population that the 600-second filter
// removes from the analysis.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/pbs/job.hpp"
#include "src/util/rng.hpp"
#include "src/workload/job_profile.hpp"

namespace p2sim::workload {

struct JobGenConfig {
  /// Node-count choices and weights (defaults reproduce Figure 2's shape).
  std::vector<int> node_choices = {1, 2, 4, 8, 16, 32, 48, 64, 80, 96, 128};
  std::vector<double> node_weights = {4,  3,  6,  14, 22, 15,  4,
                                      6.5, 0.6, 0.45, 0.35};

  /// Runtime draw: lognormal around the median, clamped.
  double runtime_median_s = 2.4 * 3600.0;
  double runtime_sigma = 1.0;
  double runtime_min_s = 90.0;
  double runtime_max_s = 14.0 * 3600.0;

  /// Probability a job is a short interactive/debug session (< 600 s).
  double interactive_prob = 0.18;

  /// Probability a batch job is a development session: dedicated nodes
  /// held for hours while the user edits/compiles/debugs, with the code
  /// actually running only a small fraction of the time.  NAS configured
  /// the machine for code development; these sessions are why machine
  /// utilization (64%) far exceeds what delivered Gflops alone implies.
  double dev_session_prob = 0.25;
  double dev_duty_min = 0.05;
  double dev_duty_max = 0.30;
  int dev_max_nodes = 32;

  /// Memory demand: median per-node MB for narrow jobs; wide jobs (> the
  /// paging_node_threshold) frequently oversubscribe the 128 MB nodes.
  double memory_median_mb = 70.0;
  double memory_sigma = 0.35;
  int paging_node_threshold = 64;
  double wide_paging_prob = 0.75;
  double narrow_paging_prob = 0.04;
  double paging_demand_min = 1.25;  ///< oversubscription draw window
  double paging_demand_max = 2.4;

  /// Paging episodes: memory-hungry campaigns (a user iterating on an
  /// oversized configuration) cluster paging jobs onto particular days —
  /// producing the distinct below-average days of Figure 5 rather than a
  /// thin uniform smear.
  double paging_episode_start_prob = 0.07;  ///< per day
  int paging_episode_min_days = 2;
  int paging_episode_max_days = 5;
  double paging_episode_narrow_prob = 0.45;

  /// Kernel family weights: cfd, mdo, bt, io, strided, naive.
  std::vector<double> family_weights = {0.70, 0.10, 0.08, 0.05, 0.04, 0.03};

  /// Quality distribution of CFD codes (mean ~0.25: mostly codes ported
  /// from other machines without POWER2 tuning, per section 6).
  double quality_mean = 0.22;
  double quality_sigma = 0.18;

  /// Users are persistent: Figure 4 tracks "the history of jobs grouped
  /// by node" on the premise that the same codes resubmit over months.
  /// A batch submission reuses its user's existing code with this
  /// probability (memory demand still redrawn per run — automatic arrays
  /// are sized by the configuration, section 6).
  double code_reuse_prob = 0.65;

  std::uint64_t seed = 0x5EEDB01DULL;
};

class JobGenerator {
 public:
  JobGenerator(const JobGenConfig& cfg, ProfileRegistry& registry);

  /// Draws the next job, submitted at `submit_time_s`, and registers its
  /// profile.  The job depends only on this generator's stream and the
  /// submit time, so a campaign draws its whole job stream up front.
  pbs::JobSpec next(double submit_time_s);

  std::int64_t jobs_generated() const { return next_job_id_ - 1; }
  const JobGenConfig& config() const { return cfg_; }

 private:
  JobProfile make_profile(int nodes, bool interactive);
  /// Redraws the run-dependent memory demand (the section 6 automatic
  /// arrays) for a job on `nodes` nodes.
  void assign_memory(JobProfile& profile, int nodes, bool interactive);
  void update_episode(double submit_time_s);

  JobGenConfig cfg_;
  ProfileRegistry* registry_;  ///< never null
  util::Xoshiro256StarStar rng_;
  std::int64_t next_job_id_ = 1;
  std::int32_t next_user_ = 0;
  std::int64_t last_day_ = -1;
  int episode_days_left_ = 0;
  std::map<std::int32_t, JobProfile> user_codes_;
};

}  // namespace p2sim::workload
