// Job accounting: the database of per-job counter reports behind the
// paper's batch-job analysis (section 6, Figures 2-4).
//
// Each completed job contributes one record combining PBS facts (nodes,
// times) with the RS2HPM epilogue report.  The analysis in the paper
// examines only jobs exceeding 600 s of wall clock time, "to reduce the
// impact of the interactive sessions" — the same filter is provided here.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/pbs/job.hpp"
#include "src/rs2hpm/job_monitor.hpp"

namespace p2sim::pbs {

struct JobRecord {
  JobSpec spec;
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  rs2hpm::JobCounterReport report;

  double walltime_s() const { return end_time_s - start_time_s; }
  double mflops_per_node() const { return report.mflops_per_node(); }
  double job_mflops() const { return report.job_mflops(); }
  /// A record is analyzable only when its measurement window held: both
  /// snapshots fired and no counter reset mid-job.
  bool complete() const { return report.complete; }

  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "job_record.spec", self.spec);
    util::ckpt_field(io, "job_record.start_time_s", self.start_time_s);
    util::ckpt_field(io, "job_record.end_time_s", self.end_time_s);
    util::ckpt_field(io, "job_record.report", self.report);
  }
};

/// The paper's analysis threshold for batch jobs.
inline constexpr double kMinAnalyzedWalltimeS = 600.0;

class JobDatabase {
 public:
  void add(JobRecord rec) { records_.push_back(std::move(rec)); }
  void reserve(std::size_t n) { records_.reserve(n); }

  const std::vector<JobRecord>& all() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Records whose measurement window broke (lost prologue/epilogue,
  /// killed job, mid-job counter reset); excluded from all analysis.
  std::size_t incomplete_count() const;

  /// Complete jobs exceeding the wall-clock threshold (default: the
  /// paper's 600 s).  Incomplete records are never analyzed.
  std::vector<const JobRecord*> analyzed(
      double min_walltime_s = kMinAnalyzedWalltimeS) const;

  /// Analyzed jobs that requested exactly `nodes` nodes, in start order
  /// (Figure 4 plots these against "batch job number").
  std::vector<const JobRecord*> by_nodes(
      int nodes, double min_walltime_s = kMinAnalyzedWalltimeS) const;

  /// Time-weighted mean Mflops per node over analyzed jobs — the paper's
  /// "time-weighted average for the jobs in this database was 19 Mflops
  /// per node".
  double time_weighted_mflops_per_node(
      double min_walltime_s = kMinAnalyzedWalltimeS) const;

  /// Checkpoint journal support: the database is append-only, so it is
  /// carried entirely by journal sections (the records from `from` on).
  void save_journal(util::CkptWriter& w, std::size_t from) const {
    util::save_journal_section(w, records_, from);
  }
  void replay_journal(util::CkptReader& r) {
    util::replay_journal_section(r, records_, "job_db.records");
  }

 private:
  std::vector<JobRecord> records_;
};

}  // namespace p2sim::pbs
