// Per-job monitoring (section 3, "Batch job data collection"; Saphir 1996).
//
// PBS runs a prologue script before each job and an epilogue after it; the
// scripts know which nodes the job holds and snapshot their counters at both
// ends.  The difference, divided by the job's wall time, is the job's
// counter report — the database behind Figures 2, 3 and 4.
//
// In production both scripts can fail: the prologue rsh times out, a node
// crashes mid-job (its counters restart from zero), or the job is killed
// and its epilogue never fires.  Every such path produces an explicitly
// *incomplete* report (complete == false, deltas only over the nodes whose
// counters stayed monotone) instead of aborting or wrapping uint64 deltas;
// the accounting layer excludes incomplete reports from analysis.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/rs2hpm/derived.hpp"
#include "src/rs2hpm/snapshot.hpp"

namespace p2sim::rs2hpm {

/// What the epilogue writes "to a file for later processing".
struct JobCounterReport {
  std::int64_t job_id = 0;
  int nodes = 0;
  double elapsed_s = 0.0;
  ModeTotals delta;               ///< summed over the job's monotone nodes
  std::uint64_t quad_surplus = 0;

  /// False when the measurement window is broken: lost prologue/epilogue,
  /// or a counter reset on >= 1 node mid-job.  Incomplete reports carry
  /// whatever facts survive (id, nodes, elapsed time, partial deltas) but
  /// are excluded from rate analysis.
  bool complete = true;
  /// Nodes whose counters went backwards over the job window (rebooted);
  /// their contribution is dropped, never wrapped.
  int nodes_reset = 0;

  /// Whole-job rates (per node: divide by `nodes`).
  DerivedRates rates() const {
    return derive_rates(delta, elapsed_s, quad_surplus);
  }
  /// Job Mflops aggregated over all its nodes (Figure 4's y-axis).
  double job_mflops() const { return rates().mflops_all; }
  /// Mflops per node (Figure 3's y-axis).
  double mflops_per_node() const {
    return nodes > 0 ? job_mflops() / nodes : 0.0;
  }

  /// A report for a job whose measurement never happened (lost prologue,
  /// or killed before any snapshot): zero deltas, complete == false.
  static JobCounterReport incomplete(std::int64_t job_id, int nodes,
                                     double elapsed_s);

  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "job_report.job_id", self.job_id);
    util::ckpt_field(io, "job_report.nodes", self.nodes);
    util::ckpt_field(io, "job_report.elapsed_s", self.elapsed_s);
    util::ckpt_field(io, "job_report.delta", self.delta);
    util::ckpt_field(io, "job_report.quad_surplus", self.quad_surplus);
    util::ckpt_field(io, "job_report.complete", self.complete);
    util::ckpt_field(io, "job_report.nodes_reset", self.nodes_reset);
  }
};

class JobMonitor {
 public:
  /// Prologue: records each held node's sample at job start.
  void prologue(std::int64_t job_id, double start_s,
                std::span<const NodeSample> nodes);

  /// Epilogue: forms the per-node deltas and returns the report.  The job
  /// must have an outstanding prologue; `nodes` must match its node count.
  /// Nodes whose counters are non-monotone over the window (reset by a
  /// reboot) are dropped from the delta and the report marked incomplete.
  JobCounterReport epilogue(std::int64_t job_id, double end_s,
                            std::span<const NodeSample> nodes);

  /// The epilogue never ran (job killed, script lost): closes the open
  /// prologue and returns an explicitly incomplete report with no deltas.
  JobCounterReport abandon(std::int64_t job_id, double end_s);

  bool pending(std::int64_t job_id) const {
    return open_.contains(job_id);
  }
  std::size_t pending_count() const { return open_.size(); }

  /// Checkpoint fields: every open prologue window round-trips so the
  /// matching epilogue forms the same deltas after a resume.
  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_map(io, "jobmon.open_size", "jobmon.job_id", self.open_,
                   "jobmon.open");
  }

 private:
  struct Open {
    double start_s = 0.0;
    std::vector<NodeSample> nodes;

    template <class Io, class Self>
    static void ckpt_fields(Io& io, Self& self) {
      util::ckpt_field(io, "jobmon.start_s", self.start_s);
      util::ckpt_seq(io, "jobmon.node_count", self.nodes, "jobmon.node");
    }
  };
  std::map<std::int64_t, Open> open_;
};

}  // namespace p2sim::rs2hpm
