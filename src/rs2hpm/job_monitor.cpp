#include "src/rs2hpm/job_monitor.hpp"

#include <stdexcept>

#include "src/check/check.hpp"
#include "src/telemetry/session.hpp"

namespace p2sim::rs2hpm {
namespace {

/// Zero-duration marker span on the campaign timeline (prologue/epilogue
/// script firings are instantaneous at interval resolution).
void mark(const char* name, double sim_s, std::int64_t job_id) {
  auto span = telemetry::span("rs2hpm", name, sim_s);
  span.arg("job_id", static_cast<double>(job_id));
  span.close(sim_s);
}

}  // namespace

JobCounterReport JobCounterReport::incomplete(std::int64_t job_id, int nodes,
                                              double elapsed_s) {
  JobCounterReport rep;
  rep.job_id = job_id;
  rep.nodes = nodes;
  rep.elapsed_s = elapsed_s;
  rep.complete = false;
  return rep;
}

void JobMonitor::prologue(std::int64_t job_id, double start_s,
                          std::span<const NodeSample> nodes) {
  if (nodes.empty()) throw std::invalid_argument("prologue: no nodes");
  if (open_.contains(job_id)) {
    throw std::invalid_argument("prologue: job already open");
  }
  Open o;
  o.start_s = start_s;
  o.nodes.assign(nodes.begin(), nodes.end());
  open_.emplace(job_id, std::move(o));
  mark("job_prologue", start_s, job_id);
}

JobCounterReport JobMonitor::epilogue(std::int64_t job_id, double end_s,
                                      std::span<const NodeSample> nodes) {
  auto it = open_.find(job_id);
  if (it == open_.end()) {
    throw std::invalid_argument("epilogue: no prologue for job");
  }
  const Open& o = it->second;
  if (nodes.size() != o.nodes.size()) {
    throw std::invalid_argument("epilogue: node count changed");
  }
  JobCounterReport rep;
  rep.job_id = job_id;
  rep.nodes = static_cast<int>(o.nodes.size());
  rep.elapsed_s = end_s - o.start_s;
  P2SIM_CHECK(rep.elapsed_s >= 0.0,
              "epilogue cannot precede the job's prologue");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // A node that rebooted mid-job restarted its counters from zero: the
    // guard drops it, and the report is marked incomplete.
    if (!add_delta_if_monotone(o.nodes[i], nodes[i].totals, nodes[i].quad,
                               rep.delta, rep.quad_surplus)) {
      ++rep.nodes_reset;
      rep.complete = false;
    }
  }
  open_.erase(it);
  mark("job_epilogue", end_s, job_id);
  if (!rep.complete) {
    if (auto* tel = telemetry::current()) {
      tel->registry
          .counter("p2sim_jobmon_reports_incomplete_total",
                   "Epilogue reports degraded by a mid-job counter reset")
          .inc();
    }
  }
  return rep;
}

JobCounterReport JobMonitor::abandon(std::int64_t job_id, double end_s) {
  auto it = open_.find(job_id);
  if (it == open_.end()) {
    throw std::invalid_argument("abandon: no prologue for job");
  }
  JobCounterReport rep = JobCounterReport::incomplete(
      job_id, static_cast<int>(it->second.nodes.size()),
      end_s - it->second.start_s);
  open_.erase(it);
  mark("job_abandoned", end_s, job_id);
  if (auto* tel = telemetry::current()) {
    tel->registry
        .counter("p2sim_jobmon_jobs_abandoned_total",
                 "Open jobs abandoned without a usable epilogue")
        .inc();
  }
  return rep;
}

void JobMonitor::save_ckpt(util::CkptWriter& w) const {
  w.put_u64(open_.size());
  for (const auto& [id, o] : open_) {
    w.put_i64(id);
    w.put_f64(o.start_s);
    w.put_u64(o.nodes.size());
    for (const NodeSample& n : o.nodes) n.save_ckpt(w);
  }
}

void JobMonitor::restore_ckpt(util::CkptReader& r) {
  open_.clear();
  std::uint64_t n = r.read_u64("jobmon.open_size");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t id = r.read_i64("jobmon.job_id");
    Open o;
    o.start_s = r.read_f64("jobmon.start_s");
    std::uint64_t nn = r.read_u64("jobmon.node_count");
    o.nodes.resize(static_cast<std::size_t>(nn));
    for (NodeSample& n : o.nodes) n.restore_ckpt(r);
    open_.emplace(id, std::move(o));
  }
}

}  // namespace p2sim::rs2hpm
