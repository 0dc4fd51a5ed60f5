#include "src/pbs/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/telemetry/session.hpp"

namespace p2sim::pbs {

Scheduler::Scheduler(const SchedulerConfig& cfg)
    : cfg_(cfg),
      node_busy_(static_cast<std::size_t>(cfg.total_nodes), false),
      node_offline_(static_cast<std::size_t>(cfg.total_nodes), false),
      free_count_(cfg.total_nodes) {
  if (cfg_.total_nodes <= 0) {
    throw std::invalid_argument("scheduler needs >= 1 node");
  }
}

void Scheduler::submit(const JobSpec& spec) {
  if (spec.nodes_requested <= 0 ||
      spec.nodes_requested > cfg_.total_nodes) {
    throw std::invalid_argument("job node request out of range");
  }
  queue_.push_back(spec);
}

std::vector<int> Scheduler::allocate(int n) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < cfg_.total_nodes && static_cast<int>(out.size()) < n;
       ++i) {
    if (!node_busy_[static_cast<std::size_t>(i)] &&
        !node_offline_[static_cast<std::size_t>(i)]) {
      node_busy_[static_cast<std::size_t>(i)] = true;
      out.push_back(i);
    }
  }
  free_count_ -= n;
  return out;
}

std::vector<StartEvent> Scheduler::schedule(double now) {
  std::vector<StartEvent> started;

  // Decide whether a wide job has exhausted its patience.
  draining_ = false;
  int impatient_wide_nodes = 0;
  for (const JobSpec& j : queue_) {
    if (j.nodes_requested > cfg_.drain_threshold_nodes &&
        now - j.submit_time_s >= cfg_.wide_wait_patience_s) {
      draining_ = true;
      impatient_wide_nodes = j.nodes_requested;
      break;
    }
  }

  // Checkpointing counterfactual: instead of idling through a drain,
  // preempt the youngest narrow jobs until the wide job fits.
  if (draining_ && cfg_.checkpoint_for_wide) {
    while (free_count_ < impatient_wide_nodes && !running_.empty()) {
      // Youngest job id = most recently started (ids are monotone).
      auto victim = std::prev(running_.end());
      if (static_cast<int>(victim->second.size()) >
          cfg_.drain_threshold_nodes) {
        break;  // never preempt another wide job
      }
      preempted_.push_back(victim->first);
      release(victim->first);
    }
  }

  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const bool wide = it->nodes_requested > cfg_.drain_threshold_nodes;
      if (draining_) {
        // While draining, only the waiting wide job(s) may start, and only
        // when the machine has freed enough nodes.
        if (!wide) continue;
      }
      if (it->nodes_requested > free_count_) {
        if (draining_ && wide) break;  // keep draining for this job
        continue;                      // backfill: try the next job
      }
      StartEvent ev;
      ev.spec = *it;
      ev.time_s = now;
      ev.nodes = allocate(it->nodes_requested);
      running_.emplace(it->job_id, ev.nodes);
      started.push_back(std::move(ev));
      queue_.erase(it);
      progress = true;
      // Wide job started: normal operation resumes this pass.
      draining_ = false;
      break;
    }
  }
  return started;
}

void Scheduler::export_gauges() const {
  if (auto* tel = telemetry::current()) {
    tel->registry
        .gauge("p2sim_sched_queue_depth", "Jobs waiting in the PBS queue")
        .set(static_cast<double>(queue_.size()));
    tel->registry
        .gauge("p2sim_sched_busy_nodes", "Nodes currently running a job")
        .set(static_cast<double>(cfg_.total_nodes - free_count_ -
                                 offline_count_));
    tel->registry
        .gauge("p2sim_sched_offline_nodes",
               "Nodes out of the pool (crashed, awaiting reboot)")
        .set(static_cast<double>(offline_count_));
    tel->registry
        .gauge("p2sim_sched_free_nodes", "Nodes idle and allocatable")
        .set(static_cast<double>(free_count_));
  }
}

void Scheduler::release(std::int64_t job_id) {
  auto it = running_.find(job_id);
  if (it == running_.end()) {
    throw std::invalid_argument("release: job not running");
  }
  for (int n : it->second) {
    node_busy_[static_cast<std::size_t>(n)] = false;
  }
  free_count_ += static_cast<int>(it->second.size());
  running_.erase(it);
}

std::vector<std::int64_t> Scheduler::fail_node(int node) {
  if (node < 0 || node >= cfg_.total_nodes) {
    throw std::invalid_argument("fail_node: node id out of range");
  }
  const auto n = static_cast<std::size_t>(node);
  if (node_offline_[n]) return {};
  // Kill every job holding the node; release() frees all their nodes.
  std::vector<std::int64_t> killed;
  for (const auto& [id, held] : running_) {
    if (std::find(held.begin(), held.end(), node) != held.end()) {
      killed.push_back(id);
    }
  }
  for (std::int64_t id : killed) release(id);
  // The node itself leaves the pool (release marked it free again).
  node_offline_[n] = true;
  --free_count_;
  ++offline_count_;
  return killed;
}

void Scheduler::restore_node(int node) {
  if (node < 0 || node >= cfg_.total_nodes) {
    throw std::invalid_argument("restore_node: node id out of range");
  }
  const auto n = static_cast<std::size_t>(node);
  if (!node_offline_[n]) return;
  node_offline_[n] = false;
  ++free_count_;
  --offline_count_;
}

bool Scheduler::node_offline(int node) const {
  return node >= 0 && node < cfg_.total_nodes &&
         node_offline_[static_cast<std::size_t>(node)];
}

std::vector<std::int64_t> Scheduler::take_preempted() {
  std::vector<std::int64_t> out;
  out.swap(preempted_);
  return out;
}

std::vector<int> Scheduler::nodes_of(std::int64_t job_id) const {
  auto it = running_.find(job_id);
  return it == running_.end() ? std::vector<int>{} : it->second;
}

}  // namespace p2sim::pbs
