// PBS scheduler model: dedicated-node allocation with queue draining for
// wide jobs.
//
// Section 6: "System administrators could not checkpoint MPI/PVM jobs and
// had to rely upon draining the queues to allow jobs requesting more than
// 64-nodes to execute."  The model implements first-fit-with-backfill under
// normal operation; once a wide job (> drain_threshold nodes) has waited
// past its patience, the scheduler stops backfilling and lets the machine
// drain until the wide job fits.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/pbs/job.hpp"

namespace p2sim::pbs {

struct SchedulerConfig {
  int total_nodes = 144;
  /// Jobs wider than this trigger draining instead of waiting forever.
  int drain_threshold_nodes = 64;
  /// How long a wide job waits in-queue before draining starts.
  double wide_wait_patience_s = 4 * 3600.0;
  /// Counterfactual the paper could not deploy: "System administrators
  /// could not checkpoint MPI/PVM jobs and had to rely upon draining the
  /// queues."  When true, an impatient wide job preempts (checkpoints) the
  /// youngest narrow jobs instead of idling the machine while it drains.
  /// Preempted job ids are reported via take_preempted(); the caller owns
  /// their remaining-runtime state and resubmission.
  bool checkpoint_for_wide = false;
};

/// A job start decision: which nodes the job received and when.
struct StartEvent {
  JobSpec spec;
  std::vector<int> nodes;
  double time_s = 0.0;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& cfg = {});

  void submit(const JobSpec& spec);

  /// Runs the scheduling pass at time `now`: starts every queued job that
  /// policy allows and returns the start events.
  std::vector<StartEvent> schedule(double now);

  /// Publishes the machine-state gauges (queue depth, busy/offline/free
  /// nodes) to the current telemetry session.  Split out of schedule() so
  /// the campaign driver can refresh them once per interval even when a
  /// multi-interval horizon skips the scheduling pass itself; gauge values
  /// must be a function of interval state, never of how intervals were
  /// batched into passes.
  void export_gauges() const;

  /// Releases a running job's nodes (the driver calls this when the job's
  /// runtime elapses).
  void release(std::int64_t job_id);

  /// Jobs checkpointed by the last schedule() pass (their nodes are
  /// already released).  Clears the list.
  std::vector<std::int64_t> take_preempted();

  /// Node crash: takes the node out of service until restore_node().  Any
  /// job holding it is killed — its other nodes are freed and its id
  /// returned so the caller can account the loss (the PBS epilogue never
  /// fires for killed jobs) and requeue if desired.  No-op on an
  /// already-offline node.
  std::vector<std::int64_t> fail_node(int node);
  /// Returns a failed node to the free pool.
  void restore_node(int node);
  bool node_offline(int node) const;
  int offline_nodes() const { return offline_count_; }

  int free_nodes() const { return free_count_; }
  int busy_nodes() const {
    return cfg_.total_nodes - free_count_ - offline_count_;
  }
  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }
  bool draining() const { return draining_; }
  const SchedulerConfig& config() const { return cfg_; }

  /// Nodes held by a running job (empty if unknown).
  std::vector<int> nodes_of(std::int64_t job_id) const;

  /// Checkpoint support: queue order, running allocations, per-node
  /// busy/offline flags and the draining latch all round-trip, so a
  /// restored scheduler makes the same decisions the uninterrupted one
  /// would have.
  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_seq(io, "sched.queue_size", self.queue_, "sched.queued");
    util::ckpt_map(io, "sched.running_size", "sched.running_id",
                   self.running_, [](Io& io2, auto& nodes) {
                     util::ckpt_seq(io2, "sched.running_nodes", nodes,
                                    "sched.running_node");
                   });
    util::ckpt_field(io, "sched.node_busy", self.node_busy_);
    util::ckpt_field(io, "sched.node_offline", self.node_offline_);
    util::ckpt_field(io, "sched.free_count", self.free_count_);
    util::ckpt_field(io, "sched.offline_count", self.offline_count_);
    util::ckpt_field(io, "sched.draining", self.draining_);
    util::ckpt_seq(io, "sched.preempted_size", self.preempted_,
                   "sched.preempted_id");
  }

 private:
  std::vector<int> allocate(int n);

  SchedulerConfig cfg_;
  std::deque<JobSpec> queue_;
  std::map<std::int64_t, std::vector<int>> running_;
  std::vector<bool> node_busy_;
  std::vector<bool> node_offline_;
  int free_count_;
  int offline_count_ = 0;
  bool draining_ = false;
  std::vector<std::int64_t> preempted_;
};

}  // namespace p2sim::pbs
