// Deterministic fault injection for the nine-month campaign.
//
// Bergeron's study was a *production* measurement: over 270 days the
// collection stack itself lost data.  Nodes crashed and rebooted (resetting
// their counters to zero), the 15-minute cron daemon missed samples, PBS
// prologue/epilogue scripts failed to fire for killed jobs, and stored
// accounting records rotted on disk.  The paper copes by analyzing only the
// 30 of 270 days that were sufficiently covered; this module reproduces the
// loss processes so the downstream measurement pipeline can demonstrate the
// same degradation tolerance.
//
// Design: every fault decision is a pure function of (seed, fault domain,
// coordinates) — the coordinates are hashed through splitmix64 into a
// one-shot xoshiro256** draw.  Queries are therefore deterministic and
// order-independent: the workload driver's own RNG streams are never
// touched, so a campaign with faults disabled is bit-identical to one run
// before this module existed.
#pragma once

#include <cstdint>
#include <string>

#include "src/check/annotate.hpp"
#include "src/util/rng.hpp"

namespace p2sim::fault {

/// Rates of the modelled failure processes.  All probabilities are per
/// query opportunity (see each field); zero disables that fault class.
struct FaultConfig {
  /// Master switch; false (the default) makes every query return "no
  /// fault" without consuming randomness.
  bool enabled = false;

  /// Expected node crashes per node per day.  A crash takes the node out
  /// of service for `reboot_downtime_intervals` and zeroes its counters —
  /// the monitor state does not survive a reboot.
  double node_crashes_per_node_day = 0.0;
  /// 15-minute intervals a crashed node stays down before rebooting.
  std::int64_t reboot_downtime_intervals = 2;

  /// Probability the cron daemon misses an entire 15-minute sample.
  double interval_miss_prob = 0.0;
  /// Probability a single (up) node is unreachable in one daemon sample.
  double node_sample_loss_prob = 0.0;

  /// Probability the PBS prologue / epilogue script fails for one job run.
  double prologue_loss_prob = 0.0;
  double epilogue_loss_prob = 0.0;

  /// Probability one stored record line is corrupted (see corrupt_records).
  double record_corruption_prob = 0.0;

  /// Seed of the fault schedule; independent of the workload seed.
  std::uint64_t seed = 0x0BAD5EEDULL;

  /// The reference schedule used by the fault_campaign experiment and the
  /// docs: a realistic nine-month outage profile (roughly one crash per
  /// node per two months, 1% missed samples, 2% lost epilogues).
  static FaultConfig reference();
};

/// Deterministic oracle over the fault processes.  Stateless apart from the
/// configuration: the same (seed, coordinates) always gives the same answer.
class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultConfig& cfg);

  bool node_crashes(int node, std::int64_t interval) const;
  bool interval_missed(std::int64_t interval) const;
  /// Lanes query this inside the parallel region (read-only fault view):
  /// the answer is a pure function of (seed, node, interval), so the call
  /// shares no mutable state.  Logging stays a serial-phase concern.
  P2SIM_PAR_SAFE bool node_sample_lost(int node, std::int64_t interval) const;
  /// `attempt` distinguishes requeued runs of the same job id.
  bool prologue_lost(std::int64_t job_id, int attempt = 0) const;
  bool epilogue_lost(std::int64_t job_id, int attempt = 0) const;
  bool record_corrupted(std::int64_t line_index) const;

  const FaultConfig& config() const { return cfg_; }

 private:
  /// Uniform [0,1) draw for one fault decision.  Constructs a one-shot
  /// generator from the hashed coordinates — no stream state survives the
  /// call, which is what makes concurrent lane queries safe.
  P2SIM_PAR_SAFE double draw(std::uint64_t domain, std::uint64_t a,
                             std::uint64_t b) const;

  FaultConfig cfg_;
  double crash_prob_per_interval_ = 0.0;
};

/// Tally of every fault actually injected into a campaign — the ground
/// truth the measurement-loss report must reconcile against.
struct FaultLog {
  std::int64_t node_crashes = 0;
  /// Node-intervals spent out of service (outage duration).
  std::int64_t down_node_intervals = 0;
  /// Whole daemon samples that never happened.
  std::int64_t intervals_missed = 0;
  /// Per-node sample losses during recorded intervals: node was down...
  std::int64_t node_samples_unreachable = 0;
  /// ...or up but its sample was dropped in flight.
  std::int64_t node_samples_lost = 0;
  std::int64_t prologues_lost = 0;
  std::int64_t epilogues_lost = 0;
  /// Jobs killed by a node crash (their epilogues never fire).
  std::int64_t jobs_killed = 0;
  /// Of those, runs that had *also* lost their prologue — needed so the
  /// loss report does not double-count the one incomplete record such a
  /// run produces.
  std::int64_t jobs_killed_sans_prologue = 0;
  std::int64_t jobs_requeued = 0;
  std::int64_t records_corrupted = 0;

  /// Total injected faults (outage durations and requeues are side effects,
  /// not faults of their own).
  std::int64_t total_faults() const {
    return node_crashes + intervals_missed + node_samples_lost +
           prologues_lost + epilogues_lost + records_corrupted;
  }

  /// Checkpoint support.
  void save_ckpt(util::CkptWriter& w) const {
    w.put_i64(node_crashes);
    w.put_i64(down_node_intervals);
    w.put_i64(intervals_missed);
    w.put_i64(node_samples_unreachable);
    w.put_i64(node_samples_lost);
    w.put_i64(prologues_lost);
    w.put_i64(epilogues_lost);
    w.put_i64(jobs_killed);
    w.put_i64(jobs_killed_sans_prologue);
    w.put_i64(jobs_requeued);
    w.put_i64(records_corrupted);
  }
  void restore_ckpt(util::CkptReader& r) {
    node_crashes = r.read_i64("fault_log.node_crashes");
    down_node_intervals = r.read_i64("fault_log.down_node_intervals");
    intervals_missed = r.read_i64("fault_log.intervals_missed");
    node_samples_unreachable =
        r.read_i64("fault_log.node_samples_unreachable");
    node_samples_lost = r.read_i64("fault_log.node_samples_lost");
    prologues_lost = r.read_i64("fault_log.prologues_lost");
    epilogues_lost = r.read_i64("fault_log.epilogues_lost");
    jobs_killed = r.read_i64("fault_log.jobs_killed");
    jobs_killed_sans_prologue =
        r.read_i64("fault_log.jobs_killed_sans_prologue");
    jobs_requeued = r.read_i64("fault_log.jobs_requeued");
    records_corrupted = r.read_i64("fault_log.records_corrupted");
  }
};

/// Campaign-side facade: answers the driver's fault queries from the
/// schedule and tallies every injected fault into a FaultLog.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg) : sched_(cfg) {}

  bool enabled() const { return sched_.config().enabled; }

  /// Query-and-log entry points (log only when the fault fires).
  bool crash_now(int node, std::int64_t interval);
  bool miss_interval(std::int64_t interval);
  bool lose_prologue(std::int64_t job_id, int attempt);
  bool lose_epilogue(std::int64_t job_id, int attempt);

  /// Side-effect bookkeeping the driver reports as it happens.
  void note_node_down() { ++log_.down_node_intervals; }
  void note_node_unreachable() { ++log_.node_samples_unreachable; }
  /// Per-node sample losses: the lanes decide (via the schedule's
  /// node_sample_lost) which samples were lost this interval; the serial
  /// fold reports the tally here so log and telemetry stay exact.
  void note_samples_lost(std::int64_t count);
  void note_job_killed(bool had_prologue) {
    ++log_.jobs_killed;
    if (!had_prologue) ++log_.jobs_killed_sans_prologue;
  }
  void note_job_requeued() { ++log_.jobs_requeued; }

  const FaultLog& log() const { return log_; }
  const FaultSchedule& schedule() const { return sched_; }

  /// Checkpoint support: the schedule is a pure function of its config, so
  /// only the tally needs to round-trip.
  void save_ckpt(util::CkptWriter& w) const { log_.save_ckpt(w); }
  void restore_ckpt(util::CkptReader& r) { log_.restore_ckpt(r); }

 private:
  FaultSchedule sched_;
  FaultLog log_;
};

/// Deterministically corrupts stored record lines in place (storage rot /
/// lossy transfer): each non-header line is mangled with the schedule's
/// `record_corrupted` probability.  Returns the number of lines corrupted.
/// The mutations are exactly the defect classes analysis::record_io must
/// survive: truncation, a non-numeric field, and a lost delimiter.
std::int64_t corrupt_records(std::string& file_contents,
                             const FaultSchedule& schedule);

}  // namespace p2sim::fault
