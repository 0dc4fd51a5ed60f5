// The nine-month campaign driver: ties every substrate together.
//
// The interval step is an explicit phase machine (see kPhases): serial
// phases own all cross-node state — job arrivals from the demand process,
// the PBS scheduling pass, prologue/epilogue accounting, the merged daemon
// record — and the two parallel phases touch only worker-private state,
// sharded statically across DriverConfig::threads worker threads:
//
//   * `measure` runs once, before the first pass: one batch of every cold
//     kernel the campaign's submission schedule names, measured on
//     worker-private cores (each pass adopts its starts' results serially);
//   * `lane-pipeline` drains each per-node lane (NodeLane: node + RNG
//     stream + fault view + daemon probe baseline) end-to-end through the
//     whole horizon — node advance plus the per-node daemon probe — with
//     no shared writes beyond the worker's own tally row.
//
// A *horizon* is the run of consecutive intervals the serial `horizon`
// phase proves free of cross-node events (no queued or arriving jobs, no
// job endings before the last interval, no crash draws, nothing crossing a
// day or checkpoint boundary).  One barrier then advances every lane
// through all of them, and the serial `fold` phase adds the shards'
// integer tallies and tree-merges the lanes' busy seconds in a fixed
// pairwise shape (telemetry::tree_fold), so campaign results, tables,
// figures, loss reports and simulated-time telemetry exports are
// bit-identical for every thread count — and for every horizon split,
// which is what keeps checkpoint cadence and resume invisible in the
// outputs.  threads == 1 bypasses the pool entirely and is the original
// serial driver.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/cluster/nfs.hpp"
#include "src/cluster/node.hpp"
#include "src/cluster/paging.hpp"
#include "src/cluster/switch.hpp"
#include "src/fault/fault.hpp"
#include "src/pbs/accounting.hpp"
#include "src/pbs/scheduler.hpp"
#include "src/power2/signature.hpp"
#include "src/rs2hpm/daemon.hpp"
#include "src/rs2hpm/job_monitor.hpp"
#include "src/telemetry/health.hpp"
#include "src/util/sim_time.hpp"
#include "src/workload/checkpoint.hpp"
#include "src/workload/jobgen.hpp"
#include "src/workload/lane.hpp"

namespace p2sim::workload {

struct DriverConfig {
  int num_nodes = 144;
  std::int64_t days = util::kCampaignDays;

  /// Mean submissions per weekday at demand level 1.0.
  double jobs_per_day = 42.0;
  double weekend_factor = 0.40;
  /// AR(1) demand random walk (per-day): level' = rho*level + noise.
  double demand_walk_rho = 0.90;
  double demand_walk_noise = 0.40;
  double demand_min = 0.15;
  double demand_max = 2.00;
  /// Multi-day demand slumps (holidays, deadlines elsewhere, maintenance):
  /// entered with this per-day probability, lasting 2-7 days at a fraction
  /// of normal demand.  These produce Figure 1's deep valleys.
  double slump_prob_per_day = 0.05;
  double slump_depth_min = 0.10;
  double slump_depth_max = 0.45;

  std::uint64_t seed = 0xC0FFEE42ULL;

  /// Persistent signature store (empty = off).  When set, measured kernel
  /// signatures are loaded from this file at start-up and written back at
  /// the end of the run, so repeated campaigns on the same core config
  /// skip the cycle-accurate signature cold start.  Store hits are
  /// bit-identical to fresh measurement (hexfloat round trip); a corrupt
  /// or mismatched store silently falls back to measuring.
  std::string signature_store_path{};

  /// Worker threads for the parallel phases (signature measurement and the
  /// lane pipeline).  1 (the default) bypasses the pool and runs the
  /// original serial loop; 0 means one thread per hardware core.  Campaign
  /// outputs are bit-identical for every value — the knob trades
  /// wall-clock time only.
  int threads = 1;

  /// Optional per-phase wall-clock sink (see PhaseTimings below); nullptr
  /// costs nothing.  Wall-clock observability only — never results.
  struct PhaseTimings* phase_timings = nullptr;

  /// Fault injection (disabled by default; a disabled-fault campaign is
  /// bit-identical to one run before the fault subsystem existed, because
  /// the schedule never touches the driver's RNG streams).
  fault::FaultConfig faults{};

  /// Live pipeline-health sink, called once per interval after the daemon
  /// sample.  Pure read-side: installing one never perturbs the campaign
  /// (no RNG stream is touched), and nullptr costs one branch.  Not owned.
  telemetry::CampaignObserver* observer = nullptr;

  /// Durable checkpoint/restart (off by default).  Like `threads`, it
  /// trades wall-clock durability only: a checkpointed, killed and resumed
  /// campaign is bit-identical to an uninterrupted one.
  CheckpointConfig checkpoint{};

  /// Columnar campaign archive (empty = off).  When set, the archive
  /// phase appends every interval and job record to an archive::
  /// ArchiveWriter in row-group batches as each pass completes, and run()
  /// commits the file durably at campaign end.  The archive bytes are a
  /// pure function of the record sequence: bit-identical for every thread
  /// count, checkpoint cadence and resume.  Not part of the checkpoint
  /// config fingerprint (a resume may redirect the archive).
  std::string archive_path{};

  pbs::SchedulerConfig sched{};
  cluster::NodeConfig node{};
  cluster::PagingConfig paging{};
  cluster::SwitchConfig hps{};
  cluster::NfsConfig nfs{};
  power2::CoreConfig core{};
  JobGenConfig jobgen{};
};

/// Everything the analysis layer needs.
struct CampaignResult {
  int num_nodes = 0;
  std::int64_t days = 0;
  /// Counter selection the campaign's monitors ran (analysis must match).
  hpm::CounterSelection selection = hpm::CounterSelection::kNasDefault;
  std::vector<rs2hpm::IntervalRecord> intervals;
  pbs::JobDatabase jobs;
  double total_busy_node_seconds = 0.0;
  /// How many 15-minute samples the daemon *should* have produced; with
  /// `intervals.size()` this gives the whole-sample loss rate.
  std::int64_t intervals_expected = 0;
  /// Jobs still running or queued when the campaign window closed (they
  /// produced no accounting record), and how many of the running ones had
  /// already lost their prologue — the loss report needs both to
  /// reconcile record counts against injected faults.
  std::int64_t jobs_open_at_end = 0;
  std::int64_t jobs_open_sans_prologue = 0;
  /// Ground truth of every fault injected into this campaign.
  fault::FaultLog faults;
  /// The signature cache's counters at campaign end (this process only:
  /// a resumed campaign counts from its resume).
  power2::SignatureCache::Stats signature_stats;

  /// Machine utilization over the whole campaign (fraction of node-time
  /// servicing PBS jobs — the paper's 64%).
  double mean_utilization() const {
    const double total = static_cast<double>(num_nodes) *
                         static_cast<double>(days) * 86400.0;
    return total > 0.0 ? total_busy_node_seconds / total : 0.0;
  }
};

class WorkloadDriver {
 public:
  /// The campaign step's phases, in execution order.  Exactly two phases
  /// (kMeasure, kLanePipeline) run on the task pool; every other phase is
  /// serial and owns the cross-node state.  kArrivals also times the
  /// one-off build of the submission schedule and kMeasure runs once,
  /// both before the first pass; the other phases through kFold run once
  /// per *horizon* (a run of intervals proven free of cross-node events);
  /// kEpilogues runs at the horizon's last interval and kCollect/kObserve
  /// replay once per interval from the fold's per-interval outputs.
  enum class Phase {
    kDayRollover,   ///< day-span telemetry rotation (serial)
    kFaults,        ///< reboots, crashes, kills, requeues (serial)
    kArrivals,      ///< schedule build once; submits interval's jobs (serial)
    kScheduling,    ///< PBS pass + adoption of the starts' new kernels (serial)
    kMeasure,       ///< the schedule's cold kernels, once (PARALLEL)
    kLaunch,        ///< job binding + prologue snapshots (serial)
    kHorizon,       ///< safe multi-interval horizon (serial)
    kNfsGrant,      ///< cluster-wide filesystem throttle (serial)
    kLanePipeline,  ///< per-lane advance + probe x horizon (PARALLEL)
    kFold,          ///< deterministic tree merge of lane outputs (serial)
    kEpilogues,     ///< job completion + accounting records (serial)
    kCollect,       ///< merged 15-minute RS2HPM daemon record (serial)
    kObserve,       ///< read-only pipeline-health sample (serial)
    kArchive,       ///< batched record append to the columnar archive (serial)
  };

  struct PhaseInfo {
    Phase phase = Phase::kDayRollover;
    const char* name = "";
    bool parallel = false;
  };
  /// The phase machine, in execution order (documentation + tests).
  static constexpr std::array<PhaseInfo, 14> kPhases{{
      {Phase::kDayRollover, "day-rollover", false},
      {Phase::kFaults, "faults", false},
      {Phase::kArrivals, "arrivals", false},
      {Phase::kScheduling, "scheduling", false},
      {Phase::kMeasure, "measure", true},
      {Phase::kLaunch, "launch", false},
      {Phase::kHorizon, "horizon", false},
      {Phase::kNfsGrant, "nfs-grant", false},
      {Phase::kLanePipeline, "lane-pipeline", true},
      {Phase::kFold, "fold", false},
      {Phase::kEpilogues, "epilogues", false},
      {Phase::kCollect, "collect", false},
      {Phase::kObserve, "observe", false},
      {Phase::kArchive, "archive", false},
  }};
  static const char* phase_name(Phase p) {
    return kPhases[static_cast<std::size_t>(p)].name;
  }

  explicit WorkloadDriver(const DriverConfig& cfg);
  ~WorkloadDriver();

  /// Runs the full campaign.  Deterministic in the config; bit-identical
  /// for every DriverConfig::threads value.
  CampaignResult run();

 private:
  struct Running {
    pbs::JobSpec spec;
    const JobProfile* profile = nullptr;
    const power2::EventSignature* sig = nullptr;
    std::vector<int> nodes;
    double start_s = 0.0;
    double end_s = 0.0;
    /// False when the prologue script was lost: the epilogue then has no
    /// baseline and the job's record is explicitly incomplete.
    bool has_prologue = true;
    /// Which run of this job id this is (requeues bump it so the fault
    /// schedule draws fresh prologue/epilogue outcomes per attempt).
    int attempt = 0;

    /// Checkpoint fields; a restore re-resolves `profile` and `sig`.
    template <class Io, class Self>
    static void ckpt_fields(Io& io, Self& self) {
      util::ckpt_field(io, "campaign.job_spec", self.spec);
      util::ckpt_seq(io, "campaign.job_nodes", self.nodes,
                     "campaign.job_node");
      util::ckpt_field(io, "campaign.job_start_s", self.start_s);
      util::ckpt_field(io, "campaign.job_end_s", self.end_s);
      util::ckpt_field(io, "campaign.job_has_prologue", self.has_prologue);
      util::ckpt_field(io, "campaign.job_attempt", self.attempt);
    }
  };

  /// All campaign state, owned for the duration of run() (defined in
  /// driver.cpp; the phase methods below are its transition functions).
  struct CampaignState;

  cluster::ActivityProfile activity_for(const Running& r,
                                        double disk_grant_fraction) const;

  /// Generates the whole campaign's submission schedule from the config:
  /// rolls the master stream day by day (demand walk, slump, then the
  /// day's Poisson counts in interval order) and draws every arrival from
  /// the campaign's one job generator, in interval order, into the
  /// registry.  A fresh run and a resume build the same schedule.
  P2SIM_SERIAL_ONLY void build_schedule(CampaignState& st);

  P2SIM_SERIAL_ONLY void phase_day_rollover(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_faults(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_arrivals(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_scheduling(CampaignState& st);
  /// Parallel, once per run: measures every kernel of the schedule the
  /// cache lacks on worker-private cores, longest first.  Results wait in
  /// CampaignState::ahead until a scheduling pass adopts them.
  void phase_measure(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_launch(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_horizon(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_nfs_grant(CampaignState& st);
  /// Parallel: each lane drains the whole horizon (advance + probe).
  void phase_lane_pipeline(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_fold(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_epilogues(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_collect(CampaignState& st);
  P2SIM_SERIAL_ONLY void phase_observe(CampaignState& st);
  /// Appends the records the pass produced (daemon intervals, accounting
  /// jobs) to the campaign archive in one row-group batch.  Idempotent
  /// over already-archived prefixes, so a resume replays restored records
  /// into a bit-identical archive.
  P2SIM_SERIAL_ONLY void phase_archive(CampaignState& st);

  /// Called from run() after each interval's phases: announces the
  /// interval to the kill-injection hook and, at the configured cadence,
  /// appends one journal frame and writes one durable checkpoint
  /// generation on it (the first checkpoint of a fresh run starts the
  /// journal, removing stale generations).  A failed write logs and
  /// counts — it never fails the campaign.
  P2SIM_SERIAL_ONLY void maybe_checkpoint(CampaignState& st);
  /// Attempts a resume from DriverConfig::checkpoint: replays the newest
  /// valid generation's journal prefix, restores its live state and
  /// reopens the journal at that prefix.  Returns the first interval the
  /// loop must execute (0 when starting fresh).
  P2SIM_SERIAL_ONLY std::int64_t try_resume(CampaignState& st);

  DriverConfig cfg_;
};

/// Per-phase wall-clock breakdown of one campaign, filled when
/// DriverConfig::phase_timings points here.  Wall-clock observability only
/// (Amdahl accounting for the parallel-speedup bench): the sink never
/// feeds back into the simulation.
struct PhaseTimings {
  /// Accumulated wall microseconds per kPhases entry, by enum index.
  std::array<std::int64_t, WorkloadDriver::kPhases.size()> wall_us{};
  /// Horizon passes executed (phase-machine iterations)...
  std::int64_t horizons = 0;
  /// ...covering this many 15-minute intervals in total.
  std::int64_t intervals = 0;

  std::int64_t total_us() const {
    std::int64_t sum = 0;
    for (std::int64_t us : wall_us) sum += us;
    return sum;
  }
  /// Wall time spent in phases kPhases classifies as serial.
  std::int64_t serial_us() const {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < wall_us.size(); ++i) {
      if (!WorkloadDriver::kPhases[i].parallel) sum += wall_us[i];
    }
    return sum;
  }
};

/// Convenience: run a campaign with the given config.
CampaignResult run_campaign(const DriverConfig& cfg = {});

}  // namespace p2sim::workload
