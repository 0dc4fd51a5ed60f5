#include "src/workload/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/archive/writer.hpp"
#include "src/check/check.hpp"
#include "src/check/invariants.hpp"
#include "src/rs2hpm/derived.hpp"
#include "src/telemetry/fold.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/task_pool.hpp"

namespace p2sim::workload {

WorkloadDriver::WorkloadDriver(const DriverConfig& cfg) : cfg_(cfg) {
  if (cfg_.num_nodes <= 0) throw std::invalid_argument("num_nodes must be > 0");
  if (cfg_.days <= 0) throw std::invalid_argument("days must be > 0");
  if (cfg_.jobs_per_day < 0.0) {
    throw std::invalid_argument("jobs_per_day must be >= 0");
  }
  if (cfg_.demand_min > cfg_.demand_max) {
    throw std::invalid_argument("demand bounds inverted");
  }
  if (cfg_.slump_depth_min > cfg_.slump_depth_max ||
      cfg_.slump_depth_min < 0.0 || cfg_.slump_depth_max > 1.0) {
    throw std::invalid_argument("slump depth bounds invalid");
  }
  if (cfg_.threads < 0) {
    throw std::invalid_argument("threads must be >= 0 (0 = hardware)");
  }
}

WorkloadDriver::~WorkloadDriver() = default;

cluster::ActivityProfile WorkloadDriver::activity_for(
    const Running& r, double disk_grant_fraction) const {
  const cluster::PagingModel paging(cfg_.paging);
  const cluster::PagingState pg = paging.evaluate(r.profile->memory_mb_per_node);
  const cluster::HpsSwitch sw(cfg_.hps);
  const double comm =
      r.profile->comm_fraction(static_cast<int>(r.nodes.size()), sw);

  cluster::ActivityProfile a;
  const double active = r.profile->imbalance_efficiency * r.profile->duty_cycle;
  a.compute_fraction = (1.0 - comm) * active * pg.user_slowdown;
  // Wait-state accounting for the kWaitStates counter selection: the share
  // of wall time blocked on messages (communication plus synchronization
  // imbalance) and on fault/disk service.
  a.comm_wait_fraction =
      comm * active + (1.0 - r.profile->imbalance_efficiency) *
                          r.profile->duty_cycle * (1.0 - comm);
  a.io_wait_fraction = (1.0 - comm) * active * (1.0 - pg.user_slowdown);
  // Message traffic: what the node pushes/pulls through the adapter.
  // Receives run somewhat below sends (reductions fan in).
  a.comm_send_bytes_per_s = r.profile->msg_bytes_per_s;
  a.comm_recv_bytes_per_s = 0.7 * r.profile->msg_bytes_per_s;
  a.disk_read_bytes_per_s =
      r.profile->disk_read_bytes_per_s * disk_grant_fraction;
  a.disk_write_bytes_per_s =
      r.profile->disk_write_bytes_per_s * disk_grant_fraction;
  a.page_faults_per_s = pg.fault_rate;
  return a;
}

/// Every piece of campaign state, constructed once per run().  The serial
/// phases own all of it; the parallel phases touch only `lanes` (one lane
/// per worker, statically sharded), the look-ahead measurement slots, and
/// the immutable inputs.
struct WorkloadDriver::CampaignState {
  /// One interval's fleet-wide probe results, tree-merged from the lanes'
  /// samples by the fold phase and consumed by the collect post-pass.
  struct MergedInterval {
    rs2hpm::ModeTotals delta;
    std::uint64_t quad_surplus = 0;
    int sampled = 0;
    int reprimed = 0;
    int newly_primed = 0;
    int down = 0;
    int lost = 0;
    double busy_s = 0.0;
  };

  explicit CampaignState(const DriverConfig& cfg)
      : interval_s(static_cast<double>(util::kIntervalSeconds)),
        total_intervals(cfg.days * util::kIntervalsPerDay),
        sched([&] {
          pbs::SchedulerConfig sc = cfg.sched;
          sc.total_nodes = cfg.num_nodes;
          return sc;
        }()),
        gen([&] {
          JobGenConfig gc = cfg.jobgen;
          gc.seed ^= cfg.seed;
          return gc;
        }(), registry),
        signatures(cfg.core,
                   power2::SignatureStoreConfig{cfg.signature_store_path}),
        daemon(static_cast<std::size_t>(cfg.num_nodes)),
        nfs(cfg.nfs),
        rng(cfg.seed),
        inject(cfg.faults),
        down_until(static_cast<std::size_t>(cfg.num_nodes), 0),
        node_job(static_cast<std::size_t>(cfg.num_nodes), nullptr),
        pool(cfg.threads) {
    cluster::NodeConfig node_cfg = cfg.node;
    node_cfg.fault_fxu_inst = cfg.paging.fxu_inst_per_fault;
    node_cfg.fault_icu_inst = cfg.paging.icu_inst_per_fault;
    node_cfg.fault_cycles = cfg.paging.cycles_per_fault;
    node_cfg.page_bytes = cfg.paging.page_bytes;
    lanes.reserve(static_cast<std::size_t>(cfg.num_nodes));
    const fault::FaultSchedule* view =
        inject.enabled() ? &inject.schedule() : nullptr;
    for (int i = 0; i < cfg.num_nodes; ++i) {
      lanes.emplace_back(i, node_cfg, cfg.seed, view);
    }
    result.num_nodes = cfg.num_nodes;
    result.days = cfg.days;
    result.selection = node_cfg.monitor.selection;
    if (!cfg.archive_path.empty()) {
      archive_writer = std::make_unique<archive::ArchiveWriter>();
    }
  }

  NodeLane& lane(int n) { return lanes[static_cast<std::size_t>(n)]; }
  cluster::Node& node(int n) { return lane(n).node; }

  /// Serializes every accumulated campaign quantity at an interval
  /// boundary (per-pass scratch and the worker pool are excluded: the next
  /// pass rewrites them).  The restore side re-resolves the
  /// profile/signature pointers and rebuilds node_job, then demands the
  /// stream be fully consumed.
  void save_ckpt(util::CkptWriter& w) const;
  void restore_ckpt(util::CkptReader& r);

  /// Snapshot spans over the nodes a job holds (prologue/epilogue input).
  std::pair<std::vector<rs2hpm::ModeTotals>, std::vector<std::uint64_t>>
  job_spans(const std::vector<int>& held) {
    std::pair<std::vector<rs2hpm::ModeTotals>, std::vector<std::uint64_t>> out;
    for (int n : held) {
      out.first.push_back(node(n).totals());
      out.second.push_back(node(n).quad_total());
    }
    return out;
  }

  // --- fixed campaign parameters -----------------------------------------
  double interval_s;
  std::int64_t total_intervals;

  // --- substrate instances (serial-phase property) -----------------------
  pbs::Scheduler sched;
  ProfileRegistry registry;
  JobGenerator gen;
  power2::SignatureCache signatures;
  rs2hpm::SamplingDaemon daemon;
  rs2hpm::JobMonitor jobmon;
  cluster::NfsModel nfs;

  /// Master RNG stream: owned by the serial arrivals phase (demand walk,
  /// slumps, Poisson arrivals).  Never consulted per node — per-node draws
  /// belong to the lanes' private streams.
  util::Xoshiro256StarStar rng;
  double demand_level = 1.0;
  int slump_days_left = 0;
  double slump_depth = 1.0;

  /// The current day's Poisson arrival counts, drawn from the master
  /// stream at the day's first interval (right after the demand walk, in
  /// interval order): day_arrivals[k] is the count for interval
  /// day * kIntervalsPerDay + k.  Intervals below arrivals_drawn_until
  /// have had their draw taken from the stream.
  std::vector<std::uint64_t> day_arrivals =
      std::vector<std::uint64_t>(util::kIntervalsPerDay, 0);
  std::int64_t arrivals_drawn_until = 0;

  fault::FaultInjector inject;
  /// Interval at which each crashed node reboots (node is down while
  /// t < down_until[n]; a node that never crashed has 0 and is up).
  std::vector<std::int64_t> down_until;
  /// Requeue counts per job id: the attempt number varies the fault
  /// schedule's prologue/epilogue draws across reruns of the same job.
  std::map<std::int64_t, int> attempts;

  std::map<std::int64_t, Running> running;  // by job id
  std::vector<const Running*> node_job;

  CampaignResult result;

  // --- the campaign archive (serial-phase property) ----------------------
  /// Columnar record sink (null = off).  The archive phase appends the
  /// records each pass produced; run() commits the file at campaign end.
  /// Deliberately NOT checkpointed: a resume replays every restored
  /// record through the writer (archived_* restart at 0), and chunk
  /// boundaries depend only on row counts, so the committed bytes are
  /// bit-identical with or without a mid-campaign restart.
  std::unique_ptr<archive::ArchiveWriter> archive_writer;
  std::size_t archived_intervals = 0;
  std::size_t archived_jobs = 0;

  // --- the parallel substrate --------------------------------------------
  std::vector<NodeLane> lanes;
  util::TaskPool pool;

  // Cumulative job-flow tallies: fed to the health observer every interval
  // and mirrored into telemetry counters at the events themselves.
  std::int64_t jobs_dispatched = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_requeued = 0;
  telemetry::Span day_span;

  // --- per-pass scratch, written by the phases in order ------------------
  std::int64_t t = 0;
  double now = 0.0;
  std::int64_t day = 0;
  double grant = 0.0;
  /// Start events of this pass, produced by scheduling and consumed (with
  /// their measurement plan) by the measure and launch phases.
  std::vector<pbs::StartEvent> starts;
  std::vector<power2::KernelDesc> measure_plan;
  /// Look-ahead measurement: the arrivals phase plans the kernels of every
  /// job the day will submit that neither the cache nor `ahead` holds; the
  /// measure phase measures them in one parallel batch into `ahead`, keyed
  /// by content hash.  Results enter the cache only when a launch adopts
  /// them, so the cache, the store and the telemetry never see a kernel
  /// earlier than on-demand measurement would have.  Not checkpointed: a
  /// resume plans the rest of its day again, and the results are pure
  /// functions of (core config, kernel).
  std::vector<power2::KernelDesc> ahead_plan;
  std::map<std::uint64_t, power2::QuietMeasurement> ahead;
  /// This pass's extent: intervals [horizon_first, horizon_first + horizon).
  std::int64_t horizon = 1;
  std::int64_t horizon_first = 0;
  /// miss[k] != 0 marks horizon offset k as a whole-interval cron miss.
  std::vector<std::uint8_t> miss;
  /// Fleet-wide merge of the lanes' probe samples, one per horizon offset.
  std::vector<MergedInterval> merged;
  // --- per-interval scratch (collect/observe post-pass) ------------------
  double busy_node_seconds = 0.0;
  std::size_t records_before = 0;
  int busy_now = 0;
};

void WorkloadDriver::CampaignState::save_ckpt(util::CkptWriter& w) const {
  w.put_i64(t);
  rng.save_ckpt(w);
  w.put_f64(demand_level);
  w.put_i32(slump_days_left);
  w.put_f64(slump_depth);
  // The day's drawn arrival counts travel with the master stream: draws
  // already taken must not be redrawn after a resume.  Saved as the counts
  // of [t + 1, arrivals_drawn_until), then their base and end.
  const std::int64_t next_t = t + 1;
  const std::int64_t day_first =
      next_t / util::kIntervalsPerDay * util::kIntervalsPerDay;
  const std::int64_t pending_end = std::max(next_t, arrivals_drawn_until);
  w.put_u64(static_cast<std::uint64_t>(pending_end - next_t));
  for (std::int64_t u = next_t; u < pending_end; ++u) {
    w.put_u64(day_arrivals[static_cast<std::size_t>(u - day_first)]);
  }
  w.put_i64(next_t);
  w.put_i64(pending_end);
  w.put_i64(jobs_dispatched);
  w.put_i64(jobs_completed);
  w.put_i64(jobs_requeued);
  for (std::int64_t until : down_until) w.put_i64(until);
  w.put_u64(attempts.size());
  for (const auto& [id, attempt] : attempts) {
    w.put_i64(id);
    w.put_i32(attempt);
  }
  sched.save_ckpt(w);
  registry.save_ckpt(w);
  gen.save_ckpt(w);
  signatures.save_ckpt(w);
  daemon.save_ckpt(w);
  jobmon.save_ckpt(w);
  nfs.save_ckpt(w);
  inject.save_ckpt(w);
  w.put_u64(lanes.size());
  for (const NodeLane& lane : lanes) {
    lane.node.save_ckpt(w);
    lane.rng.save_ckpt(w);
    lane.probe_prev.save_ckpt(w);
    w.put_u64(lane.probe_prev_quad);
    w.put_bool(lane.probe_primed);
  }
  w.put_u64(running.size());
  for (const auto& [id, r] : running) {
    r.spec.save_ckpt(w);
    w.put_u64(r.nodes.size());
    for (int n : r.nodes) w.put_i32(n);
    w.put_f64(r.start_s);
    w.put_f64(r.end_s);
    w.put_bool(r.has_prologue);
    w.put_i32(r.attempt);
  }
  w.put_f64(result.total_busy_node_seconds);
  result.jobs.save_ckpt(w);
  // Telemetry rides along as a nested length-prefixed blob so a session
  // without telemetry can skip it wholesale (the blob is still read, so
  // the stream stays in sync).
  const telemetry::Session* tel = telemetry::current();
  w.put_bool(tel != nullptr);
  {
    util::CkptWriter nested;
    if (tel != nullptr) {
      nested.put_f64(tel->engine_clock_s);
      tel->registry.save_ckpt(nested);
      tel->tracer.save_ckpt(nested);
    }
    w.put_str(nested.bytes());
  }
  day_span.save_ckpt(w);
}

void WorkloadDriver::CampaignState::restore_ckpt(util::CkptReader& r) {
  t = r.read_i64("campaign.t");
  rng.restore_ckpt(r);
  demand_level = r.read_f64("campaign.demand_level");
  slump_days_left = r.read_i32("campaign.slump_days_left");
  slump_depth = r.read_f64("campaign.slump_depth");
  std::vector<std::uint64_t> pending(
      static_cast<std::size_t>(r.read_u64("campaign.pending_arrivals")));
  for (std::uint64_t& c : pending) c = r.read_u64("campaign.pending_arrival");
  const std::int64_t pending_base = r.read_i64("campaign.pending_base");
  arrivals_drawn_until = r.read_i64("campaign.arrivals_drawn_until");
  if (arrivals_drawn_until - pending_base !=
          static_cast<std::int64_t>(pending.size()) ||
      (!pending.empty() &&
       (pending_base / util::kIntervalsPerDay !=
        (arrivals_drawn_until - 1) / util::kIntervalsPerDay))) {
    throw util::CkptError("campaign.pending_arrivals: not within one day");
  }
  std::fill(day_arrivals.begin(), day_arrivals.end(), 0);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    day_arrivals[static_cast<std::size_t>(
        (pending_base + static_cast<std::int64_t>(i)) %
        util::kIntervalsPerDay)] = pending[i];
  }
  jobs_dispatched = r.read_i64("campaign.jobs_dispatched");
  jobs_completed = r.read_i64("campaign.jobs_completed");
  jobs_requeued = r.read_i64("campaign.jobs_requeued");
  for (std::int64_t& until : down_until) {
    until = r.read_i64("campaign.down_until");
  }
  attempts.clear();
  std::uint64_t num_attempts = r.read_u64("campaign.attempts");
  for (std::uint64_t i = 0; i < num_attempts; ++i) {
    const std::int64_t id = r.read_i64("campaign.attempt_id");
    attempts[id] = r.read_i32("campaign.attempt_count");
  }
  sched.restore_ckpt(r);
  registry.restore_ckpt(r);
  gen.restore_ckpt(r);
  signatures.restore_ckpt(r);
  daemon.restore_ckpt(r);
  jobmon.restore_ckpt(r);
  nfs.restore_ckpt(r);
  inject.restore_ckpt(r);
  const std::uint64_t num_lanes = r.read_u64("campaign.lanes");
  if (num_lanes != lanes.size()) {
    throw util::CkptError("campaign.lanes: node count mismatch");
  }
  for (NodeLane& lane : lanes) {
    lane.node.restore_ckpt(r);
    lane.rng.restore_ckpt(r);
    lane.probe_prev.restore_ckpt(r);
    lane.probe_prev_quad = r.read_u64("campaign.lane_probe_quad");
    lane.probe_primed = r.read_bool("campaign.lane_probe_primed");
  }
  running.clear();
  std::fill(node_job.begin(), node_job.end(), nullptr);
  const std::uint64_t num_running = r.read_u64("campaign.running");
  for (std::uint64_t i = 0; i < num_running; ++i) {
    Running rj;
    rj.spec.restore_ckpt(r);
    const std::uint64_t num_held = r.read_u64("campaign.job_nodes");
    rj.nodes.resize(static_cast<std::size_t>(num_held));
    for (int& n : rj.nodes) n = r.read_i32("campaign.job_node");
    rj.start_s = r.read_f64("campaign.job_start_s");
    rj.end_s = r.read_f64("campaign.job_end_s");
    rj.has_prologue = r.read_bool("campaign.job_has_prologue");
    rj.attempt = r.read_i32("campaign.job_attempt");
    running.emplace(rj.spec.job_id, std::move(rj));
  }
  // Pointer re-resolution: profiles and signatures live in the restored
  // registry/cache, so the map lookups reproduce the original pointers'
  // referents exactly.
  for (auto& [id, rj] : running) {
    rj.profile = &registry.get(rj.spec.profile_id);
    rj.sig = &signatures.get(rj.profile->kernel);
    for (int n : rj.nodes) {
      node_job[static_cast<std::size_t>(n)] = &rj;
    }
  }
  result.total_busy_node_seconds = r.read_f64("campaign.busy_node_seconds");
  result.jobs.restore_ckpt(r);
  telemetry::Session* tel = telemetry::current();
  const bool saved_telemetry = r.read_bool("campaign.has_telemetry");
  const std::string blob = r.read_str("campaign.telemetry_blob");
  if (saved_telemetry && tel != nullptr) {
    util::CkptReader nested(blob);
    tel->engine_clock_s = nested.read_f64("campaign.engine_clock_s");
    tel->registry.restore_ckpt(nested);
    tel->tracer.restore_ckpt(nested);
    nested.expect_end("campaign.telemetry_blob");
  }
  day_span = telemetry::Span::adopt_ckpt(
      tel != nullptr ? &tel->tracer : nullptr, r);
  r.expect_end("campaign");
}

double WorkloadDriver::arrival_lambda(const CampaignState& st) const {
  const double day_factor =
      (util::is_weekend(st.day) ? cfg_.weekend_factor : 1.0) *
      (st.slump_days_left > 0 ? st.slump_depth : 1.0);
  return cfg_.jobs_per_day * day_factor * st.demand_level /
         static_cast<double>(util::kIntervalsPerDay);
}

void WorkloadDriver::phase_day_rollover(CampaignState& st) {
  if (st.t % util::kIntervalsPerDay != 0) return;
  if (st.day_span.open()) st.day_span.close(st.now);
  st.day_span = telemetry::span("workload", "campaign_day", st.now);
  st.day_span.arg("day", static_cast<double>(st.day));
}

void WorkloadDriver::phase_faults(CampaignState& st) {
  if (!st.inject.enabled()) return;
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    const auto ni = static_cast<std::size_t>(n);
    if (!st.node(n).is_up() && st.t >= st.down_until[ni]) {
      st.node(n).reboot();  // counters stay zeroed: non-monotone on purpose
      st.sched.restore_node(n);
    }
    if (st.node(n).is_up() && st.inject.crash_now(n, st.t)) {
      st.node(n).crash();
      st.down_until[ni] = st.t + cfg_.faults.reboot_downtime_intervals;
      // Every job holding the node dies; its epilogue never fires.
      for (std::int64_t id : st.sched.fail_node(n)) {
        Running& r = st.running.at(id);
        st.inject.note_job_killed(r.has_prologue);
        pbs::JobRecord rec;
        rec.spec = r.spec;
        rec.start_time_s = r.start_s;
        rec.end_time_s = st.now;
        rec.report = r.has_prologue
                         ? st.jobmon.abandon(id, st.now)
                         : rs2hpm::JobCounterReport::incomplete(
                               id, static_cast<int>(r.nodes.size()),
                               st.now - r.start_s);
        st.result.jobs.add(std::move(rec));
        for (int held : r.nodes) {
          st.node_job[static_cast<std::size_t>(held)] = nullptr;
        }
        if (cfg_.requeue_killed_jobs) {
          pbs::JobSpec respec = r.spec;
          respec.submit_time_s = st.now;
          ++st.attempts[id];
          st.sched.submit(respec);
          st.inject.note_job_requeued();
          ++st.jobs_requeued;
          if (auto* tel = telemetry::current()) {
            tel->registry
                .counter("p2sim_driver_jobs_requeued_total",
                         "Crash-killed jobs resubmitted by PBS")
                .inc();
          }
        }
        st.running.erase(id);
      }
    }
    if (!st.node(n).is_up()) st.inject.note_node_down();
  }
}

void WorkloadDriver::draw_day_arrivals(CampaignState& st) const {
  const std::int64_t day_first = st.day * util::kIntervalsPerDay;
  const std::int64_t day_end = day_first + util::kIntervalsPerDay;
  const double lambda = arrival_lambda(st);
  for (std::int64_t u = std::max(st.arrivals_drawn_until, day_first);
       u < day_end; ++u) {
    st.day_arrivals[static_cast<std::size_t>(u - day_first)] =
        st.rng.poisson(lambda);
  }
  st.arrivals_drawn_until = day_end;
}

void WorkloadDriver::plan_ahead(CampaignState& st) const {
  // Whatever is already planned, then the kernels of the rest of the day's
  // arrivals, from this interval on.
  std::vector<power2::KernelDesc> kernels = std::move(st.ahead_plan);
  st.ahead_plan.clear();
  std::vector<double> submit_times;
  for (std::int64_t u = st.t; u < st.arrivals_drawn_until; ++u) {
    const std::uint64_t count =
        st.day_arrivals[static_cast<std::size_t>(u % util::kIntervalsPerDay)];
    for (std::uint64_t a = 0; a < count; ++a) {
      submit_times.push_back(static_cast<double>(u) * st.interval_s);
    }
  }
  for (power2::KernelDesc& k : st.gen.peek_kernels(submit_times)) {
    kernels.push_back(std::move(k));
  }
  for (power2::KernelDesc& k : st.signatures.plan_batch(kernels)) {
    if (st.ahead.find(k.content_hash()) == st.ahead.end()) {
      st.ahead_plan.push_back(std::move(k));
    }
  }
}

void WorkloadDriver::phase_arrivals(CampaignState& st) {
  if (st.t % util::kIntervalsPerDay == 0) {
    // The demand process updates at day boundaries; then the whole day's
    // Poisson counts are drawn, in interval order — the master stream's
    // draw sequence is the same as drawing each interval's count as it
    // comes, because nothing else draws from it and the intensity is fixed
    // for the day.  With the counts known, the day's job kernels are too
    // (the generator depends only on its own stream and the submit time),
    // so the measure phase can measure all of them in one batch.
    st.demand_level = std::clamp(
        cfg_.demand_walk_rho * st.demand_level +
            st.rng.normal(1.0 - cfg_.demand_walk_rho,
                          cfg_.demand_walk_noise *
                              (1.0 - cfg_.demand_walk_rho) * 4.0),
        cfg_.demand_min, cfg_.demand_max);
    if (st.slump_days_left > 0) {
      --st.slump_days_left;
    } else if (st.rng.chance(cfg_.slump_prob_per_day)) {
      st.slump_days_left = static_cast<int>(2 + st.rng.below(6));
      st.slump_depth =
          st.rng.uniform(cfg_.slump_depth_min, cfg_.slump_depth_max);
    }
    draw_day_arrivals(st);
    plan_ahead(st);
  }
  const std::uint64_t arrivals =
      st.day_arrivals[static_cast<std::size_t>(st.t % util::kIntervalsPerDay)];
  for (std::uint64_t a = 0; a < arrivals; ++a) {
    st.sched.submit(st.gen.next(st.now));
  }
}

void WorkloadDriver::phase_scheduling(CampaignState& st) {
  st.starts = st.sched.schedule(st.now);
  // Plan the signature measurements these starts need (kernels unknown to
  // the cache, deduplicated, in first-appearance order).  The plan is
  // fixed serially so the parallel measure phase has nothing to decide.
  std::vector<power2::KernelDesc> kernels;
  kernels.reserve(st.starts.size());
  for (const pbs::StartEvent& ev : st.starts) {
    kernels.push_back(st.registry.get(ev.spec.profile_id).kernel);
  }
  st.measure_plan = st.signatures.plan_batch(kernels);
}

void WorkloadDriver::phase_measure(CampaignState& st) {
  if (!st.ahead_plan.empty()) {
    // The look-ahead batch on worker-private cores, each result written by
    // plan index.  Largest estimated cost first (body size x iterations),
    // dealt round-robin to the workers: placement shapes wall time only,
    // since a measurement is a pure function of (core config, kernel).
    const std::vector<power2::KernelDesc>& plan = st.ahead_plan;
    const std::size_t n = plan.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    const auto cost = [&plan](std::size_t i) {
      return plan[i].body.size() *
             (plan[i].warmup_iters + plan[i].measure_iters);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&cost](std::size_t a, std::size_t b) {
                       return cost(a) > cost(b);
                     });
    std::vector<power2::QuietMeasurement> results(n);
    const power2::CoreConfig& core_cfg = st.signatures.core_config();
    const auto workers = static_cast<std::size_t>(st.pool.threads());
    st.pool.run(workers, [&plan, &results, &order, &core_cfg, n, workers](
                             std::size_t begin, std::size_t end) {
      for (std::size_t w = begin; w < end; ++w) {
        for (std::size_t j = w; j < n; j += workers) {
          results[order[j]] = power2::measure_quiet(core_cfg, plan[order[j]]);
        }
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      st.ahead.emplace(plan[i].content_hash(), std::move(results[i]));
    }
    st.ahead_plan.clear();
  }
  // Adopt this pass's new kernels serially in start order — where the
  // on-demand path would have measured them — so the cache, the store and
  // the engine-timeline telemetry cannot tell the batch happened.  A
  // kernel nobody measured ahead is measured on demand.
  for (const power2::KernelDesc& k : st.measure_plan) {
    const auto it = st.ahead.find(k.content_hash());
    if (it == st.ahead.end()) {
      st.signatures.get(k);
      continue;
    }
    st.signatures.adopt(k, it->second);
    st.ahead.erase(it);
  }
  st.measure_plan.clear();
}

void WorkloadDriver::phase_launch(CampaignState& st) {
  for (pbs::StartEvent& ev : st.starts) {
    Running r;
    r.spec = ev.spec;
    r.profile = &st.registry.get(ev.spec.profile_id);
    r.sig = &st.signatures.get(r.profile->kernel);
    r.nodes = std::move(ev.nodes);
    r.start_s = st.now;
    r.end_s = st.now + ev.spec.runtime_s;
    if (auto att = st.attempts.find(r.spec.job_id); att != st.attempts.end()) {
      r.attempt = att->second;
    }
    if (st.inject.enabled() &&
        st.inject.lose_prologue(r.spec.job_id, r.attempt)) {
      r.has_prologue = false;  // the rsh timed out; no baseline snapshot
    } else {
      auto [jt, jq] = st.job_spans(r.nodes);
      st.jobmon.prologue(r.spec.job_id, st.now, jt, jq);
    }
    auto [it, inserted] = st.running.emplace(r.spec.job_id, std::move(r));
    for (int n : it->second.nodes) {
      st.node_job[static_cast<std::size_t>(n)] = &it->second;
    }
    (void)inserted;
    ++st.jobs_dispatched;
    if (auto* tel = telemetry::current()) {
      tel->registry
          .counter("p2sim_driver_jobs_dispatched_total",
                   "Jobs started on allocated nodes")
          .inc();
    }
  }
  st.starts.clear();
}

void WorkloadDriver::phase_horizon(CampaignState& st) {
  st.horizon_first = st.t;
  // Base caps: never cross the campaign end, a day boundary (the demand
  // walk and weekend factor change there), or a checkpoint cadence
  // boundary (durable generations must land on pass ends, so the cadence
  // cannot depend on how intervals batch into passes).
  std::int64_t cap =
      std::min(st.total_intervals, (st.day + 1) * util::kIntervalsPerDay) -
      st.t;
  const CheckpointConfig& ck = cfg_.checkpoint;
  if (!ck.dir.empty() && ck.every_intervals > 0) {
    const std::int64_t next_ck =
        (st.t / ck.every_intervals + 1) * ck.every_intervals;
    cap = std::min(cap, next_ck - st.t);
  }
  // Cross-node events pin the pass to one interval: a queued job may start
  // as soon as nodes free, and a down node reboots on its own clock.
  if (st.sched.queued_jobs() != 0) cap = 1;
  for (int n = 0; n < cfg_.num_nodes && cap > 1; ++n) {
    if (!st.node(n).is_up()) cap = 1;
  }
  // First job ending inside the window: the pass may include that interval
  // (epilogues run at the pass's last interval) but nothing beyond it.
  // The predicate mirrors phase_epilogues exactly.
  for (const auto& [id, r] : st.running) {
    (void)id;
    for (std::int64_t u = st.t; u < st.t + cap; ++u) {
      if (r.end_s <= static_cast<double>(u) * st.interval_s + st.interval_s) {
        cap = std::min(cap, u - st.t + 1);
        break;
      }
    }
  }
  if (st.inject.enabled()) {
    const fault::FaultSchedule& fsched = st.inject.schedule();
    // First crash drawn strictly inside the window ends the pass before it
    // (the faults phase must run at that interval).  Pure keyed queries:
    // nothing is logged and no stream state exists to disturb.
    for (std::int64_t u = st.t + 1; u < st.t + cap; ++u) {
      for (int n = 0; n < cfg_.num_nodes; ++n) {
        if (fsched.node_crashes(n, u)) {
          cap = u - st.t;
          break;
        }
      }
    }
  }
  // Cut the pass before the next interval with arrivals (the window never
  // crosses the day, whose counts the arrivals phase already drew).
  for (std::int64_t u = st.t + 1; u < st.t + cap; ++u) {
    if (st.day_arrivals[static_cast<std::size_t>(
            u % util::kIntervalsPerDay)] > 0) {
      cap = u - st.t;
    }
  }
  // Whole-interval cron misses per horizon offset (pure keyed queries);
  // the lanes' probes and the collect post-pass read the same bitmap.
  st.miss.assign(static_cast<std::size_t>(cap), 0);
  if (st.inject.enabled()) {
    const fault::FaultSchedule& fsched = st.inject.schedule();
    for (std::int64_t k = 0; k < cap; ++k) {
      st.miss[static_cast<std::size_t>(k)] =
          fsched.interval_missed(st.t + k) ? 1 : 0;
    }
  }
  st.horizon = cap;
}

void WorkloadDriver::phase_nfs_grant(CampaignState& st) {
  double disk_demand = 0.0;
  for (const auto& [id, r] : st.running) {
    disk_demand += (r.profile->disk_read_bytes_per_s +
                    r.profile->disk_write_bytes_per_s) *
                   static_cast<double>(r.nodes.size());
  }
  st.grant = st.nfs.grant_fraction(disk_demand);
  // One accounting step per interval of the horizon, in interval order:
  // repeated addition is not one multiplied addition for doubles, and the
  // ledger must not depend on where passes break.
  const double per_interval = st.nfs.grant(disk_demand) * st.interval_s;
  for (std::int64_t k = 0; k < st.horizon; ++k) st.nfs.account(per_interval);
}

void WorkloadDriver::phase_lane_pipeline(CampaignState& st) {
  // Serial prologue: write each lane's work order for the whole pass.  The
  // activity mix and the job's absolute end time are pure functions of the
  // job and the NFS grant; each lane derives its own per-interval busy
  // split from end_s.
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    NodeLane& lane = st.lane(n);
    const Running* r = st.node_job[static_cast<std::size_t>(n)];
    if (r == nullptr) {
      lane.step = LaneStep{};
    } else {
      lane.step.sig = r->sig;
      lane.step.activity = activity_for(*r, st.grant);
      lane.step.end_s = r->end_s;
    }
  }

  // The parallel region: one lane per index, no cross-lane state.  Each
  // worker drains the whole horizon for its lanes — node advance plus the
  // daemon probe against the lane-owned baseline — so the barrier cost is
  // paid once per pass, not once per interval.  The pool's static shards
  // make work placement a function of (num_nodes, threads) only; with
  // threads == 1 this is an inline loop.
  const std::int64_t t0 = st.t;
  const std::int64_t h = st.horizon;
  const double interval_s = st.interval_s;
  const std::uint8_t* miss = st.miss.data();
  std::vector<NodeLane>& lanes = st.lanes;
  st.pool.run(lanes.size(), [&lanes, t0, h, interval_s, miss](
                                std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      lanes[i].run_pipeline(t0, h, interval_s, miss);
    }
  });
}

void WorkloadDriver::phase_fold(CampaignState& st) {
  // Serial merge under the fold guard: the session's fold epoch goes odd
  // for the duration so a concurrent scrape retries instead of
  // double-counting folded counters plus not-yet-reset shard residue.
  auto* tel = telemetry::current();
  telemetry::Session::FoldGuard fold_guard(tel);
  st.merged.assign(static_cast<std::size_t>(st.horizon),
                   CampaignState::MergedInterval{});
  const std::size_t lanes_n = st.lanes.size();
  for (std::int64_t k = 0; k < st.horizon; ++k) {
    const std::size_t ku = static_cast<std::size_t>(k);
    st.merged[ku] = telemetry::tree_fold(
        lanes_n,
        [&st, ku](std::size_t i) {
          const LaneSample& s = st.lanes[i].samples[ku];
          CampaignState::MergedInterval m;
          m.busy_s = s.busy_s;
          switch (s.outcome) {
            case ProbeOutcome::kSampled:
              m.delta = s.delta;
              m.quad_surplus = s.quad_surplus;
              m.sampled = 1;
              break;
            case ProbeOutcome::kReprimed:
              m.reprimed = 1;
              break;
            case ProbeOutcome::kNewlyPrimed:
              m.newly_primed = 1;
              break;
            case ProbeOutcome::kDown:
              m.down = 1;
              break;
            case ProbeOutcome::kLost:
              m.lost = 1;
              break;
            case ProbeOutcome::kMissed:
              break;
          }
          return m;
        },
        [](CampaignState::MergedInterval a,
           const CampaignState::MergedInterval& b) {
          a.delta += b.delta;
          a.quad_surplus += b.quad_surplus;
          a.sampled += b.sampled;
          a.reprimed += b.reprimed;
          a.newly_primed += b.newly_primed;
          a.down += b.down;
          a.lost += b.lost;
          a.busy_s += b.busy_s;
          return a;
        });
    // Campaign busy time accumulates per interval, ascending: the running
    // sum is the same no matter where passes break.
    st.result.total_busy_node_seconds +=
        st.merged[ku].busy_s;
  }
  // One shard merge per pass, through the same pairwise tree the scrape
  // path uses (telemetry::tree_fold_shards), folded into the registry via
  // the shard field table — the single registration site for the
  // p2sim_lane_* counters.  Counter sums are pass-split invariant.
  telemetry::MetricShard pass_shard = telemetry::tree_fold_shards(
      lanes_n, [&st](std::size_t i) -> const telemetry::MetricShard& {
        return st.lanes[i].shard;
      });
  for (NodeLane& lane : st.lanes) lane.shard.reset();
  if (tel != nullptr) {
    for (const telemetry::MetricShard::Field& f :
         telemetry::MetricShard::fields()) {
      tel->registry.counter(f.name, f.help).inc((pass_shard.*f.value)());
    }
  }
}

void WorkloadDriver::phase_epilogues(CampaignState& st) {
  std::vector<std::int64_t> done;
  for (const auto& [id, r] : st.running) {
    if (r.end_s <= st.now + st.interval_s) done.push_back(id);
  }
  for (std::int64_t id : done) {
    Running& r = st.running.at(id);
    pbs::JobRecord rec;
    rec.spec = r.spec;
    rec.start_time_s = r.start_s;
    rec.end_time_s = r.end_s;
    bool abandoned = false;
    if (!r.has_prologue) {
      rec.report = rs2hpm::JobCounterReport::incomplete(
          id, static_cast<int>(r.nodes.size()), r.end_s - r.start_s);
    } else if (st.inject.enabled() && st.inject.lose_epilogue(id, r.attempt)) {
      rec.report = st.jobmon.abandon(id, r.end_s);
      abandoned = true;
    } else {
      auto [jt, jq] = st.job_spans(r.nodes);
      rec.report = st.jobmon.epilogue(id, r.end_s, jt, jq);
    }
    if (cfg_.observer != nullptr) {
      telemetry::JobSample js;
      js.job_id = id;
      js.user_id = rec.spec.user_id;
      js.nodes = static_cast<int>(r.nodes.size());
      js.submit_s = rec.spec.submit_time_s;
      js.start_s = rec.start_time_s;
      js.end_s = rec.end_time_s;
      js.job_mflops = rec.job_mflops();
      js.complete = rec.report.complete;
      js.abandoned = abandoned;
      cfg_.observer->on_job(js);
    }
    st.result.jobs.add(std::move(rec));
    for (int n : r.nodes) st.node_job[static_cast<std::size_t>(n)] = nullptr;
    st.sched.release(id);
    st.running.erase(id);
    ++st.jobs_completed;
    if (auto* tel = telemetry::current()) {
      tel->registry
          .counter("p2sim_driver_jobs_completed_total",
                   "Jobs that ran to their scheduled end")
          .inc();
    }
  }
}

void WorkloadDriver::phase_collect(CampaignState& st) {
  st.records_before = st.daemon.records().size();
  const CampaignState::MergedInterval& m =
      st.merged[static_cast<std::size_t>(st.t - st.horizon_first)];
  st.busy_node_seconds = m.busy_s;
  st.busy_now =
      static_cast<int>(std::lround(st.busy_node_seconds / st.interval_s));
  if (st.inject.enabled()) {
    // Replays the same keyed miss decision the lanes saw, logging it in
    // per-interval order; a missed interval records nothing.
    if (st.inject.miss_interval(st.t)) return;
    for (int i = 0; i < m.down; ++i) st.inject.note_node_unreachable();
    st.inject.note_samples_lost(m.lost);
  }
  rs2hpm::IntervalRecord rec;
  rec.interval = st.t;
  rec.delta = m.delta;
  rec.quad_surplus = m.quad_surplus;
  rec.nodes_sampled = m.sampled;
  rec.nodes_expected = cfg_.num_nodes;
  rec.nodes_reprimed = m.reprimed;
  rec.busy_nodes = st.busy_now;
  // Lanes start primed (fresh node counters are the all-zero baseline), so
  // a merged record always has at least one baseline behind it.
  st.daemon.ingest(rec, m.down + m.lost, m.newly_primed, /*any_primed=*/true);
}

void WorkloadDriver::phase_observe(CampaignState& st) {
  if (cfg_.observer == nullptr) return;
  telemetry::HealthSample hs;
  hs.interval = st.t;
  hs.day = st.day;
  hs.sim_seconds = st.now + st.interval_s;
  hs.interval_recorded = st.daemon.records().size() > st.records_before;
  if (hs.interval_recorded) {
    const rs2hpm::IntervalRecord& rec = st.daemon.records().back();
    hs.nodes_sampled = rec.nodes_sampled;
    hs.nodes_expected = rec.nodes_expected;
    hs.nodes_reprimed = rec.nodes_reprimed;
    hs.mflops = rs2hpm::derive_rates(rec.delta, st.interval_s,
                                     rec.quad_surplus,
                                     st.result.selection)
                    .mflops_all;
  }
  hs.busy_nodes = st.busy_now;
  for (const NodeLane& lane : st.lanes) {
    if (!lane.node.is_up()) ++hs.offline_nodes;
  }
  hs.queue_depth = static_cast<std::int64_t>(st.sched.queued_jobs());
  hs.jobs_dispatched = st.jobs_dispatched;
  hs.jobs_completed = st.jobs_completed;
  hs.jobs_requeued = st.jobs_requeued;
  hs.faults_injected = st.inject.log().total_faults();
  cfg_.observer->on_interval(hs);
}

void WorkloadDriver::phase_archive(CampaignState& st) {
  if (st.archive_writer == nullptr) return;
  // Batch-append everything produced since the previous pass.  Chunk
  // boundaries depend only on row counts, so the archive bytes are
  // identical for every thread count, checkpoint cadence, and resume
  // (a resumed campaign restores all records and replays the appends
  // from zero — idempotent over the already-archived prefix).
  const std::vector<rs2hpm::IntervalRecord>& recs = st.daemon.records();
  for (; st.archived_intervals < recs.size(); ++st.archived_intervals) {
    st.archive_writer->append_interval(recs[st.archived_intervals]);
  }
  const std::vector<pbs::JobRecord>& jobs = st.result.jobs.all();
  for (; st.archived_jobs < jobs.size(); ++st.archived_jobs) {
    st.archive_writer->append_job(jobs[st.archived_jobs]);
  }
}

std::int64_t WorkloadDriver::try_resume(CampaignState& st) {
  const CheckpointConfig& ck = cfg_.checkpoint;
  if (!ck.resume || ck.dir.empty()) return 0;
  ResumeReport local;
  ResumeReport* rep = ck.report != nullptr ? ck.report : &local;
  std::optional<CheckpointImage> img =
      load_latest_checkpoint(ck.dir, config_fingerprint(cfg_), rep);
  for (const std::string& why : rep->rejected) {
    std::fprintf(stderr, "p2sim: checkpoint rejected: %s\n", why.c_str());
  }
  if (!img.has_value()) return 0;
  util::CkptReader r(img->payload);
  st.restore_ckpt(r);
  return img->resume_interval;
}

void WorkloadDriver::maybe_checkpoint(CampaignState& st) {
  checkpoint_test_tick("interval-end", st.t);
  const CheckpointConfig& ck = cfg_.checkpoint;
  if (ck.dir.empty() || ck.every_intervals <= 0) return;
  const std::int64_t next_t = st.t + 1;
  if (next_t % ck.every_intervals != 0 || next_t >= st.total_intervals) {
    return;
  }
  util::CkptWriter w;
  st.save_ckpt(w);
  std::string error;
  if (write_checkpoint(ck.dir, config_fingerprint(cfg_), next_t, w.bytes(),
                       ck.keep, &error)) {
    if (auto* tel = telemetry::current()) {
      tel->registry
          .counter("p2sim_ckpt_writes_total",
                   "Checkpoint generations committed durably",
                   /*wall_clock=*/true)
          .inc();
    }
  } else {
    // Durability is best-effort from the campaign's point of view: losing
    // a checkpoint loses restartability, never results.
    std::fprintf(stderr, "p2sim: checkpoint write failed: %s\n",
                 error.c_str());
    if (auto* tel = telemetry::current()) {
      tel->registry
          .counter("p2sim_ckpt_write_failures_total",
                   "Checkpoint writes that failed (campaign continued)",
                   /*wall_clock=*/true)
          .inc();
    }
  }
}

CampaignResult WorkloadDriver::run() {
  CampaignState st(cfg_);

  // Publish the lane shards to the session's live view so a scrape can
  // merge-on-read the unfolded residue mid-pass; retracted (under the
  // readers' lock) before the lanes die, even on unwind.
  std::vector<const telemetry::MetricShard*> shard_ptrs;
  if (telemetry::current() != nullptr) {
    shard_ptrs.reserve(st.lanes.size());
    for (const NodeLane& lane : st.lanes) shard_ptrs.push_back(&lane.shard);
  }
  telemetry::ScopedLiveShards live_shards(telemetry::current(),
                                          std::move(shard_ptrs));

  // Per-phase wall-clock sink: observability only (never consulted by the
  // simulation), measured with the sanctioned telemetry wall clock.
  PhaseTimings* pt = cfg_.phase_timings;
  const auto timed = [&st, pt, this](Phase p,
                                     void (WorkloadDriver::*fn)(
                                         CampaignState&)) {
    if (pt == nullptr) {
      (this->*fn)(st);
      return;
    }
    const std::int64_t begin_us = telemetry::wall_now_us();
    (this->*fn)(st);
    pt->wall_us[static_cast<std::size_t>(p)] +=
        telemetry::wall_now_us() - begin_us;
  };

  const std::int64_t start_t = try_resume(st);
  if (start_t > 0) {
    // A resume rebuilds the look-ahead the checkpoint does not carry.  It
    // plans every registered kernel the restored cache lacks (the queued
    // jobs', submitted before the checkpoint) and, mid-day, the rest of
    // the day's arrivals (a day start plans them in the arrivals phase).
    // Counts the checkpoint did not carry are drawn first, in the order
    // the day start would have drawn them.
    std::vector<power2::KernelDesc> kernels;
    st.registry.for_each(
        [&](const JobProfile& p) { kernels.push_back(p.kernel); });
    st.ahead_plan = st.signatures.plan_batch(kernels);
    if (start_t % util::kIntervalsPerDay != 0) {
      st.t = start_t;
      st.day = start_t / util::kIntervalsPerDay;
      draw_day_arrivals(st);
      plan_ahead(st);
    }
  }

  if (auto* tel = telemetry::current()) {
    // Wall-clock metric: the thread count shapes wall time, never results,
    // so it is excluded from the bit-stable simulated-time export.  Set
    // after the resume so this run's value wins over the checkpointed one.
    tel->registry
        .gauge("p2sim_driver_threads",
               "Worker threads advancing the node lanes", /*wall_clock=*/true)
        .set(static_cast<double>(st.pool.threads()));
  }

  // The pass loop: serial phases run once per pass at its first interval,
  // the parallel phases drain the whole horizon, and the post-pass below
  // replays the per-interval accounting (epilogues at the pass's last
  // interval only — the horizon phase guarantees no job ends earlier).
  for (std::int64_t first = start_t; first < st.total_intervals;) {
    st.t = first;
    st.now = static_cast<double>(first) * st.interval_s;
    st.day = first / util::kIntervalsPerDay;

    timed(Phase::kDayRollover, &WorkloadDriver::phase_day_rollover);
    timed(Phase::kFaults, &WorkloadDriver::phase_faults);
    timed(Phase::kArrivals, &WorkloadDriver::phase_arrivals);
    timed(Phase::kScheduling, &WorkloadDriver::phase_scheduling);
    timed(Phase::kMeasure, &WorkloadDriver::phase_measure);
    timed(Phase::kLaunch, &WorkloadDriver::phase_launch);
    timed(Phase::kHorizon, &WorkloadDriver::phase_horizon);
    timed(Phase::kNfsGrant, &WorkloadDriver::phase_nfs_grant);
    timed(Phase::kLanePipeline, &WorkloadDriver::phase_lane_pipeline);
    timed(Phase::kFold, &WorkloadDriver::phase_fold);

    const std::int64_t last = first + st.horizon - 1;
    for (st.t = first; st.t <= last; ++st.t) {
      st.now = static_cast<double>(st.t) * st.interval_s;
      // Machine-state gauges refresh per interval with the pass's values
      // (state is constant inside a pass by construction), exactly as the
      // per-interval scheduling pass used to set them.
      st.sched.export_gauges();
      if (st.t == last) {
        timed(Phase::kEpilogues, &WorkloadDriver::phase_epilogues);
      }
      timed(Phase::kCollect, &WorkloadDriver::phase_collect);
      timed(Phase::kObserve, &WorkloadDriver::phase_observe);
      maybe_checkpoint(st);
    }
    timed(Phase::kArchive, &WorkloadDriver::phase_archive);
    if (pt != nullptr) {
      ++pt->horizons;
      pt->intervals += st.horizon;
    }
    first = last + 1;
  }
  if (st.day_span.open()) {
    st.day_span.close(static_cast<double>(st.total_intervals) * st.interval_s);
  }

  st.result.intervals = st.daemon.records();
  st.result.intervals_expected = st.total_intervals;
  st.result.jobs_open_at_end =
      static_cast<std::int64_t>(st.running.size() + st.sched.queued_jobs());
  for (const auto& [id, r] : st.running) {
    if (!r.has_prologue) ++st.result.jobs_open_sans_prologue;
  }
  st.result.faults = st.inject.log();
  st.result.signature_stats = st.signatures.stats();
  // Persist newly measured signatures for the next run (no-op without a
  // configured store).  A failed write never fails the campaign — the
  // store is an accelerator, not a result.
  st.signatures.flush();
  // Final catch-up (jobs left open past the last pass never reach the
  // database, but a zero-pass campaign still needs its empty archive) and
  // the durable commit.  Unlike the signature store, the archive IS a
  // result: a failed write fails the campaign.
  phase_archive(st);
  if (st.archive_writer != nullptr) {
    std::string error;
    if (!st.archive_writer->finalize(cfg_.archive_path, &error)) {
      throw std::runtime_error("p2sim: archive write failed: " + error);
    }
  }
#if P2SIM_CHECKS_ENABLED
  // Campaign-level audit: every 15-minute record the daemon produced must
  // obey the Table 1 identities in both privilege modes.
  for (const rs2hpm::IntervalRecord& rec : st.result.intervals) {
    P2SIM_AUDIT_TOTALS(rec.delta.user,
                       "workload::WorkloadDriver::run(interval user delta)");
    P2SIM_AUDIT_TOTALS(
        rec.delta.system,
        "workload::WorkloadDriver::run(interval system delta)");
  }
#endif
  return st.result;
}

CampaignResult run_campaign(const DriverConfig& cfg) {
  WorkloadDriver driver(cfg);
  return driver.run();
}

}  // namespace p2sim::workload
