// The three campaign workloads, their output checks, the closed-loop
// archive query batches that follow each paper, and the traced breakdown.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.hpp"
#include "perfbench/trace.hpp"
#include "src/analysis/record_io.hpp"
#include "src/archive/query.hpp"
#include "src/archive/reader.hpp"
#include "src/check/check.hpp"
#include "src/power2/signature.hpp"
#include "src/workload/checkpoint.hpp"
#include "src/workload/driver.hpp"
#include "src/workload/jobgen.hpp"

namespace p2sim::perfbench {

namespace fs = std::filesystem;

namespace {

enum class Kind { kCold, kWarm, kCkpt };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"paper_cold", Kind::kCold},
    {"paper_warm", Kind::kWarm},
    {"paper_ckpt", Kind::kCkpt},
};

/// Set-ups per run before the first paper (each later paper sets up once
/// more); setup_s is their median.
constexpr int kSetupsBeforeFirstPaper = 8;
/// Kernels in the serial measure_quiet replay of the traced run.
constexpr int kReplayKernels = 200;
constexpr int kReplayToyKernels = 10;
/// Trace run ids of the t=1 paper and the kernel replay.
constexpr int kT1RunId = 998;
constexpr int kReplayRunId = 999;

// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- fixture --------------------------------------------------------------

struct Fixture {
  std::string dir;
  std::string store;    ///< signature store bytes
  std::string archive;  ///< archive bytes
  std::string paper;    ///< rendered tables, figures and loss report
  std::size_t kernels = 0;

  std::string path(const char* file) const { return dir + "/" + file; }
};

bool load_fixture(const std::string& dir, Fixture* f) {
  f->dir = dir;
  std::string meta;
  if (!read_file(f->path(kStoreFile), &f->store) ||
      !read_file(f->path(kArchiveFile), &f->archive) ||
      !read_file(f->path(kPaperFile), &f->paper) ||
      !read_file(dir + "/meta.txt", &meta)) {
    return false;
  }
  unsigned long long kernels = 0;
  if (std::sscanf(meta.c_str(), "kernels %llu", &kernels) != 1) return false;
  f->kernels = static_cast<std::size_t>(kernels);
  return true;
}

// --- operations and their failures ----------------------------------------

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> reasons;

  /// Counts one operation; `why` lists what was wrong with it (empty: ok).
  void op(const std::vector<std::string>& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    for (const std::string& w : why) ++reasons[w];
  }

  void merge(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& [why, n] : other.reasons) reasons[why] += n;
  }
};

// --- archive queries ------------------------------------------------------

constexpr int kQueryKinds = 5;
constexpr const char* kQueryNames[kQueryKinds] = {
    "top_users", "miss_ratio", "miss_ratio", "paging", "aggregate"};

/// Runs query kind `k` (0-4, a request's order) and renders it.
std::string run_query(int k, const archive::TableSource& jobs,
                      const archive::TableSource& intervals,
                      archive::ScanStats* scan) {
  const std::vector<const archive::TableSource*> src{&jobs};
  switch (k) {
    case 0: {
      const archive::TopUsersResult r = archive::top_users(src, 10);
      *scan = r.scan;
      return archive::render_top_users(r);
    }
    case 1:
    case 2: {
      const archive::MissRatioResult r =
          archive::miss_ratio_distribution(src, k == 1 ? 16 : 64);
      *scan = r.scan;
      return archive::render_miss_ratio(r);
    }
    case 3: {
      const archive::PagingResult r = archive::paging_suspects(src);
      *scan = r.scan;
      return archive::render_paging(r);
    }
    default: {
      archive::ColumnAggregate r;
      if (!archive::aggregate_column(intervals, "user.cycles", &r)) {
        return "unknown column user.cycles";
      }
      *scan = r.scan;
      return archive::render_aggregate(r);
    }
  }
}

/// The query answers from the in-memory oracle over the fixture's text
/// records (the archive is not read).
std::vector<std::string> oracle_answers(const Fixture& f) {
  std::ifstream in_i(f.path(kIntervalsFile));
  std::ifstream in_j(f.path(kJobsFile));
  const std::vector<rs2hpm::IntervalRecord> intervals =
      analysis::load_intervals(in_i);
  const pbs::JobDatabase jobs = analysis::load_jobs(in_j);
  const archive::MemoryIntervalSource interval_src(intervals);
  const archive::MemoryJobSource job_src(jobs.all());
  std::vector<std::string> answers;
  for (int k = 0; k < kQueryKinds; ++k) {
    archive::ScanStats scan;
    answers.push_back(run_query(k, job_src, interval_src, &scan));
  }
  return answers;
}

struct QuerySession {
  std::string archive_path;
  const std::vector<std::string>* oracle = nullptr;
  int requests = 0;
  std::vector<double> latency_s;
  std::vector<double> open_s;
  std::map<std::string, std::vector<double>> kind_s;
  archive::ScanStats scan;
  double scan_s = 0.0;
};

/// Run ids of query requests in the trace start here (papers count up
/// from 0, the replay and the t=1 paper sit just below).
constexpr int kQueryRunBase = 1000;

/// One client in a closed loop until `stop` is set (at least one request).
/// A request opens the archive, then runs and renders all five query kinds
/// in a fixed order; every rendering must equal the oracle's.  (One kind
/// per request would make the latency distribution five-peaked, and its
/// median would jump between peaks from run to run.)
void query_client(QuerySession* s, const std::atomic<bool>& stop,
                  Outcome* outcome, Tracer* tracer) {
  // The lowest priority (on Linux it applies to this thread alone): when
  // the host takes a CPU away, the campaign's threads keep theirs and the
  // client waits, rather than the client stalling a lane barrier.
  setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 19);
  do {
    const int run = kQueryRunBase + s->requests;
    std::vector<std::string> why;
    const double t0 = now_s();
    double t_open = t0;
    std::vector<std::pair<int, double>> kind_end;
    try {
      const archive::ArchiveReader reader =
          archive::ArchiveReader::open(s->archive_path);
      t_open = now_s();
      const archive::ArchiveTableSource jobs(reader,
                                             archive::TableKind::kJobs);
      const archive::ArchiveTableSource intervals(
          reader, archive::TableKind::kIntervals);
      for (int k = 0; k < kQueryKinds; ++k) {
        archive::ScanStats scan;
        const std::string answer = run_query(k, jobs, intervals, &scan);
        kind_end.emplace_back(k, now_s());
        s->scan.merge(scan);
        if (answer != (*s->oracle)[static_cast<std::size_t>(k)]) {
          why.push_back(std::string("query: ") + kQueryNames[k] +
                        " differs from the oracle");
        }
      }
    } catch (const std::exception& e) {
      why.push_back(std::string("query: ") + e.what());
    }
    const double t1 = now_s();
    outcome->op(why);
    s->latency_s.push_back(t1 - t0);
    s->open_s.push_back(t_open - t0);
    s->scan_s += t1 - t_open;
    int root = -1;
    if (tracer != nullptr) {
      root = tracer->add({"query.request", "bench", t0, t1, -1, run});
      tracer->add({"archive.open", "archive", t0, t_open, root, run});
    }
    double kind_start = t_open;
    for (const auto& [k, end] : kind_end) {
      s->kind_s[kQueryNames[k]].push_back(end - kind_start);
      if (tracer != nullptr) {
        tracer->add({std::string("archive.") + kQueryNames[k], "archive",
                     kind_start, end, root, run});
      }
      kind_start = end;
    }
    ++s->requests;
  } while (!stop.load(std::memory_order_relaxed));
}

// --- set-up -----------------------------------------------------------------

struct Setup {
  core::Sp2Config cfg;
  std::vector<std::string> oracle;
  std::vector<std::string> guard_failures;
  std::size_t store_entries_before = 0;
};

std::size_t store_entries(const core::Sp2Config& cfg) {
  return power2::SignatureCache(cfg.driver.core,
                                {cfg.signature_store(), true, false})
      .size();
}

/// Everything before a paper: a clean work directory, the store copy and
/// its warm guard, the campaign configuration and the query oracle.
Setup set_up(const RunOptions& opt, Kind kind, const Fixture& f,
             int threads) {
  Setup s;
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  fs::create_directories(opt.work_dir, ec);
  s.cfg = make_config(opt.seed, opt.toy, threads);
  s.cfg.archive() = opt.work_dir + "/" + kArchiveFile;
  s.cfg.signature_store() = opt.work_dir + "/" + kStoreFile;
  if (kind != Kind::kCold) {
    fs::copy_file(f.path(kStoreFile), s.cfg.signature_store(),
                  fs::copy_options::overwrite_existing, ec);
    if (ec) s.guard_failures.push_back("warm guard: store copy failed");
    // Warm guard: a store the driver would reject, partly or wholly,
    // silently turns the run into a cold one.
    const power2::SignatureCache cache(s.cfg.driver.core,
                                       {s.cfg.signature_store(), true, false});
    const power2::SignatureCache::Stats st = cache.stats();
    if (cache.size() == 0 || st.store_loaded != cache.size() ||
        cache.size() != f.kernels || st.store_rejected ||
        st.store_corrupt_lines != 0) {
      s.guard_failures.push_back("warm guard: store copy is not the "
                                 "complete fixture store");
    }
    s.store_entries_before = cache.size();
  }
  if (kind == Kind::kCkpt) {
    s.cfg.checkpoint().dir = opt.work_dir + "/ckpt";
    s.cfg.checkpoint().every_intervals = kCkptEveryIntervals;
    s.cfg.checkpoint().keep = kCkptKeep;
  }
  s.oracle = oracle_answers(f);
  return s;
}

// --- one paper --------------------------------------------------------------

const char* phase_layer(workload::WorkloadDriver::Phase p) {
  using P = workload::WorkloadDriver::Phase;
  switch (p) {
    case P::kMeasure: return "power2";
    case P::kLanePipeline:
    case P::kNfsGrant: return "cluster";
    case P::kScheduling:
    case P::kLaunch:
    case P::kEpilogues: return "pbs";
    case P::kCollect: return "rs2hpm";
    case P::kObserve: return "telemetry";
    case P::kFaults: return "fault";
    case P::kArchive: return "archive";
    default: return "workload";
  }
}

struct Paper {
  double seconds = 0.0;
  std::int64_t ckpt_gen_bytes = 0;
  std::map<std::string, double> layers;  ///< traced papers only
};

std::int64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

/// Runs one paper on a fresh set-up and checks every output against the
/// fixture.  Traced papers also record spans and the per-layer numbers.
Paper run_one_paper(const Setup& setup, Kind kind, const Fixture& f,
                    Outcome* outcome, Tracer* tracer, int run_id) {
  Paper out;
  std::vector<std::string> why = setup.guard_failures;
  core::Sp2Config cfg = setup.cfg;
  workload::PhaseTimings timings;
  std::unique_ptr<CkptRecorder> recorder;
  if (tracer != nullptr) {
    cfg.driver.phase_timings = &timings;
    recorder = std::make_unique<CkptRecorder>(cfg.checkpoint().dir);
  }
  PaperTimes t;
  std::string paper;
  try {
    core::Sp2Simulation sim(cfg);
    paper = run_paper(sim, &t);
  } catch (const std::exception& e) {
    why.push_back(std::string("paper: ") + e.what());
  }
  out.seconds = t.end - t.begin;

  std::string bytes;
  if (paper != f.paper) why.push_back("paper: tables/figures differ");
  if (!read_file(cfg.archive(), &bytes) || bytes != f.archive) {
    why.push_back("paper: archive bytes differ");
  }
  if (!read_file(cfg.signature_store(), &bytes) || bytes != f.store) {
    why.push_back(kind == Kind::kCold
                      ? "paper: cold store differs from the fixture store"
                      : "warm guard: the run changed the store copy");
  }
  if (kind == Kind::kCkpt) {
    const std::string& dir = cfg.checkpoint().dir;
    workload::ResumeReport report;
    if (!workload::load_latest_checkpoint(
            dir, workload::config_fingerprint(cfg.driver), &report)) {
      why.push_back("paper: newest checkpoint does not load");
    }
    const std::vector<std::string> gens = workload::list_checkpoints(dir);
    if (!gens.empty()) out.ckpt_gen_bytes = file_size(dir + "/" + gens.back());
  }
  outcome->op(why);
  if (tracer == nullptr) return out;

  // --- spans --------------------------------------------------------------
  const int root =
      tracer->add({"core.paper", "core", t.begin, t.end, -1, run_id});
  const int camp = tracer->add(
      {"workload.run", "workload", t.begin, t.campaign_end, root, run_id});
  std::vector<double> ser_ms, write_ms;
  double ckpt_s = 0.0, ckpt_bytes = 0.0;
  for (const CkptSpan& c : recorder->spans()) {
    const int id = tracer->add(
        {"workload.checkpoint", "workload", c.start, c.end, camp, run_id});
    tracer->add({"workload.ckpt_serialize", "workload", c.start, c.mid, id,
                 run_id});
    tracer->add(
        {"workload.ckpt_write", "workload", c.mid, c.end, id, run_id});
    ser_ms.push_back((c.mid - c.start) * 1e3);
    write_ms.push_back((c.end - c.mid) * 1e3);
    ckpt_s += c.end - c.start;
    ckpt_bytes += static_cast<double>(c.bytes);
  }
  double cursor = t.begin;
  for (std::size_t i = 0; i < timings.wall_us.size(); ++i) {
    const auto& info = workload::WorkloadDriver::kPhases[i];
    const double d = static_cast<double>(timings.wall_us[i]) / 1e6;
    Span s{std::string("phase.") + info.name, phase_layer(info.phase),
           cursor, cursor + d, camp, run_id, true};
    tracer->add(std::move(s));
    cursor += d;
  }
  tracer->add({"analysis.tables", "analysis", t.campaign_end, t.tables_end,
               root, run_id});
  tracer->add({"analysis.figures", "analysis", t.tables_end, t.figures_end,
               root, run_id});
  tracer->add(
      {"analysis.loss", "analysis", t.figures_end, t.end, root, run_id});

  // --- per-layer numbers --------------------------------------------------
  using P = workload::WorkloadDriver::Phase;
  const auto phase_s = [&timings](P p) {
    return static_cast<double>(timings.wall_us[static_cast<std::size_t>(p)]) /
           1e6;
  };
  const double phases_s = static_cast<double>(timings.total_us()) / 1e6;
  const double serial_s = static_cast<double>(timings.serial_us()) / 1e6;
  const double lane_s = phase_s(P::kLanePipeline);
  auto& m = out.layers;
  m["power2.measure_s"] = phase_s(P::kMeasure);
  m["power2.kernels_measured"] =
      static_cast<double>(store_entries(cfg)) -
      static_cast<double>(setup.store_entries_before);
  m["cluster.lane_pipeline_s"] = lane_s;
  m["cluster.node_intervals_per_s"] =
      ratio(static_cast<double>(cfg.driver.num_nodes) *
                static_cast<double>(timings.intervals),
            lane_s);
  m["workload.fold_s"] = phase_s(P::kFold);
  m["workload.serial_phases_s"] = serial_s;
  m["workload.serial_frac"] = ratio(serial_s, phases_s);
  m["workload.horizons"] = static_cast<double>(timings.horizons);
  m["workload.intervals_per_horizon"] =
      ratio(static_cast<double>(timings.intervals),
            static_cast<double>(timings.horizons));
  m["workload.outside_phases_s"] = t.campaign_s - phases_s - ckpt_s;
  m["workload.ckpt_count"] = static_cast<double>(ser_ms.size());
  m["workload.ckpt_s"] = ckpt_s;
  m["workload.ckpt_serialize_ms_p50"] = median(ser_ms);
  m["workload.ckpt_write_ms_p50"] = median(write_ms);
  m["workload.ckpt_written_mb"] = ckpt_bytes / 1e6;
  m["workload.ckpt_mb_per_s"] = ratio(ckpt_bytes / 1e6, ckpt_s);
  m["workload.ckpt_gen_mb"] = static_cast<double>(out.ckpt_gen_bytes) / 1e6;
  m["pbs.sched_s"] =
      phase_s(P::kScheduling) + phase_s(P::kLaunch) + phase_s(P::kEpilogues);
  m["rs2hpm.collect_s"] = phase_s(P::kCollect);
  m["archive.write_s"] = phase_s(P::kArchive);
  m["archive.mb"] = static_cast<double>(file_size(cfg.archive())) / 1e6;
  m["analysis.tables_s"] = t.tables_s;
  m["analysis.figures_s"] = t.figures_s;
  m["analysis.loss_s"] = t.loss_s;
  return out;
}

/// Serial replay of measure_quiet over a kernel sample drawn the way the
/// campaign draws its jobs: the single-kernel cost of power2.
void replay_kernels(const core::Sp2Config& cfg, int count, Tracer* tracer,
                    int run_id, double kernels_measured, double measure_s,
                    int threads, std::map<std::string, double>* m) {
  workload::ProfileRegistry registry;
  workload::JobGenerator gen(cfg.driver.jobgen, registry);
  std::vector<power2::KernelDesc> sample;
  for (int i = 0; i < count; ++i) {
    const pbs::JobSpec spec = gen.next(60.0 * i);
    sample.push_back(registry.get(spec.profile_id).kernel);
  }
  std::vector<double> ms;
  double cycles = 0.0;
  const double begin = now_s();
  const int root =
      tracer->add({"power2.replay", "bench", begin, begin, -1, run_id});
  for (const power2::KernelDesc& k : sample) {
    const double t0 = now_s();
    const power2::QuietMeasurement q =
        power2::measure_quiet(cfg.driver.core, k);
    const double t1 = now_s();
    tracer->add({"power2.measure_quiet", "power2", t0, t1, root, run_id});
    ms.push_back((t1 - t0) * 1e3);
    cycles += static_cast<double>(q.run.counts.cycles);
  }
  const double end = now_s();
  tracer->close(root, end);
  double total_ms = 0.0;
  for (double v : ms) total_ms += v;
  (*m)["power2.kernel_ms_p50"] = median(ms);
  (*m)["power2.kernel_ms_p99"] = quantile(ms, 0.99);
  (*m)["power2.sim_mcycles_per_s"] = ratio(cycles / 1e6, end - begin);
  const double busy_s =
      kernels_measured * ratio(total_ms / 1e3, static_cast<double>(ms.size()));
  (*m)["power2.measure_worker_util"] = ratio(busy_s, threads * measure_s);
}

// --- result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Every per-layer metric a traced run prints, in BENCHMARK.json order.  A
/// layer a workload does not exercise reads 0 (checkpoints outside
/// paper_ckpt, the t=1 baseline outside paper_warm).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"power2.measure_s", "s"},
    {"power2.kernels_measured", "count"},
    {"power2.kernel_ms_p50", "ms"},
    {"power2.kernel_ms_p99", "ms"},
    {"power2.sim_mcycles_per_s", "Mcycles/s"},
    {"power2.measure_worker_util", "ratio"},
    {"cluster.lane_pipeline_s", "s"},
    {"cluster.node_intervals_per_s", "1/s"},
    {"workload.fold_s", "s"},
    {"workload.serial_phases_s", "s"},
    {"workload.serial_frac", "ratio"},
    {"workload.horizons", "count"},
    {"workload.intervals_per_horizon", "ratio"},
    {"workload.outside_phases_s", "s"},
    {"workload.ckpt_count", "count"},
    {"workload.ckpt_s", "s"},
    {"workload.ckpt_serialize_ms_p50", "ms"},
    {"workload.ckpt_write_ms_p50", "ms"},
    {"workload.ckpt_written_mb", "MB"},
    {"workload.ckpt_mb_per_s", "MB/s"},
    {"workload.ckpt_gen_mb", "MB"},
    {"pbs.sched_s", "s"},
    {"rs2hpm.collect_s", "s"},
    {"archive.write_s", "s"},
    {"archive.mb", "MB"},
    {"query_p50_ms", "ms"},
    {"archive.open_ms_p50", "ms"},
    {"archive.top_users_ms_p50", "ms"},
    {"archive.miss_ratio_ms_p50", "ms"},
    {"archive.paging_ms_p50", "ms"},
    {"archive.aggregate_ms_p50", "ms"},
    {"archive.scan_mrows_per_s", "Mrows/s"},
    {"archive.prune_frac", "ratio"},
    {"analysis.tables_s", "s"},
    {"analysis.figures_s", "s"},
    {"analysis.loss_s", "s"},
    {"core.paper_t1_s", "s"},
    {"core.speedup_t1_over_tN", "ratio"},
    {"trace_overhead_frac", "ratio"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P2BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define P2BENCH_SANITIZED 1
#endif
#endif
#ifndef P2BENCH_SANITIZED
#define P2BENCH_SANITIZED 0
#endif

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// Host and build descriptor; returns false when this build is not the
/// program the benchmark measures (checks or sanitizers compiled in).
bool print_descriptor(const RunOptions& opt, const Workload& wl,
                      int threads, const core::Sp2Config& cfg) {
  const bool checks =
      check::checks_enabled() || check::library_checks_enabled();
  const bool valid = !checks && !P2BENCH_SANITIZED;
  std::printf(
      "host: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"hardware_concurrency\": %u, \"threads\": %d, \"compiler\": \"%s\", "
      "\"ndebug\": %s, \"checks\": %s, \"sanitizer\": %s, \"nodes\": %d, "
      "\"days\": %lld, \"valid\": %s}\n",
      wl.name, static_cast<unsigned long long>(opt.seed), nproc(),
      std::thread::hardware_concurrency(), threads, kCompiler,
      kNdebug ? "true" : "false", checks ? "true" : "false",
      P2BENCH_SANITIZED ? "true" : "false", cfg.driver.num_nodes,
      static_cast<long long>(cfg.driver.days), valid ? "true" : "false");
  if (!valid) {
    std::printf("!! checks or sanitizers are compiled in: results invalid\n");
  }
  return valid;
}

}  // namespace

int run_workload(const RunOptions& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "p2bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  Fixture fixture;
  if (!load_fixture(opt.fixture_dir, &fixture)) {
    std::fprintf(stderr, "p2bench: incomplete fixture in %s\n",
                 opt.fixture_dir.c_str());
    return 2;
  }
  const int threads = bench_threads();
  const bool valid = print_descriptor(opt, *wl, threads,
                                      make_config(opt.seed, opt.toy, threads));

  Outcome outcome;
  Tracer tracer;
  std::vector<double> setup_s, untraced_s, traced_s;
  std::vector<std::map<std::string, double>> traced_layers;
  Setup setup;
  for (int i = 0; i < kSetupsBeforeFirstPaper; ++i) {
    const double t0 = now_s();
    setup = set_up(opt, wl->kind, fixture, threads);
    setup_s.push_back(now_s() - t0);
  }
  // Papers until the run's time is up (at least two), while one archive
  // query client runs on its own thread, on the CPU the campaign leaves
  // free.  The host's speed swings last from a fraction of a second to
  // minutes; a client that runs all the time samples every one of them,
  // where batches between papers would sample a cold run only twice.  In
  // a traced run traced and untraced papers alternate so
  // trace_overhead_frac compares like with like.
  QuerySession q;
  q.archive_path = fixture.path(kArchiveFile);
  const std::vector<std::string> oracle = setup.oracle;
  q.oracle = &oracle;
  Outcome query_outcome;
  Tracer query_tracer;
  std::atomic<bool> stop_queries{false};
  std::thread client(query_client, &q, std::cref(stop_queries),
                     &query_outcome, opt.trace ? &query_tracer : nullptr);
  const double start = now_s();
  for (int rep = 0; rep < 2 || now_s() - start < opt.seconds; ++rep) {
    if (rep > 0) {
      const double t0 = now_s();
      setup = set_up(opt, wl->kind, fixture, threads);
      setup_s.push_back(now_s() - t0);
    }
    const bool traced = opt.trace && rep % 2 == 1;
    Paper p = run_one_paper(setup, wl->kind, fixture, &outcome,
                            traced ? &tracer : nullptr, rep);
    (traced ? traced_s : untraced_s).push_back(p.seconds);
    if (traced) traced_layers.push_back(std::move(p.layers));
  }
  stop_queries = true;
  client.join();
  outcome.merge(query_outcome);
  tracer.append(query_tracer);
  if (opt.trace) {
    std::printf("per-layer self time, summed over %zu traced papers:\n",
                traced_s.size());
    for (const auto& [layer, sec] : tracer.self_time_by_layer(
             [](const Span& sp) { return sp.run < kT1RunId; })) {
      std::printf("  %-10s %10.4f s\n", layer.c_str(), sec);
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::vector<Metric> metrics;
  // On a shared host request latency is bimodal: stretches of 0.1-1 s run
  // about 1.6x slower, and they take anywhere from a tenth to over half of
  // a run's query time.  A median near that share jumps between the two
  // modes from run to run, so the bounded query metrics are p10 (the
  // latency at full host speed) and p99 (the slow tail); the median is
  // reported by the traced run.
  if (!opt.trace) {
    metrics = {
        {"paper_s", median(untraced_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"query_p10_ms", quantile(q.latency_s, 0.1) * 1e3, "ms"},
        {"query_p99_ms", quantile(q.latency_s, 0.99) * 1e3, "ms"},
    };
  } else {
    std::map<std::string, double> m;
    std::map<std::string, std::vector<double>> per_paper;
    for (const auto& layers : traced_layers) {
      for (const auto& [k, v] : layers) per_paper[k].push_back(v);
    }
    for (const auto& [k, v] : per_paper) m[k] = median(v);
    replay_kernels(setup.cfg, opt.toy ? kReplayToyKernels : kReplayKernels,
                   &tracer, kReplayRunId, m["power2.kernels_measured"],
                   m["power2.measure_s"], threads, &m);
    m["query_p50_ms"] = median(q.latency_s) * 1e3;
    m["archive.open_ms_p50"] = median(q.open_s) * 1e3;
    for (const char* kind : {"top_users", "miss_ratio", "paging",
                             "aggregate"}) {
      const auto it = q.kind_s.find(kind);
      m[std::string("archive.") + kind + "_ms_p50"] =
          it == q.kind_s.end() ? 0.0 : median(it->second) * 1e3;
    }
    m["archive.scan_mrows_per_s"] =
        ratio(static_cast<double>(q.scan.rows_scanned) / 1e6, q.scan_s);
    m["archive.prune_frac"] =
        ratio(static_cast<double>(q.scan.chunks_pruned),
              static_cast<double>(q.scan.chunks_pruned +
                                  q.scan.chunks_scanned));
    // The single-threaded baseline (warm only: a cold t=1 paper would
    // double the run).  Scaling claims need at least 4 CPUs.
    m["core.paper_t1_s"] = 0.0;
    m["core.speedup_t1_over_tN"] = 0.0;
    if (wl->kind == Kind::kWarm) {
      Setup s1 = set_up(opt, wl->kind, fixture, 1);
      const Paper p1 = run_one_paper(s1, wl->kind, fixture, &outcome,
                                     nullptr, kT1RunId);
      m["core.paper_t1_s"] = p1.seconds;
      if (nproc() >= 4) {
        m["core.speedup_t1_over_tN"] = ratio(p1.seconds, median(untraced_s));
      } else {
        std::printf("!! %d CPUs < 4: core.speedup_t1_over_tN withheld\n",
                    nproc());
      }
    }
    m["trace_overhead_frac"] =
        ratio(median(traced_s), median(untraced_s)) - 1.0;
    for (const LayerMetric& lm : kLayerMetrics) {
      metrics.push_back({lm.name, m[lm.name], lm.unit});
    }

    if (!opt.trace_out.empty()) {
      if (tracer.write_chrome(opt.trace_out)) {
        std::printf("trace: %zu spans written to %s\n",
                    tracer.spans().size(), opt.trace_out.c_str());
      } else {
        std::printf("!! cannot write trace %s\n", opt.trace_out.c_str());
      }
    }
  }

  std::printf("papers: %zu untraced, %zu traced; queries: %d; set-ups: %zu\n",
              untraced_s.size(), traced_s.size(), q.requests, setup_s.size());
  std::printf("paper seconds, untraced:");
  for (double v : untraced_s) std::printf(" %.3f", v);
  if (opt.trace) {
    std::printf("\npaper seconds, traced:");
    for (double v : traced_s) std::printf(" %.3f", v);
  }
  std::printf("\nquery ms, p10/p25/p50/p75/p90/p99:");
  for (double qq : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::printf(" %.3f", quantile(q.latency_s, qq) * 1e3);
  }
  std::printf("\n");
  std::printf("fail_ratio %.6g (%lld failed / %lld attempted)\n",
              ratio(static_cast<double>(outcome.failed),
                    static_cast<double>(outcome.attempted)),
              static_cast<long long>(outcome.failed),
              static_cast<long long>(outcome.attempted));
  for (const auto& [why, n] : outcome.reasons) {
    std::printf("!! %lld x %s\n", static_cast<long long>(n), why.c_str());
  }
  for (const Metric& mt : metrics) {
    std::printf("  %-34s %16.6f %s\n", mt.name.c_str(), mt.value, mt.unit);
  }

  const bool correct = valid && outcome.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  return correct ? 0 : 1;
}

}  // namespace p2sim::perfbench
