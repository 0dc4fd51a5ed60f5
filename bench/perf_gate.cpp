// perf_gate: the simulator's performance and determinism gate.
//
// One run measures five layers and writes every result as one row of
// BENCH_perf_gate.json, a flat JSON list of
//   {name, value, unit, op, bound, status}
// where status is `pass` or `fail` for a gated row, `withheld` for a
// scaling claim the host is too narrow to make, and `report` for a figure
// that is printed but not gated.  Every bound lives in kBounds below.
//
//   power2.*   the cycle-level core: a serial measure_quiet over a fixed
//              200-kernel job sample (reported, not gated: host-dependent),
//              and the share of its measured iterations whose schedule
//              the core replayed from its memo;
//   engine.*   Node::advance on the paper's 15-minute busy intervals, the
//              closed-form path against the slice-by-slice reference, as
//              the median of 51 paired per-thread CPU-time ratios, on a
//              paging profile; and the fast path alone (reported) on a
//              busy interval without paging, on an idle one, and on two
//              alternating work orders, which rebuild the node's interval
//              plan on every call;
//   campaign.* the 144-node campaign once on the reference path and once on
//              the fast path at each of 1, 2, 4 and 8 threads, archive on:
//              Table 2 and the archive bytes must match across all five;
//   archive.*  the fast 1-thread campaign plus a fault-injected twin as
//              text records and as the columnar archive: scan rate, load
//              speedup, size, and query results against the in-memory
//              oracle;
//   scrape.*   a 16-node faulted campaign unwatched and under 8 HTTP
//              scrapers: the campaign records and simulated-time exports
//              must not move.
//
// Exit status: 0 when no row fails, 1 when some row fails, 2 when the gate
// could not run (a bad P2SIM_BENCH_DAYS, an argument, an I/O error).
// P2SIM_BENCH_DAYS sets the campaign length in days (default 270, the
// paper's); the scrape campaign runs min(days, 30) of them.
//
// Observed spread of the timed rows, min–max over 20 consecutive 2-day
// and 5 consecutive 12-day runs of a Release build on a shared 4-core
// x86-64 host:
//   engine.speedup            5.03–5.43 and 5.15–5.35 (gate >= 5) while the
//                             fast path replayed every slice's carried
//                             state in floating point (40 more 12-day runs
//                             of that build in two sets of 20: 4.27–5.61,
//                             median 5.38, one exit 1, and 5.03–5.61,
//                             median 5.44); 7.29–7.96, median 7.51, over
//                             20 12-day runs interleaved with the second
//                             set, once the integer carry replay landed
//                             (8.4–10.2 over six 270-day runs on a faster
//                             host); on a third host, 7.27–7.79 over
//                             three 270-day runs of that build, then
//                             17.2–18.3, median 17.4, over five 270-day
//                             runs once the node kept the plan of its last
//                             work order (the timed node repeats one
//                             order, so every call after the first reuses
//                             it; engine.fast_replan_intervals_per_s shows
//                             the cost without reuse);
//                             the best-of-5 wall-clock rounds it replaced
//                             read 5.04–6.21 over 11 runs on the same
//                             host, and 4.61–5.66 over 17 earlier runs
//   archive.scan_mrows_per_s  81–116 and 95–136 (gate >= 36)
//   archive.load_speedup      6.0–8.2 and 6.9–8.6 (gate >= 5)
//   campaign.speedup_t8       withheld on that host
// Report rows vary more: engine.*_intervals_per_s, power2.* and the
// campaign.* wall times by up to 2x between runs, and
// scrape.perturbation_pct from -11 to +68 % at 2 days (-3 to +3 % at 12).
// Below about 5 days the archive is too small for archive.size_ratio
// (0.337 at 2 days), which then fails.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/loss.hpp"
#include "src/analysis/record_io.hpp"
#include "src/analysis/tables.hpp"
#include "src/archive/convert.hpp"
#include "src/archive/query.hpp"
#include "src/archive/reader.hpp"
#include "src/cluster/node.hpp"
#include "src/core/simulation.hpp"
#include "src/fault/fault.hpp"
#include "src/power2/signature.hpp"
#include "src/telemetry/service.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/http_client.hpp"
#include "src/util/http_server.hpp"
#include "src/util/numfmt.hpp"
#include "src/util/stats.hpp"
#include "src/workload/driver.hpp"
#include "src/workload/jobgen.hpp"

namespace {

using namespace p2sim;

struct Bound {
  std::string_view name;
  std::string_view unit;
  std::string_view op;  ///< ">=" or "<="; identities are "== 1"
  double bound;
};

// Every gated row.  An identity row's value is 1 when the compared outputs
// are byte-identical and 0 otherwise.
constexpr std::array kBounds{
    Bound{"engine.speedup", "x", ">=", 5.0},
    Bound{"campaign.table2_identical", "bool", "==", 1.0},
    Bound{"campaign.archive_identical", "bool", "==", 1.0},
    // A 3.0x floor less 0.4 of scheduling tolerance; withheld on hosts with
    // fewer than 8 hardware threads, where t=8 is oversubscribed.
    Bound{"campaign.speedup_t8", "x", ">=", 2.6},
    Bound{"archive.scan_mrows_per_s", "Mrows/s", ">=", 36.0},
    Bound{"archive.load_speedup", "x", ">=", 5.0},
    Bound{"archive.size_ratio", "ratio", "<=", 0.30},
    Bound{"archive.queries_identical", "bool", "==", 1.0},
    Bound{"scrape.exports_identical", "bool", "==", 1.0},
};

constexpr int kNodes = 144;
constexpr int kWidestThreads = 8;

struct Row {
  std::string name;
  std::optional<double> value;  ///< empty when withheld
  std::string_view unit;
  std::string_view op;
  std::optional<double> bound;  ///< empty for `report` rows
  std::string_view status;
};

class Report {
 public:
  /// A gated row; `withhold` keeps its value out of the report.
  void gate(std::string_view name, double value, bool withhold = false) {
    const auto* b =
        std::find_if(kBounds.begin(), kBounds.end(),
                     [name](const Bound& x) { return x.name == name; });
    if (b == kBounds.end()) {
      throw std::logic_error("perf_gate: no bound for " + std::string(name));
    }
    const bool ok = b->op == ">="   ? value >= b->bound
                    : b->op == "<=" ? value <= b->bound
                                    : value == b->bound;
    add({std::string(name), withhold ? std::nullopt : std::optional(value),
         b->unit, b->op, b->bound,
         withhold ? "withheld" : (ok ? "pass" : "fail")});
  }
  void identical(std::string_view name, bool same) {
    gate(name, same ? 1.0 : 0.0);
  }
  void report(std::string name, std::string_view unit, double value) {
    add({std::move(name), value, unit, "report", std::nullopt, "report"});
  }

  bool failed() const {
    return std::any_of(rows_.begin(), rows_.end(),
                       [](const Row& r) { return r.status == "fail"; });
  }

  void write_json(const char* path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "  {\"name\": \"" << r.name << "\", \"value\": "
          << number(r.value) << ", \"unit\": \"" << r.unit
          << "\", \"op\": \"" << r.op << "\", \"bound\": " << number(r.bound)
          << ", \"status\": \"" << r.status << "\"}"
          << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out.flush()) {
      throw std::runtime_error(std::string("cannot write ") + path);
    }
  }

 private:
  static std::string number(std::optional<double> v) {
    if (!v) return "null";
    char buf[32];
    // Counts (bytes, threads, days) print exactly; measurements to 6 digits.
    const bool count = *v == std::trunc(*v) && std::abs(*v) < 1e15;
    std::snprintf(buf, sizeof buf, count ? "%.0f" : "%.6g", *v);
    return buf;
  }

  void add(Row row) {
    const std::string bound =
        row.bound ? std::string(row.op) + " " + number(row.bound) : "";
    std::printf("  %-34s %12s %-8s %-9s %s\n", row.name.c_str(),
                number(row.value).c_str(), std::string(row.unit).c_str(),
                bound.c_str(), std::string(row.status).c_str());
    std::fflush(stdout);
    rows_.push_back(std::move(row));
  }

  std::vector<Row> rows_;
};

/// P2SIM_BENCH_DAYS as a positive decimal integer (default 270); empty on
/// any other value.
std::optional<std::int64_t> bench_days() {
  const char* env = std::getenv("P2SIM_BENCH_DAYS");
  if (env == nullptr) return 270;
  const auto days = util::parse_number<std::int64_t>(env);
  if (!days || *days <= 0) return std::nullopt;
  return days;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Seconds per call of `fn`, repeated until `min_seconds` and 3 calls have
/// passed, so a fast side and its slow comparison are timed alike.
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_seconds) {
  int calls = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    fn();
    ++calls;
  } while (calls < 3 || seconds_since(t0) < min_seconds);
  return seconds_since(t0) / calls;
}

/// This thread's CPU seconds: time the thread spends preempted or waiting
/// for a core is left out, so load from other processes drops out too.
double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Thread CPU seconds per call of `fn`, repeated until `min_seconds` of
/// CPU time and 3 calls have passed.
template <typename Fn>
double cpu_seconds_per_call(Fn&& fn, double min_seconds) {
  int calls = 0;
  const double t0 = thread_cpu_s();
  double spent = 0.0;
  do {
    fn();
    ++calls;
    spent = thread_cpu_s() - t0;
  } while (calls < 3 || spent < min_seconds);
  return spent / calls;
}

/// `a` against `b` in `pairs` paired rounds: each pair times both sides
/// back to back in thread CPU time, alternating which side goes first, and
/// yields one ratio a/b.  Drift slower than a pair, such as clock scaling,
/// reaches both of its sides, and the median ratio ignores the pairs an
/// outside burst lands in.
struct Paired {
  double ratio = 0.0;  ///< median of the per-pair a/b ratios
  double a_s = 0.0;    ///< median seconds per call of `a`
  double b_s = 0.0;    ///< median seconds per call of `b`
};
template <typename A, typename B>
Paired paired_rounds(A&& a, B&& b, int pairs, double min_seconds) {
  std::vector<double> ratios;
  std::vector<double> as;
  std::vector<double> bs;
  for (int pair = 0; pair < pairs; ++pair) {
    double a_s = 0.0;
    double b_s = 0.0;
    if (pair % 2 == 0) {
      a_s = cpu_seconds_per_call(a, min_seconds);
      b_s = cpu_seconds_per_call(b, min_seconds);
    } else {
      b_s = cpu_seconds_per_call(b, min_seconds);
      a_s = cpu_seconds_per_call(a, min_seconds);
    }
    ratios.push_back(a_s / b_s);
    as.push_back(a_s);
    bs.push_back(b_s);
  }
  return {util::quantile(ratios, 0.5), util::quantile(as, 0.5),
          util::quantile(bs, 0.5)};
}

/// Keeps a result observable so the timed work cannot be optimized away.
volatile double g_sink = 0.0;

// ---- power2.* --------------------------------------------------------

/// The work a cold signature store pays for, one kernel at a time: the
/// median wall time of one fresh-core measurement and the simulated cycles
/// the core retires per wall second.
void power2_rows(Report& rep) {
  workload::ProfileRegistry registry;
  workload::JobGenerator gen(workload::JobGenConfig{}, registry);
  std::vector<power2::KernelDesc> sample;
  for (int i = 0; i < 200; ++i) {
    sample.push_back(registry.get(gen.next(60.0 * i).profile_id).kernel);
  }
  std::vector<double> ms;
  double cycles = 0.0;
  double iterations = 0.0;
  double replayed = 0.0;
  const auto begin = std::chrono::steady_clock::now();
  for (const power2::KernelDesc& k : sample) {
    const auto t0 = std::chrono::steady_clock::now();
    const power2::RunResult run =
        power2::measure_quiet(power2::CoreConfig{}, k).run;
    ms.push_back(seconds_since(t0) * 1e3);
    cycles += static_cast<double>(run.counts.cycles);
    iterations += static_cast<double>(run.iterations);
    replayed += static_cast<double>(run.replayed);
  }
  const double wall_s = seconds_since(begin);
  rep.report("power2.kernel_ms_p50", "ms", util::quantile(ms, 0.5));
  rep.report("power2.sim_mcycles_per_s", "Mcycles/s", cycles / 1e6 / wall_s);
  rep.report("power2.replayed_iter_frac", "ratio", replayed / iterations);
}

// ---- engine.* --------------------------------------------------------

power2::KernelDesc bench_kernel(const std::string& name, std::size_t bytes,
                                int stride) {
  power2::KernelBuilder b(name);
  const auto s = b.stream(bytes, stride);
  const auto l = b.load(s);
  b.fma(l);
  b.fp_add();
  return b.warmup(64).measure(2048).build();
}

void engine_rows(Report& rep) {
  power2::Power2Core core;
  const power2::EventSignature sig =
      power2::measure_signature(core, bench_kernel("hot_path", 1 << 20, 8));
  cluster::ActivityProfile act;
  act.compute_fraction = 0.7;
  act.comm_wait_fraction = 0.2;
  act.io_wait_fraction = 0.05;
  act.comm_send_bytes_per_s = 1.2e6;
  act.comm_recv_bytes_per_s = 1.2e6;
  act.disk_read_bytes_per_s = 8e3;
  act.disk_write_bytes_per_s = 15e3;
  act.page_faults_per_s = 1.0;
  cluster::NodeConfig ref_cfg;
  ref_cfg.reference_accrual = true;
  cluster::Node ref_node(1, ref_cfg);
  cluster::Node fast_node(1);
  // 900 s busy advances: the paper's collection quantum.
  constexpr int kBatch = 512;
  const Paired p = paired_rounds(
      [&] {
        for (int i = 0; i < kBatch; ++i) ref_node.advance(900.0, &sig, act);
      },
      [&] {
        for (int i = 0; i < kBatch; ++i) fast_node.advance(900.0, &sig, act);
      },
      51, 0.008);
  rep.report("engine.reference_intervals_per_s", "1/s", kBatch / p.a_s);
  rep.report("engine.fast_intervals_per_s", "1/s", kBatch / p.b_s);
  rep.gate("engine.speedup", p.ratio);

  // The node-intervals most of a campaign runs, on the fast path alone: a
  // busy one without paging and an idle one (the median of 11 timings).
  const auto intervals_per_s = [&](auto&& advance) {
    std::vector<double> s;
    for (int i = 0; i < 11; ++i) {
      s.push_back(cpu_seconds_per_call(
          [&] {
            for (int k = 0; k < kBatch; ++k) advance();
          },
          0.008));
    }
    return kBatch / util::quantile(s, 0.5);
  };
  cluster::ActivityProfile no_paging = act;
  no_paging.page_faults_per_s = 0.0;
  cluster::Node busy_node(2);
  cluster::Node idle_node(3);
  rep.report("engine.fast_busy_intervals_per_s", "1/s", intervals_per_s([&] {
               busy_node.advance(900.0, &sig, no_paging);
             }));
  rep.report("engine.fast_idle_intervals_per_s", "1/s",
             intervals_per_s([&] { idle_node.advance_idle(900.0); }));
  // The rows above repeat one work order, so each call reuses the node's
  // interval plan; alternating two orders makes every call build one.
  cluster::ActivityProfile other = no_paging;
  other.comm_send_bytes_per_s *= 1.5;
  cluster::Node replan_node(4);
  bool flip = false;
  rep.report("engine.fast_replan_intervals_per_s", "1/s", intervals_per_s([&] {
               flip = !flip;
               replan_node.advance(900.0, &sig, flip ? other : no_paging);
             }));

  power2::SignatureCache cache;
  std::vector<power2::KernelDesc> kernels;
  for (int i = 0; i < 8; ++i) {
    kernels.push_back(bench_kernel("lookup_" + std::to_string(i),
                                   std::size_t{1} << (14 + i % 4), 8 + i));
  }
  for (const power2::KernelDesc& k : kernels) cache.get(k);
  constexpr int kRounds = 200000;
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    sink += cache.get(kernels[static_cast<std::size_t>(r) % kernels.size()])
                .cycles_per_iter;
  }
  rep.report("engine.signature_lookup_ns", "ns",
             seconds_since(t0) * 1e9 / kRounds);
  g_sink = sink;
}

// ---- campaign.* and archive.* ------------------------------------------

/// One campaign as text records and as the columnar archive.
struct Corpus {
  const char* label = "";
  std::vector<rs2hpm::IntervalRecord> intervals;
  pbs::JobDatabase jobs;
  std::string text_intervals;
  std::string text_jobs;
  std::string archive;
};

Corpus make_corpus(const char* label, const workload::CampaignResult& r) {
  Corpus c;
  c.label = label;
  c.intervals = r.intervals;
  c.jobs = r.jobs;
  std::ostringstream ti;
  analysis::save_intervals(ti, c.intervals);
  c.text_intervals = std::move(ti).str();
  std::ostringstream tj;
  analysis::save_jobs(tj, c.jobs);
  c.text_jobs = std::move(tj).str();
  c.archive = archive::archive_from_records(c.intervals, c.jobs.all(),
                                            archive::kDefaultRowsPerChunk);
  return c;
}

struct CampaignRun {
  std::string label;  ///< "reference" or "t<threads>"
  double wall_s = 0.0;
  std::string table2;
  std::string archive;
  workload::PhaseTimings timings;
};

/// Runs the 144-node campaign with the archive writer on; when `corpus` is
/// given, also keeps the campaign's records as the clean archive corpus.
CampaignRun run_campaign(int threads, bool reference, std::int64_t days,
                         Corpus* corpus) {
  CampaignRun run;
  run.label = reference ? "reference" : "t" + std::to_string(threads);
  core::Sp2Config cfg;
  cfg.driver.num_nodes = kNodes;
  cfg.driver.days = days;
  cfg.driver.node.reference_accrual = reference;
  cfg.threads() = threads;
  cfg.driver.phase_timings = &run.timings;
  const std::string path = "perf_gate_" + run.label + ".p2a";
  cfg.archive() = path;
  core::Sp2Simulation sim(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  sim.campaign();
  run.wall_s = seconds_since(t0);
  run.table2 = analysis::format_table2(sim.table2());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  run.archive = std::move(bytes).str();
  std::remove(path.c_str());
  if (run.archive.empty()) throw std::runtime_error("no archive at " + path);
  if (corpus != nullptr) *corpus = make_corpus("clean", sim.campaign());
  return run;
}

void campaign_rows(Report& rep, std::int64_t days, unsigned hw,
                   Corpus* clean) {
  std::vector<CampaignRun> runs;
  runs.push_back(run_campaign(1, /*reference=*/true, days, nullptr));
  for (int t : {1, 2, 4, kWidestThreads}) {
    runs.push_back(
        run_campaign(t, /*reference=*/false, days, t == 1 ? clean : nullptr));
  }
  const CampaignRun& ref = runs.front();
  const CampaignRun& t1 = runs[1];
  bool table2_same = true;
  bool archive_same = true;
  for (const CampaignRun& r : runs) {
    rep.report("campaign." + r.label + ".wall_s", "s", r.wall_s);
    if (r.table2 != ref.table2) {
      table2_same = false;
      std::printf("  !! Table 2 of %s differs from reference\n",
                  r.label.c_str());
    }
    if (r.archive != ref.archive) {
      archive_same = false;
      std::printf("  !! archive bytes of %s differ from reference\n",
                  r.label.c_str());
    }
  }
  rep.identical("campaign.table2_identical", table2_same);
  rep.identical("campaign.archive_identical", archive_same);
  rep.report("campaign.t1_speedup_vs_reference", "x", ref.wall_s / t1.wall_s);
  rep.gate("campaign.speedup_t8", t1.wall_s / runs.back().wall_s,
           /*withhold=*/hw < static_cast<unsigned>(kWidestThreads));

  for (const CampaignRun& r : runs) {
    if (r.label == "reference") continue;
    const workload::PhaseTimings& t = r.timings;
    rep.report("campaign." + r.label + ".serial_frac", "ratio",
               t.total_us() > 0 ? static_cast<double>(t.serial_us()) /
                                      static_cast<double>(t.total_us())
                                : 0.0);
    for (std::size_t p = 0; p < workload::WorkloadDriver::kPhases.size();
         ++p) {
      rep.report("campaign." + r.label + "." +
                     workload::WorkloadDriver::kPhases[p].name + "_ms",
                 "ms", static_cast<double>(t.wall_us[p]) / 1000.0);
    }
  }
}

/// Every query kernel rendered from the archive and from the in-memory
/// oracle; returns the names of those that differ.
std::string query_mismatches(const Corpus& c) {
  const archive::ArchiveReader reader =
      archive::ArchiveReader::from_bytes(c.archive);
  const archive::ArchiveTableSource archive_jobs(reader,
                                                 archive::TableKind::kJobs);
  const archive::MemoryJobSource oracle_jobs(c.jobs.all());
  const std::vector<const archive::TableSource*> a{&archive_jobs};
  const std::vector<const archive::TableSource*> o{&oracle_jobs};
  std::string bad;
  const auto check = [&](const char* name, const std::string& x,
                         const std::string& y) {
    if (x != y) bad += std::string(c.label) + "/" + name + " ";
  };
  check("top_users", render_top_users(archive::top_users(a, 10)),
        render_top_users(archive::top_users(o, 10)));
  for (int nodes : {16, 64}) {
    check("miss_ratio",
          render_miss_ratio(archive::miss_ratio_distribution(a, nodes)),
          render_miss_ratio(archive::miss_ratio_distribution(o, nodes)));
  }
  check("paging", render_paging(archive::paging_suspects(a)),
        render_paging(archive::paging_suspects(o)));
  return bad;
}

void archive_rows(Report& rep, const Corpus& clean, std::int64_t days) {
  const archive::ArchiveReader reader =
      archive::ArchiveReader::from_bytes(clean.archive);

  const archive::ArchiveTableSource src(reader,
                                        archive::TableKind::kIntervals);
  std::uint64_t rows = 0;
  const double scan_s = seconds_per_call(
      [&] {
        archive::ColumnAggregate agg;
        aggregate_column(src, "user.cycles", &agg);
        g_sink = agg.sum;
        rows = agg.rows;
      },
      0.2);
  rep.gate("archive.scan_mrows_per_s",
           static_cast<double>(rows) / scan_s / 1e6);

  // Both sides load the intervals and the jobs end to end.
  const double text_s = seconds_per_call(
      [&] {
        std::istringstream in_i(clean.text_intervals);
        std::istringstream in_j(clean.text_jobs);
        g_sink = static_cast<double>(analysis::load_intervals(in_i).size() +
                                     analysis::load_jobs(in_j).size());
      },
      0.3);
  const double archive_s = seconds_per_call(
      [&] {
        g_sink = static_cast<double>(archive::to_intervals(reader).size() +
                                     archive::to_jobs(reader).size());
      },
      0.3);
  rep.report("archive.text_load_ms", "ms", text_s * 1e3);
  rep.report("archive.archive_load_ms", "ms", archive_s * 1e3);
  rep.gate("archive.load_speedup", text_s / archive_s);

  const std::size_t text_bytes =
      clean.text_intervals.size() + clean.text_jobs.size();
  rep.report("archive.text_bytes", "B", static_cast<double>(text_bytes));
  rep.report("archive.archive_bytes", "B",
             static_cast<double>(clean.archive.size()));
  rep.gate("archive.size_ratio", static_cast<double>(clean.archive.size()) /
                                     static_cast<double>(text_bytes));

  core::Sp2Config faulted_cfg;
  faulted_cfg.driver.num_nodes = kNodes;
  faulted_cfg.driver.days = days;
  faulted_cfg.threads() = 0;  // one per core; results are thread-invariant
  faulted_cfg.faults() = fault::FaultConfig::reference();
  core::Sp2Simulation faulted_sim(faulted_cfg);
  const Corpus faulted = make_corpus("faulted", faulted_sim.campaign());
  const std::string bad = query_mismatches(clean) + query_mismatches(faulted);
  if (!bad.empty()) std::printf("  !! queries differ: %s\n", bad.c_str());
  rep.identical("archive.queries_identical", bad.empty());
}

// ---- scrape.* --------------------------------------------------------

constexpr int kScrapers = 8;
constexpr int kScrapeRepeats = 3;
// 100 ms per client across 8 clients is ~80 requests/s: far denser than a
// production scrape interval, yet light enough that the perturbation stays
// meaningful when the host has fewer cores than workers plus scrapers.
constexpr auto kScrapePause = std::chrono::milliseconds(100);

struct ScrapeRun {
  double wall_s = 0.0;
  std::uint64_t scrapes = 0;
  /// The campaign's records plus the simulated-time exports, doubles as
  /// hex floats: everything that must not move under scraping.
  std::string fingerprint;
};

/// HTTP clients that scrape the monitor until stopped; stopped and joined
/// on every way out of their scope, exceptions included.
class ScrapeClients {
 public:
  ScrapeClients(std::uint16_t port, int clients) {
    try {
      for (int c = 0; c < clients; ++c) {
        threads_.emplace_back([this, port, c] {
          const char* targets[] = {"/metrics", "/healthz", "/api/days",
                                   "/api/jobs?limit=8"};
          std::size_t i = static_cast<std::size_t>(c);
          while (!stop_.load(std::memory_order_acquire)) {
            (void)util::http_get("127.0.0.1", port, targets[i++ % 4]);
            served_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(kScrapePause);
          }
        });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ScrapeClients(const ScrapeClients&) = delete;
  ScrapeClients& operator=(const ScrapeClients&) = delete;
  ~ScrapeClients() { stop(); }

  /// Stops and joins every client; returns the scrapes they were served.
  std::uint64_t stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    return served_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> served_{0};
  std::vector<std::thread> threads_;
};

ScrapeRun scrape_run(std::int64_t days, int scrapers) {
  telemetry::Session session;
  telemetry::MonitorService svc(session);
  util::HttpServer server;
  std::optional<ScrapeClients> clients;
  if (scrapers > 0) {
    util::HttpServerConfig scfg;
    scfg.observer = &svc;
    std::string error;
    if (!server.start(
            scfg,
            [&svc](const util::HttpRequest& req) { return svc.handle(req); },
            &error)) {
      throw std::runtime_error("scrape server start failed: " + error);
    }
    clients.emplace(server.port(), scrapers);
  }

  core::Sp2Config cfg = core::Sp2Config::small(days, /*nodes=*/16);
  cfg.faults() = fault::FaultConfig::reference();
  cfg.threads() = 4;
  if (scrapers > 0) cfg.driver.observer = &svc;
  workload::CampaignResult result;
  ScrapeRun out;
  {
    telemetry::ScopedSession scoped(session);
    const auto t0 = std::chrono::steady_clock::now();
    result = workload::run_campaign(cfg.driver);
    out.wall_s = seconds_since(t0);
  }
  if (clients) out.scrapes = clients->stop();
  server.stop();

  char buf[256];
  const analysis::MeasurementLoss loss = analysis::measure_loss(result);
  std::snprintf(buf, sizeof buf,
                "intervals=%zu jobs=%zu busy=%a faults=%lld clean=%lld\n",
                result.intervals.size(), result.jobs.size(),
                result.total_busy_node_seconds,
                static_cast<long long>(loss.injected.total_faults()),
                static_cast<long long>(loss.node_samples_clean));
  out.fingerprint = buf;
  out.fingerprint += session.registry.jsonl();
  out.fingerprint += session.tracer.chrome_trace_json(/*include_wall=*/false);
  return out;
}

void scrape_rows(Report& rep, std::int64_t days) {
  double bare_s = 1e300;
  double scraped_s = 1e300;
  std::uint64_t scrapes = 0;
  std::string expected;
  bool same = true;
  for (int i = 0; i < kScrapeRepeats; ++i) {
    const ScrapeRun bare = scrape_run(days, 0);
    const ScrapeRun scraped = scrape_run(days, kScrapers);
    if (i == 0) expected = bare.fingerprint;
    same = same && bare.fingerprint == expected &&
           scraped.fingerprint == expected;
    bare_s = std::min(bare_s, bare.wall_s);
    scraped_s = std::min(scraped_s, scraped.wall_s);
    scrapes += scraped.scrapes;
  }
  rep.identical("scrape.exports_identical", same);
  rep.report("scrape.unwatched_wall_s", "s", bare_s);
  rep.report("scrape.scraped_wall_s", "s", scraped_s);
  rep.report("scrape.scrapes_served", "count", static_cast<double>(scrapes));
  rep.report("scrape.perturbation_pct", "%",
             (scraped_s - bare_s) / bare_s * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: [P2SIM_BENCH_DAYS=N] %s (no options)\n",
                 argv[0]);
    return 2;
  }
  const std::optional<std::int64_t> days = bench_days();
  if (!days) {
    std::fprintf(stderr,
                 "perf_gate: P2SIM_BENCH_DAYS must be a positive integer, "
                 "got '%s'\n",
                 std::getenv("P2SIM_BENCH_DAYS"));
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const std::int64_t scrape_days = std::min<std::int64_t>(*days, 30);
  std::printf("perf_gate: %d nodes x %lld days (scrape: 16 nodes x %lld "
              "days); %u hardware threads\n",
              kNodes, static_cast<long long>(*days),
              static_cast<long long>(scrape_days), hw);
  std::printf("  %-34s %12s %-8s %-9s %s\n", "row", "value", "unit", "bound",
              "status");
  Report rep;
  try {
    rep.report("host.hardware_concurrency", "threads", hw);
    rep.report("campaign.days", "days", static_cast<double>(*days));
    power2_rows(rep);
    engine_rows(rep);
    Corpus clean;
    campaign_rows(rep, *days, hw, &clean);
    archive_rows(rep, clean, *days);
    scrape_rows(rep, scrape_days);
    rep.write_json("BENCH_perf_gate.json");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 2;
  }
  const bool failed = rep.failed();
  std::printf("perf_gate: %s (BENCH_perf_gate.json)\n",
              failed ? "FAIL" : "pass");
  return failed ? 1 : 0;
}
