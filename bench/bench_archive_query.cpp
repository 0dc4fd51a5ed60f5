// Columnar campaign archive: scan throughput, load speedup, size, and the
// query-vs-oracle byte-identity contract.
//
// Materializes one fault-free and one faulted campaign, stores both as v2+
// text records and as the columnar archive, and gates four claims:
//
//   1. single-column scan      >= 10M interval records/s (vectorized
//      decode straight out of the chunk payloads, column-pruned);
//   2. archive materialization >= 5x faster than the text load of the
//      same records (no string parsing on the hot path);
//   3. archive size            <= 30% of the text records' bytes
//      (delta-varint + const column encodings);
//   4. every query kernel renders byte-identical results from the archive
//      and from the in-memory text-path oracle — on the faulted campaign
//      too.
//
// Results land in BENCH_archive_query.json;
// tools/check_perf_regression.py --kind archive gates CI against the
// committed floors in bench/archive_query_baseline.json.
#include "bench/common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/record_io.hpp"
#include "src/archive/convert.hpp"
#include "src/archive/query.hpp"
#include "src/archive/reader.hpp"
#include "src/core/simulation.hpp"
#include "src/fault/fault.hpp"

namespace {

using namespace p2sim;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::int64_t bench_days() {
  if (const char* env = std::getenv("P2SIM_BENCH_DAYS")) {
    const std::int64_t days = std::atoll(env);
    if (days > 0) return days;
  }
  return 270;
}

/// One campaign in all three representations.
struct Corpus {
  const char* label;
  std::vector<rs2hpm::IntervalRecord> intervals;
  const pbs::JobDatabase* jobs = nullptr;
  std::string text_intervals;  ///< record_io bytes (two separate files)
  std::string text_jobs;
  std::string archive;  ///< columnar image (one file holds both tables)

  std::size_t text_bytes() const {
    return text_intervals.size() + text_jobs.size();
  }
};

Corpus make_corpus(const char* label, core::Sp2Simulation& sim) {
  Corpus c;
  c.label = label;
  c.intervals = sim.campaign().intervals;
  c.jobs = &sim.campaign().jobs;
  std::ostringstream ti;
  analysis::save_intervals(ti, c.intervals);
  c.text_intervals = ti.str();
  std::ostringstream tj;
  analysis::save_jobs(tj, *c.jobs);
  c.text_jobs = tj.str();
  c.archive = archive::archive_from_records(
      c.intervals, c.jobs->all(), archive::kDefaultRowsPerChunk);
  return c;
}

/// Gate 1: single-column scan throughput over the interval table.
double scan_mrecs_per_s(const archive::ArchiveReader& reader) {
  const archive::ArchiveTableSource src(reader,
                                        archive::TableKind::kIntervals);
  // Repeat until ~0.2 s of work so small campaigns still time stably.
  std::uint64_t rows = 0;
  int reps = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    archive::ColumnAggregate agg;
    aggregate_column(src, "user.cycles", &agg);
    benchmark::DoNotOptimize(agg.sum);
    rows += agg.rows;
    ++reps;
  } while (seconds_since(t0) < 0.2 || reps < 3);
  return static_cast<double>(rows) / seconds_since(t0) / 1e6;
}

/// Gate 2: full-table materialization, archive vs text.
struct LoadTimes {
  double text_s = 0.0;
  double archive_s = 0.0;
  double speedup() const { return archive_s > 0 ? text_s / archive_s : 0; }
};

LoadTimes load_times(const Corpus& c, const archive::ArchiveReader& reader) {
  LoadTimes t;
  // Both sides load intervals AND jobs end to end; best of 3 each so a
  // stray scheduler hiccup cannot fail the gate.
  for (int rep = 0; rep < 3; ++rep) {
    std::istringstream in_i(c.text_intervals);
    std::istringstream in_j(c.text_jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto intervals = analysis::load_intervals(in_i);
    const auto jobs = analysis::load_jobs(in_j);
    const double s = seconds_since(t0);
    benchmark::DoNotOptimize(intervals.size() + jobs.size());
    if (rep == 0 || s < t.text_s) t.text_s = s;
  }
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto intervals = archive::to_intervals(reader);
    const auto jobs = archive::to_jobs(reader);
    const double s = seconds_since(t0);
    benchmark::DoNotOptimize(intervals.size() + jobs.size());
    if (rep == 0 || s < t.archive_s) t.archive_s = s;
  }
  return t;
}

/// Gate 4: every query kernel, archive vs in-memory oracle, byte compared.
bool queries_identical(const Corpus& c, const archive::ArchiveReader& reader,
                       std::string* detail) {
  const archive::ArchiveTableSource archive_jobs(reader,
                                                 archive::TableKind::kJobs);
  const archive::MemoryJobSource oracle_jobs(c.jobs->all());
  const std::vector<const archive::TableSource*> from_archive{&archive_jobs};
  const std::vector<const archive::TableSource*> from_oracle{&oracle_jobs};

  struct Case {
    const char* name;
    std::string a, b;
  };
  std::vector<Case> cases;
  cases.push_back({"top_users",
                   render_top_users(archive::top_users(from_archive, 10)),
                   render_top_users(archive::top_users(from_oracle, 10))});
  for (int nodes : {16, 64}) {
    cases.push_back(
        {"miss_ratio",
         render_miss_ratio(
             archive::miss_ratio_distribution(from_archive, nodes)),
         render_miss_ratio(
             archive::miss_ratio_distribution(from_oracle, nodes))});
  }
  cases.push_back({"paging",
                   render_paging(archive::paging_suspects(from_archive)),
                   render_paging(archive::paging_suspects(from_oracle))});
  bool ok = true;
  for (const Case& k : cases) {
    if (k.a != k.b) {
      ok = false;
      *detail += std::string(c.label) + "/" + k.name + " ";
    }
  }
  return ok;
}

void report() {
  bench::banner(
      "Columnar campaign archive: scan rate, load speedup, size, fidelity",
      "the 'stored for later analysis' pipeline of section 3");
  const std::int64_t days = bench_days();
  std::printf("  campaign: 144 nodes x %lld days (+ faulted twin)\n",
              static_cast<long long>(days));

  core::Sp2Config clean_cfg;
  clean_cfg.driver.days = days;
  core::Sp2Simulation clean_sim(clean_cfg);
  core::Sp2Config faulted_cfg;
  faulted_cfg.driver.days = days;
  faulted_cfg.faults() = fault::FaultConfig::reference();
  core::Sp2Simulation faulted_sim(faulted_cfg);

  std::vector<Corpus> corpora;
  corpora.push_back(make_corpus("clean", clean_sim));
  corpora.push_back(make_corpus("faulted", faulted_sim));

  const Corpus& main_c = corpora.front();
  const archive::ArchiveReader reader =
      archive::ArchiveReader::from_bytes(main_c.archive);

  const double mrecs = scan_mrecs_per_s(reader);
  const LoadTimes loads = load_times(main_c, reader);
  const double size_ratio = static_cast<double>(main_c.archive.size()) /
                            static_cast<double>(main_c.text_bytes());

  bool identical = true;
  std::string detail;
  for (const Corpus& c : corpora) {
    const archive::ArchiveReader r =
        archive::ArchiveReader::from_bytes(c.archive);
    identical = queries_identical(c, r, &detail) && identical;
  }

  std::printf("  single-column scan   %10.1f M interval records/s "
              "(gate: >= 10)\n",
              mrecs);
  std::printf("  full load            text %8.3f s  archive %8.3f s  "
              "speedup %5.2fx (gate: >= 5x)\n",
              loads.text_s, loads.archive_s, loads.speedup());
  std::printf("  size                 text %8zu B  archive %8zu B  "
              "ratio %5.1f%% (gate: <= 30%%)\n",
              main_c.text_bytes(), main_c.archive.size(),
              100.0 * size_ratio);
  std::printf("  query vs text-path oracle (clean + faulted): %s %s\n",
              identical ? "byte-identical" : "MISMATCH", detail.c_str());

  std::ofstream json("BENCH_archive_query.json");
  json << "{\n  \"nodes\": 144,\n  \"days\": " << days
       << ",\n  \"scan_mrecs_per_s\": " << mrecs
       << ",\n  \"text_load_seconds\": " << loads.text_s
       << ",\n  \"archive_load_seconds\": " << loads.archive_s
       << ",\n  \"load_speedup_vs_text\": " << loads.speedup()
       << ",\n  \"text_bytes\": " << main_c.text_bytes()
       << ",\n  \"archive_bytes\": " << main_c.archive.size()
       << ",\n  \"size_ratio\": " << size_ratio
       << ",\n  \"queries_identical\": " << (identical ? "true" : "false")
       << "\n}\n";

  const bool gates_ok =
      mrecs >= 10.0 && loads.speedup() >= 5.0 && size_ratio <= 0.30;
  if (!identical || !gates_ok) {
    std::fflush(stdout);
    std::exit(1);  // the archive's whole contract, enforced
  }
}

// Microscope views for --benchmark_filter.
void BM_SingleColumnScan(benchmark::State& state) {
  static const std::string image = [] {
    core::Sp2Config cfg = core::Sp2Config::small(30, 32);
    core::Sp2Simulation sim(cfg);
    return archive::archive_from_records(sim.campaign().intervals,
                                         sim.campaign().jobs.all(),
                                         archive::kDefaultRowsPerChunk);
  }();
  const archive::ArchiveReader reader =
      archive::ArchiveReader::from_bytes(image);
  const archive::ArchiveTableSource src(reader,
                                        archive::TableKind::kIntervals);
  std::uint64_t rows = 0;
  for (auto _ : state) {
    archive::ColumnAggregate agg;
    aggregate_column(src, "user.cycles", &agg);
    benchmark::DoNotOptimize(agg.sum);
    rows += agg.rows;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_SingleColumnScan);

void BM_TopUsersQuery(benchmark::State& state) {
  static const std::string image = [] {
    core::Sp2Config cfg = core::Sp2Config::small(30, 32);
    core::Sp2Simulation sim(cfg);
    return archive::archive_from_records(sim.campaign().intervals,
                                         sim.campaign().jobs.all(),
                                         archive::kDefaultRowsPerChunk);
  }();
  const archive::ArchiveReader reader =
      archive::ArchiveReader::from_bytes(image);
  const archive::ArchiveTableSource jobs(reader, archive::TableKind::kJobs);
  const std::vector<const archive::TableSource*> sources{&jobs};
  for (auto _ : state) {
    const archive::TopUsersResult r = archive::top_users(sources, 10);
    benchmark::DoNotOptimize(r.jobs_analyzed);
  }
}
BENCHMARK(BM_TopUsersQuery);

}  // namespace

P2SIM_BENCH_MAIN(report)
