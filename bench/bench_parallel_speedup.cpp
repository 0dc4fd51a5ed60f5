// Parallel campaign engine: speedup and the bit-identity guarantee.
//
// Runs the paper-scale campaign (144 nodes) at threads = 1, 2, 4 and 8
// with the columnar archive writer enabled and (a) hard-asserts that both
// Table 2 and the archive's bytes are identical across thread counts — a
// mismatch exits nonzero, because determinism is the engine's contract,
// not a statistic — and (b) reports wall seconds, speedup and the
// per-phase wall-clock breakdown (the serial fraction bounds achievable
// speedup by Amdahl's law; the `archive` row is the batched record-
// emission tail), written to BENCH_parallel_speedup.json.
//
// Scaling claims are host-gated: when hardware_concurrency is below the
// widest thread count, the bench still runs (the determinism assert is
// thread-count-independent) but refuses to publish speedup figures —
// oversubscribed wall times are scheduling noise, not scaling data.  The
// JSON carries "scaling_valid" so tools/check_perf_regression.py knows
// whether the numbers are gateable.  P2SIM_BENCH_DAYS overrides the
// campaign length (default 270) for quick local runs.
#include "bench/common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/tables.hpp"
#include "src/core/simulation.hpp"
#include "src/util/task_pool.hpp"
#include "src/workload/driver.hpp"

namespace {

using namespace p2sim;

constexpr int kMaxThreads = 8;

std::int64_t bench_days() {
  if (const char* env = std::getenv("P2SIM_BENCH_DAYS")) {
    const std::int64_t days = std::atoll(env);
    if (days > 0) return days;
  }
  return 270;
}

struct TimedRun {
  int threads = 0;
  double wall_seconds = 0.0;
  std::string table2;
  std::string archive;  ///< the columnar archive's bytes, thread-invariant
  workload::PhaseTimings timings;
};

/// Reads a file's bytes and removes it (the per-run archive scratch).
std::string slurp_and_remove(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  std::remove(path.c_str());
  return body.str();
}

TimedRun run_at(int threads, std::int64_t days) {
  TimedRun out;
  out.threads = threads;
  core::Sp2Config cfg;
  cfg.driver.days = days;
  cfg.threads() = threads;
  cfg.driver.phase_timings = &out.timings;
  // The archive writer stays on so the phase breakdown shows the batched
  // record-emission tail (the serial cost the columnar sink replaced the
  // per-line text path with) and so the byte-identity assert below covers
  // the archive alongside Table 2.
  const std::string archive_path =
      "bench_speedup_t" + std::to_string(threads) + ".p2a";
  cfg.archive() = archive_path;
  core::Sp2Simulation sim(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  sim.campaign();  // the driver runs here, on `threads` workers
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.table2 = analysis::format_table2(sim.table2());
  out.archive = slurp_and_remove(archive_path);
  return out;
}

double serial_fraction(const workload::PhaseTimings& t) {
  const std::int64_t total = t.total_us();
  return total > 0 ? static_cast<double>(t.serial_us()) /
                         static_cast<double>(total)
                   : 0.0;
}

void report() {
  bench::banner("Parallel campaign engine: speedup at bit-identical output",
                "the 144-node campaign of section 2");
  const std::int64_t days = bench_days();
  const unsigned hw = std::thread::hardware_concurrency();
  const bool scaling_valid = hw >= static_cast<unsigned>(kMaxThreads);
  std::printf("  campaign: 144 nodes x %lld days; host has %u hardware "
              "thread(s)\n",
              static_cast<long long>(days), hw);
  if (!scaling_valid) {
    std::printf("  !! host has %u hardware thread(s) < %d: speedup figures "
                "withheld (wall times shown for reference only; the "
                "byte-identity assert still gates)\n",
                hw, kMaxThreads);
  }

  std::vector<TimedRun> runs;
  for (int threads : {1, 2, 4, 8}) {
    runs.push_back(run_at(threads, days));
    const TimedRun& r = runs.back();
    if (scaling_valid) {
      std::printf("  threads=%d  wall %8.2f s  speedup %5.2fx  serial "
                  "fraction %5.1f%%\n",
                  r.threads, r.wall_seconds,
                  runs.front().wall_seconds / r.wall_seconds,
                  100.0 * serial_fraction(r.timings));
    } else {
      std::printf("  threads=%d  wall %8.2f s  serial fraction %5.1f%%\n",
                  r.threads, r.wall_seconds,
                  100.0 * serial_fraction(r.timings));
    }
  }

  // Per-phase wall-clock breakdown: one row per kPhases entry, one column
  // per thread count.  The serial rows are the Amdahl bound; the two
  // parallel rows (measure, lane-pipeline) are where workers help.
  std::printf("  phase breakdown (wall ms):\n");
  std::printf("    %-14s %-8s", "phase", "kind");
  for (const TimedRun& r : runs) std::printf("  t=%-7d", r.threads);
  std::printf("\n");
  for (std::size_t i = 0; i < workload::WorkloadDriver::kPhases.size();
       ++i) {
    const auto& info = workload::WorkloadDriver::kPhases[i];
    std::printf("    %-14s %-8s", info.name,
                info.parallel ? "parallel" : "serial");
    for (const TimedRun& r : runs) {
      std::printf("  %8.1f",
                  static_cast<double>(r.timings.wall_us[i]) / 1000.0);
    }
    std::printf("\n");
  }

  bool identical = true;
  for (const TimedRun& r : runs) {
    if (r.table2 != runs.front().table2) {
      identical = false;
      std::printf("  !! Table 2 at threads=%d differs from threads=1\n",
                  r.threads);
    }
    if (r.archive != runs.front().archive) {
      identical = false;
      std::printf("  !! archive bytes at threads=%d differ from threads=1\n",
                  r.threads);
    }
  }
  std::printf("  Table 2 + archive bytes across thread counts: %s\n",
              identical ? "byte-identical" : "MISMATCH");

  std::ofstream json("BENCH_parallel_speedup.json");
  json << "{\n  \"nodes\": 144,\n  \"days\": " << days
       << ",\n  \"hardware_concurrency\": " << hw
       << ",\n  \"max_threads\": " << kMaxThreads
       << ",\n  \"scaling_valid\": " << (scaling_valid ? "true" : "false");
  if (!scaling_valid) {
    json << ",\n  \"scaling_refusal\": \"host has " << hw
         << " hardware thread(s) < " << kMaxThreads
         << "; speedup figures withheld\"";
  }
  json << ",\n  \"table2_identical\": " << (identical ? "true" : "false")
       << ",\n  \"archive_bytes\": " << runs.front().archive.size()
       << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TimedRun& r = runs[i];
    json << "    {\"threads\": " << r.threads
         << ", \"wall_seconds\": " << r.wall_seconds;
    if (scaling_valid) {
      json << ", \"speedup\": "
           << runs.front().wall_seconds / r.wall_seconds;
    }
    json << ", \"serial_fraction\": " << serial_fraction(r.timings)
         << ", \"horizons\": " << r.timings.horizons
         << ", \"intervals\": " << r.timings.intervals
         << ",\n     \"phases\": [";
    for (std::size_t p = 0; p < workload::WorkloadDriver::kPhases.size();
         ++p) {
      const auto& info = workload::WorkloadDriver::kPhases[p];
      json << (p == 0 ? "" : ", ") << "{\"name\": \"" << info.name
           << "\", \"parallel\": " << (info.parallel ? "true" : "false")
           << ", \"wall_us\": " << r.timings.wall_us[p] << "}";
    }
    json << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (!identical) {
    std::fflush(stdout);
    std::exit(1);  // the determinism contract is the point of the engine
  }
}

// Dispatch overhead of one pool round-trip (the driver pays this once per
// pass): publish, run 144 trivial shards, barrier.
void BM_TaskPoolDispatch(benchmark::State& state) {
  util::TaskPool pool(static_cast<int>(state.range(0)));
  std::vector<double> sink(144, 0.0);
  for (auto _ : state) {
    pool.run(sink.size(), [&sink](int, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sink[i] += 1.0;
    });
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_TaskPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

P2SIM_BENCH_MAIN(report)
