// Hot-path overhaul: closed-form accrual vs the slice-by-slice reference
// oracle, lock-free signature lookup, and the end-to-end campaign.
//
// Reports (a) interval-engine throughput — Node::advance on the paper's
// 15-minute busy intervals — for the reference and batched paths, with a
// hard >= 5x gate; (b) warm signature-cache lookup latency; and (c) full
// paper-scale campaign wall time at 1/2/4/8 threads on the fast path next
// to the serial reference oracle, hard-asserting that Table 2 is
// byte-identical between the two accrual paths at every thread count.
// Violating either gate exits nonzero: the fast path's entire claim is
// "same bytes, less time".  Results land in BENCH_hot_path.json;
// P2SIM_BENCH_DAYS overrides the campaign length (default 270).
#include "bench/common.hpp"

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/tables.hpp"
#include "src/cluster/node.hpp"
#include "src/power2/signature.hpp"

namespace {

using namespace p2sim;

std::int64_t bench_days() {
  if (const char* env = std::getenv("P2SIM_BENCH_DAYS")) {
    const std::int64_t days = std::atoll(env);
    if (days > 0) return days;
  }
  return 270;
}

power2::KernelDesc bench_kernel(const char* name, std::size_t bytes,
                                int stride) {
  power2::KernelBuilder b(name);
  const auto s = b.stream(bytes, stride);
  const auto l = b.load(s);
  b.fma(l);
  b.fp_add();
  return b.warmup(64).measure(2048).build();
}

cluster::ActivityProfile busy_profile() {
  cluster::ActivityProfile act;
  act.compute_fraction = 0.7;
  act.comm_wait_fraction = 0.2;
  act.io_wait_fraction = 0.05;
  act.comm_send_bytes_per_s = 1.2e6;
  act.comm_recv_bytes_per_s = 1.2e6;
  act.disk_read_bytes_per_s = 8e3;
  act.disk_write_bytes_per_s = 15e3;
  act.page_faults_per_s = 1.0;
  return act;
}

/// Intervals per second for one accrual path: repeated 900 s busy advances
/// (the paper's collection quantum) under a measured signature.
double intervals_per_second(bool reference, const power2::EventSignature& sig,
                            double min_seconds = 0.3) {
  cluster::NodeConfig cfg;
  cfg.reference_accrual = reference;
  cluster::Node node(1, cfg);
  const cluster::ActivityProfile act = busy_profile();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t intervals = 0;
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 512; ++i) node.advance(900.0, &sig, act);
    intervals += 512;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  } while (elapsed < min_seconds);
  return static_cast<double>(intervals) / elapsed;
}

/// Warm-cache lookup latency in nanoseconds per get().
double warm_lookup_ns() {
  power2::SignatureCache cache;
  std::vector<power2::KernelDesc> kernels;
  for (int i = 0; i < 8; ++i) {
    kernels.push_back(bench_kernel(("lookup_" + std::to_string(i)).c_str(),
                                   std::size_t{1} << (14 + i % 4), 8 + i));
  }
  for (const power2::KernelDesc& k : kernels) cache.get(k);
  const int rounds = 200000;
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    sink += cache.get(kernels[static_cast<std::size_t>(r) % kernels.size()])
                .cycles_per_iter;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(sink);
  return elapsed * 1e9 / rounds;
}

struct CampaignRun {
  std::string label;
  int threads = 0;
  double wall_seconds = 0.0;
  std::string table2;
};

CampaignRun run_campaign_at(const char* label, int threads, bool reference,
                            std::int64_t days) {
  core::Sp2Config cfg;
  cfg.driver.days = days;
  cfg.driver.node.reference_accrual = reference;
  cfg.threads() = threads;
  core::Sp2Simulation sim(cfg);
  CampaignRun out;
  out.label = label;
  out.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  sim.campaign();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.table2 = analysis::format_table2(sim.table2());
  return out;
}

void report() {
  bench::banner("Interval-engine hot path: closed-form accrual + SoA scaling",
                "the measurement machinery of sections 2-3");
  const std::int64_t days = bench_days();
  const unsigned hw = std::thread::hardware_concurrency();

  // (a) Interval-engine throughput, batched vs reference oracle.
  power2::Power2Core core;
  const power2::EventSignature sig =
      power2::measure_signature(core, bench_kernel("hot_path", 1 << 20, 8));
  const double ref_ips = intervals_per_second(/*reference=*/true, sig);
  const double fast_ips = intervals_per_second(/*reference=*/false, sig);
  const double speedup = fast_ips / ref_ips;
  // 900 s intervals decompose into 50 s slices: 18 per interval.
  const double slices_per_interval = 18.0;
  std::printf("  interval engine (900 s busy intervals):\n");
  std::printf("    reference  %12.0f intervals/s  (%12.0f slices/s)\n",
              ref_ips, ref_ips * slices_per_interval);
  std::printf("    batched    %12.0f intervals/s  (%12.0f slices/s eq.)\n",
              fast_ips, fast_ips * slices_per_interval);
  std::printf("    speedup    %12.2fx  (gate: >= 5x)\n", speedup);

  // (b) Warm signature lookup.
  const double lookup_ns = warm_lookup_ns();
  std::printf("  signature lookup (warm cache):    %8.1f ns\n", lookup_ns);

  // (c) Full campaign: fast path across thread counts vs serial reference.
  // Multi-thread speedup figures are only published when the host really
  // has that many cores; oversubscribed wall times are scheduling noise,
  // not scaling data.
  const bool scaling_valid = hw >= 8u;
  std::printf("  campaign: 144 nodes x %lld days; host has %u hardware "
              "thread(s)\n",
              static_cast<long long>(days), hw);
  if (!scaling_valid) {
    std::printf("    !! host has %u hardware thread(s) < 8: multi-thread "
                "speedup figures withheld\n",
                hw);
  }
  const CampaignRun ref_run =
      run_campaign_at("reference", 1, /*reference=*/true, days);
  std::printf("    reference  threads=1  wall %8.2f s\n", ref_run.wall_seconds);
  std::vector<CampaignRun> runs;
  for (int threads : {1, 2, 4, 8}) {
    runs.push_back(run_campaign_at("fast", threads, /*reference=*/false, days));
    const CampaignRun& r = runs.back();
    if (r.threads == 1 || scaling_valid) {
      std::printf("    fast       threads=%d  wall %8.2f s  vs reference "
                  "%5.2fx\n",
                  r.threads, r.wall_seconds,
                  ref_run.wall_seconds / r.wall_seconds);
    } else {
      std::printf("    fast       threads=%d  wall %8.2f s\n", r.threads,
                  r.wall_seconds);
    }
  }

  bool identical = true;
  for (const CampaignRun& r : runs) {
    if (r.table2 != ref_run.table2) {
      identical = false;
      std::printf("  !! Table 2 (fast, threads=%d) differs from reference\n",
                  r.threads);
    }
  }
  std::printf("  Table 2 fast vs reference: %s\n",
              identical ? "byte-identical" : "MISMATCH");

  std::ofstream json = bench::open_csv("BENCH_hot_path.json");
  json << "{\n  \"nodes\": 144,\n  \"days\": " << days
       << ",\n  \"hardware_concurrency\": " << hw
       << ",\n  \"interval_engine\": {\n"
       << "    \"reference_intervals_per_s\": " << ref_ips << ",\n"
       << "    \"fast_intervals_per_s\": " << fast_ips << ",\n"
       << "    \"reference_slices_per_s\": " << ref_ips * slices_per_interval
       << ",\n"
       << "    \"speedup\": " << speedup << "\n  },\n"
       << "  \"signature_lookup_ns\": " << lookup_ns << ",\n"
       << "  \"table2_identical\": " << (identical ? "true" : "false")
       << ",\n  \"scaling_valid\": " << (scaling_valid ? "true" : "false");
  if (!scaling_valid) {
    // Refusal discipline: say out loud why the wider runs carry no
    // speedup figure, so downstream tools never mistake withheld data
    // for missing data.
    json << ",\n  \"scaling_refusal\": \"host has " << hw
         << " hardware thread(s) < 8; multi-thread speedup figures "
            "withheld\"";
  }
  json << ",\n  \"campaign\": {\n    \"reference_wall_seconds\": "
       << ref_run.wall_seconds << ",\n    \"fast_runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << "      {\"threads\": " << runs[i].threads
         << ", \"wall_seconds\": " << runs[i].wall_seconds;
    if (runs[i].threads == 1 || scaling_valid) {
      // threads=1 is an algorithmic (fast vs reference) comparison and
      // stays valid on any host; wider runs only claim speedup when the
      // cores exist.
      json << ", \"speedup_vs_reference\": "
           << ref_run.wall_seconds / runs[i].wall_seconds;
    }
    json << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";

  if (!identical || speedup < 5.0) {
    std::fflush(stdout);
    std::exit(1);  // "same bytes, less time" is the fast path's contract
  }
}

// Microscope views of the same three hot paths for `--benchmark_filter`.
void BM_AdvanceReference(benchmark::State& state) {
  cluster::NodeConfig cfg;
  cfg.reference_accrual = true;
  cluster::Node node(1, cfg);
  power2::Power2Core core;
  const power2::EventSignature sig =
      power2::measure_signature(core, bench_kernel("bm_ref", 1 << 18, 8));
  const cluster::ActivityProfile act = busy_profile();
  for (auto _ : state) node.advance(900.0, &sig, act);
}
BENCHMARK(BM_AdvanceReference);

void BM_AdvanceBatched(benchmark::State& state) {
  cluster::Node node(1);
  power2::Power2Core core;
  const power2::EventSignature sig =
      power2::measure_signature(core, bench_kernel("bm_fast", 1 << 18, 8));
  const cluster::ActivityProfile act = busy_profile();
  for (auto _ : state) node.advance(900.0, &sig, act);
}
BENCHMARK(BM_AdvanceBatched);

void BM_SignatureScaleInto(benchmark::State& state) {
  power2::Power2Core core;
  const power2::EventSignature sig =
      power2::measure_signature(core, bench_kernel("bm_scale", 1 << 18, 8));
  power2::EventCounts ev;
  for (auto _ : state) {
    sig.scale_into(3.0e9, ev);
    benchmark::DoNotOptimize(ev);
  }
}
BENCHMARK(BM_SignatureScaleInto);

}  // namespace

P2SIM_BENCH_MAIN(report)
