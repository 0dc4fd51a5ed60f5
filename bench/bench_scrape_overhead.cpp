// Monitoring-plane overhead: scraping must not perturb the measurement.
//
// Runs the same fault-injected multi-threaded campaign twice — once with
// nobody watching and once while 8 client threads continuously scrape the
// live HTTP endpoints — and
// (a) hard-asserts bit-identity: the simulated-time telemetry exports
//     (metrics JSONL, Chrome trace) and the campaign's own results are
//     byte-for-byte identical with 0 and 8 scrapers.  A mismatch exits
//     nonzero: non-perturbation is the monitoring plane's contract, not a
//     statistic; and
// (b) reports the wall-clock perturbation (min-of-K walls, scraped vs
//     unwatched) against the < 2 % budget, written with the scrape volume
//     to BENCH_scrape_overhead.json.
// P2SIM_BENCH_DAYS overrides the campaign length (default 30) for quick
// local runs.
#include "bench/common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/loss.hpp"
#include "src/core/simulation.hpp"
#include "src/telemetry/service.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/http_client.hpp"
#include "src/util/http_server.hpp"
#include "src/workload/driver.hpp"

namespace {

using namespace p2sim;

constexpr int kScrapers = 8;
constexpr int kRepeats = 3;
// Per-client pause between scrapes.  100 ms across 8 clients is ~80
// requests/s — two orders of magnitude denser than a production scrape
// interval, yet small enough CPU that the < 2 % budget is meaningful even
// when the host has fewer cores than campaign workers + scrapers (there,
// every scrape cycle necessarily comes out of the campaign's slice).
constexpr auto kScrapePause = std::chrono::milliseconds(100);

std::int64_t bench_days() {
  if (const char* env = std::getenv("P2SIM_BENCH_DAYS")) {
    const std::int64_t days = std::atoll(env);
    if (days > 0) return days;
  }
  return 30;
}

workload::DriverConfig campaign_config() {
  core::Sp2Config cfg = core::Sp2Config::small(bench_days(), /*nodes=*/16);
  cfg.faults() = fault::FaultConfig::reference();
  cfg.driver.threads = 4;
  return cfg.driver;
}

/// Everything that must be bit-identical whether or not anyone scrapes:
/// the campaign's own records plus the simulated-time telemetry exports.
/// Doubles print as hex floats so the digest round-trips the bits.
std::string fingerprint(const workload::CampaignResult& result,
                        const telemetry::Session& session) {
  char buf[256];
  const analysis::MeasurementLoss loss = analysis::measure_loss(result);
  std::snprintf(buf, sizeof buf,
                "intervals=%zu jobs=%zu busy=%a faults=%lld clean=%lld\n",
                result.intervals.size(), result.jobs.size(),
                result.total_busy_node_seconds,
                static_cast<long long>(loss.injected.total_faults()),
                static_cast<long long>(loss.node_samples_clean));
  std::string fp = buf;
  fp += session.registry.jsonl();
  fp += session.tracer.chrome_trace_json(/*include_wall=*/false);
  return fp;
}

struct TimedRun {
  double wall_seconds = 0.0;
  std::uint64_t scrapes = 0;
  std::string fingerprint;
};

TimedRun run_campaign(int scrapers) {
  telemetry::Session session;
  telemetry::MonitorService svc(session);
  util::HttpServer server;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::vector<std::thread> clients;

  if (scrapers > 0) {
    util::HttpServerConfig scfg;
    scfg.observer = &svc;
    std::string error;
    if (!server.start(
            scfg,
            [&svc](const util::HttpRequest& req) { return svc.handle(req); },
            &error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      std::exit(1);
    }
    const std::uint16_t port = server.port();
    for (int c = 0; c < scrapers; ++c) {
      clients.emplace_back([port, c, &stop, &scrapes] {
        const char* targets[] = {"/metrics", "/healthz", "/api/days",
                                 "/api/jobs?limit=8"};
        std::size_t i = static_cast<std::size_t>(c);
        while (!stop.load(std::memory_order_acquire)) {
          (void)util::http_get("127.0.0.1", port, targets[i++ % 4]);
          scrapes.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(kScrapePause);
        }
      });
    }
  }

  workload::DriverConfig cfg = campaign_config();
  if (scrapers > 0) cfg.observer = &svc;
  workload::CampaignResult result;
  TimedRun out;
  {
    telemetry::ScopedSession scoped(session);
    const auto t0 = std::chrono::steady_clock::now();
    result = workload::run_campaign(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  server.stop();
  out.scrapes = scrapes.load();
  out.fingerprint = fingerprint(result, session);
  return out;
}

void report() {
  bench::banner("Monitoring plane: scrape overhead and non-perturbation",
                "the always-on HPM collection premise of section 1");
  const std::int64_t days = bench_days();
  std::printf("  campaign: 16 nodes x %lld days, 4 worker threads, "
              "reference faults; %d scraper clients vs none\n",
              static_cast<long long>(days), kScrapers);

  double wall_bare = 1e300;
  double wall_scraped = 1e300;
  std::uint64_t scrapes = 0;
  std::string fp_bare;
  std::string fp_scraped;
  bool identical = true;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const TimedRun bare = run_campaign(/*scrapers=*/0);
    const TimedRun scraped = run_campaign(kScrapers);
    wall_bare = std::min(wall_bare, bare.wall_seconds);
    wall_scraped = std::min(wall_scraped, scraped.wall_seconds);
    scrapes += scraped.scrapes;
    if (rep == 0) {
      fp_bare = bare.fingerprint;
      fp_scraped = scraped.fingerprint;
    }
    if (bare.fingerprint != fp_bare || scraped.fingerprint != fp_bare) {
      identical = false;
    }
    std::printf("  rep %d  unwatched %7.3f s   scraped %7.3f s   "
                "(%llu scrapes served)\n",
                rep, bare.wall_seconds, scraped.wall_seconds,
                static_cast<unsigned long long>(scraped.scrapes));
  }

  const double perturbation =
      (wall_scraped - wall_bare) / wall_bare * 100.0;
  std::printf("  min wall: unwatched %7.3f s, scraped %7.3f s  ->  "
              "perturbation %+.2f %% (budget < 2 %%)\n",
              wall_bare, wall_scraped, perturbation);
  std::printf("  exports 0 vs %d scrapers: %s\n", kScrapers,
              identical ? "bit-identical" : "MISMATCH");

  std::ofstream json("BENCH_scrape_overhead.json");
  json << "{\n  \"nodes\": 16,\n  \"days\": " << days
       << ",\n  \"worker_threads\": 4,\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"scrapers\": " << kScrapers
       << ",\n  \"repeats\": " << kRepeats
       << ",\n  \"scrapes_served\": " << scrapes
       << ",\n  \"wall_seconds_unwatched\": " << wall_bare
       << ",\n  \"wall_seconds_scraped\": " << wall_scraped
       << ",\n  \"perturbation_percent\": " << perturbation
       << ",\n  \"bit_identical\": " << (identical ? "true" : "false")
       << "\n}\n";

  if (!identical) {
    std::fflush(stdout);
    std::exit(1);  // scraping perturbed the measurement: contract broken
  }
}

// The scrape hot path in isolation: rendering the exposition text and
// taking a fold-consistent snapshot of a campaign-sized registry.
telemetry::Session& populated_session() {
  static telemetry::Session* session = [] {
    auto* s = new telemetry::Session();
    telemetry::ScopedSession scoped(*s);
    workload::DriverConfig cfg = campaign_config();
    cfg.days = 2;
    (void)workload::run_campaign(cfg);
    return s;
  }();
  return *session;
}

void BM_PrometheusRender(benchmark::State& state) {
  telemetry::Session& s = populated_session();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.registry.prometheus_text());
  }
}
BENCHMARK(BM_PrometheusRender);

void BM_ConsistentSnapshot(benchmark::State& state) {
  telemetry::Session& s = populated_session();
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::consistent_snapshot(s));
  }
}
BENCHMARK(BM_ConsistentSnapshot);

}  // namespace

P2SIM_BENCH_MAIN(report)
