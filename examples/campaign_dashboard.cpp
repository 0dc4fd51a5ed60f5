// campaign_dashboard: live pipeline health for a measurement campaign.
//
// Runs a (typically fault-injected) campaign with the telemetry session
// installed and a HealthReporter observing every 15-minute interval.  While
// the campaign runs it streams one health line per `--stride` intervals
// (coverage, live Mflops, busy nodes, queue depth, faults so far); at the
// end it renders the ASCII dashboard, writes the three telemetry exports —
//   metrics.prom      Prometheus text exposition
//   telemetry.jsonl   one JSON object per simulated-time metric
//   trace.json        Chrome trace_event JSON (chrome://tracing, Perfetto)
// — and reconciles the dashboard's running totals against the post-hoc
// measurement-loss report.  A mismatch exits nonzero: the live view and the
// forensic view must agree to the last node-sample.
//
//   campaign_dashboard [--days N] [--nodes N] [--threads N]
//                      [--faults reference|off] [--seed S] [--stride N]
//                      [--outdir DIR] [--quiet]
//                      [--checkpoint-dir DIR] [--checkpoint-every N]
//                      [--resume] [--connect HOST:PORT]
//
// `--connect HOST:PORT` runs no campaign at all: it attaches to a running
// p2sim_monitord, fetches /healthz and /api/days, and prints both — the
// remote flavor of the dashboard.  Exit status 0 iff both requests
// returned 200.
//
// `--threads N` (default 1) runs the driver's node-advance phase on N
// worker threads (0 = one per core); every export is bit-identical for
// every value, so the knob only changes how long the campaign takes.
//
// `--checkpoint-dir DIR` writes a durable campaign checkpoint every
// `--checkpoint-every N` intervals; `--resume` continues from the newest
// intact generation.  A resumed run's campaign outputs are bit-identical
// to an uninterrupted run's, but the live dashboard only watched the
// post-resume intervals, so the live-vs-forensic reconciliation is
// skipped (with a note) on resume.
//
// Examples:
//   ./build/examples/campaign_dashboard --days 30 --nodes 32
//   ./build/examples/campaign_dashboard --faults off --quiet
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/analysis/loss.hpp"
#include "src/core/simulation.hpp"
#include "src/telemetry/reporter.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/http_client.hpp"
#include "src/util/numfmt.hpp"
#include "src/workload/driver.hpp"

namespace {

struct Options {
  std::int64_t days = 270;
  int nodes = 144;
  int threads = 1;
  std::uint64_t seed = 0xC0FFEE42ULL;
  std::string faults = "reference";
  std::int64_t stride = 96;  // one health line per campaign day
  std::string outdir = "campaign_dashboard_out";
  bool quiet = false;
  std::string checkpoint_dir;
  std::int64_t checkpoint_every = 96;
  bool resume = false;
  std::string connect;  // "HOST:PORT" -> remote mode, no local campaign
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--days N] [--nodes N] [--threads N] "
               "[--faults reference|off] [--seed S] [--stride N] "
               "[--outdir DIR] [--quiet] [--checkpoint-dir DIR] "
               "[--checkpoint-every N] [--resume] [--connect HOST:PORT]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    // Numeric flags parse the whole value; "abc" or "80x" is a usage error.
    auto number = [&](auto& out) {
      const auto v = p2sim::util::parse_number<
          std::remove_reference_t<decltype(out)>>(value());
      if (!v) usage_and_exit(argv[0]);
      out = *v;
    };
    if (arg == "--days") {
      number(opt.days);
    } else if (arg == "--nodes") {
      number(opt.nodes);
    } else if (arg == "--threads") {
      number(opt.threads);
    } else if (arg == "--faults") {
      opt.faults = value();
    } else if (arg == "--seed") {
      number(opt.seed);
    } else if (arg == "--stride") {
      number(opt.stride);
    } else if (arg == "--outdir") {
      opt.outdir = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--checkpoint-dir") {
      opt.checkpoint_dir = value();
    } else if (arg == "--checkpoint-every") {
      number(opt.checkpoint_every);
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--connect") {
      opt.connect = value();
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.days <= 0 || opt.nodes <= 0 || opt.threads < 0) {
    usage_and_exit(argv[0]);
  }
  if (opt.faults != "reference" && opt.faults != "off") {
    usage_and_exit(argv[0]);
  }
  return opt;
}

bool reconcile_check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "RECONCILE FAIL: %s\n", what);
  return ok;
}

/// Remote mode: attach to a running p2sim_monitord and print its live
/// health and per-day tables.  Returns the process exit status.
int connect_and_report(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got %s\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const auto port = p2sim::util::parse_number<int>(
      std::string_view(endpoint).substr(colon + 1));
  if (!port || *port <= 0 || *port > 65535) {
    std::fprintf(stderr, "--connect: bad port in %s\n", endpoint.c_str());
    return 2;
  }
  bool ok = true;
  for (const char* target : {"/healthz", "/api/days"}) {
    const p2sim::util::HttpFetch got = p2sim::util::http_get(
        host, static_cast<std::uint16_t>(*port), target);
    if (!got.ok || got.status != 200) {
      std::fprintf(stderr, "GET %s%s failed: %s (status %d)\n",
                   endpoint.c_str(), target,
                   got.ok ? "non-200" : got.error.c_str(), got.status);
      ok = false;
      continue;
    }
    std::printf("== %s ==\n%s", target, got.body.c_str());
    if (!got.body.empty() && got.body.back() != '\n') std::printf("\n");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2sim;
  const Options opt = parse(argc, argv);
  if (!opt.connect.empty()) return connect_and_report(opt.connect);

  core::Sp2Config cfg = core::Sp2Config::small(opt.days, opt.nodes);
  cfg.driver.seed = opt.seed;
  cfg.driver.threads = opt.threads;
  if (opt.faults == "reference") {
    cfg.faults() = fault::FaultConfig::reference();
  }
  workload::ResumeReport resume_report;
  cfg.driver.checkpoint.dir = opt.checkpoint_dir;
  cfg.driver.checkpoint.every_intervals = opt.checkpoint_every;
  cfg.driver.checkpoint.resume = opt.resume;
  cfg.driver.checkpoint.report = &resume_report;

  telemetry::Session session;
  telemetry::ReporterConfig rep_cfg;
  rep_cfg.stride = opt.stride;
  rep_cfg.out = opt.quiet ? nullptr : &std::cout;
  telemetry::HealthReporter reporter(rep_cfg);
  cfg.driver.observer = &reporter;

  workload::CampaignResult campaign;
  {
    telemetry::ScopedSession scoped(session);
    campaign = workload::run_campaign(cfg.driver);
  }

  if (!opt.quiet) std::fputs(reporter.render_dashboard().c_str(), stdout);

  // --- the three telemetry exports --------------------------------------
  std::filesystem::create_directories(opt.outdir);
  {
    std::ofstream f(opt.outdir + "/metrics.prom");
    f << session.registry.prometheus_text();
    std::ofstream g(opt.outdir + "/telemetry.jsonl");
    g << session.registry.jsonl();
    std::ofstream h(opt.outdir + "/trace.json");
    h << session.tracer.chrome_trace_json();
  }

  // --- reconcile the live view against the forensic view ----------------
  // A resumed dashboard only observed the post-resume tail of the
  // campaign, so its running totals legitimately undercount the forensic
  // report; the campaign outputs themselves are still bit-identical.
  if (resume_report.resumed) {
    if (!opt.quiet) {
      std::printf(
          "\nresumed from %s (interval %lld); live-vs-forensic "
          "reconciliation skipped\n",
          resume_report.loaded_path.c_str(),
          static_cast<long long>(resume_report.resume_interval));
    }
    return 0;
  }
  const analysis::MeasurementLoss loss =
      analysis::measure_loss(campaign, cfg.table_min_coverage);
  const telemetry::HealthSnapshot& snap = reporter.snapshot();
  bool ok = true;
  ok &= reconcile_check(snap.intervals_seen == loss.intervals_expected,
              "intervals seen != expected");
  ok &= reconcile_check(snap.intervals_recorded == loss.intervals_recorded,
              "intervals recorded");
  ok &= reconcile_check(snap.node_samples_expected == loss.node_samples_expected,
              "node-samples expected");
  ok &= reconcile_check(snap.node_samples_clean == loss.node_samples_clean,
              "node-samples clean");
  ok &= reconcile_check(snap.node_samples_reprimed == loss.node_samples_reprimed,
              "node-samples reprimed");
  ok &= reconcile_check(snap.faults_injected == loss.injected.total_faults(),
              "fault totals");
  ok &= reconcile_check(snap.jobs_requeued == loss.injected.jobs_requeued,
              "jobs requeued");
  ok &= reconcile_check(loss.reconciled(), "measurement-loss self-reconciliation");

  if (!opt.quiet) {
    std::printf("\ntrace: %zu spans (%llu dropped), %zu metrics\n",
                session.tracer.events().size(),
                static_cast<unsigned long long>(session.tracer.dropped()),
                session.registry.size());
    std::printf("wrote metrics.prom, telemetry.jsonl, trace.json to %s/\n",
                opt.outdir.c_str());
    std::printf("live dashboard vs measurement-loss report: %s\n",
                ok ? "reconciled" : "MISMATCH");
  }
  return ok ? 0 : 1;
}
