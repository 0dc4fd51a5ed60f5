// p2sim_monitord: the always-on monitoring daemon.  Runs measurement
// campaigns back to back with the telemetry session installed and serves
// the live monitoring plane on 127.0.0.1: GET /metrics (Prometheus),
// /healthz (liveness + cumulative health), /api/days (per-day Gflops and
// coverage), /api/jobs?limit=N (recent jobs), /trace (the last campaign's
// Chrome trace) and /quitquitquit.  Scrapes never perturb campaign results.
//
// The campaign flags are the ones every campaign binary shares
// (examples/campaign_cli.hpp); campaign k runs with seed S+k, and the
// --records and --outdir files hold the latest campaign.  `--campaigns N`
// exits after N campaigns (0 = until /quitquitquit); `--checkpoint-dir`
// requires `--campaigns 1`, since every campaign has its own seed and so
// its own checkpoint fingerprint.  `--port-file` writes
// the bound port once the server listens (the handshake for `--port 0`);
// `--scrape-dump FILE` writes one self-scrape of /metrics after the first
// campaign.  Each campaign prints a health line per simulated day and an
// ASCII dashboard (`--quiet` skips both); `--outdir DIR` writes
// metrics.prom, telemetry.jsonl (simulated-time metrics only) and
// trace.json.  After every campaign the live view is reconciled against
// the measurement-loss report (analysis::reconcile_live): a mismatch exits
// 1, and after a resume the check is skipped with a note.
//
//   p2sim_monitord --days 6 --nodes 16 --faults --port-file /tmp/p2sim.port
//   curl "http://127.0.0.1:$(cat /tmp/p2sim.port)/healthz"
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "examples/campaign_cli.hpp"
#include "src/analysis/loss.hpp"
#include "src/telemetry/reporter.hpp"
#include "src/telemetry/service.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/http_client.hpp"
#include "src/util/http_server.hpp"

namespace {

using namespace p2sim;

/// Hands every sample to the service and to this campaign's reporter.
struct Tee final : telemetry::CampaignObserver {
  Tee(telemetry::MonitorService& s, telemetry::HealthReporter& r)
      : svc(s), rep(r) {}
  void on_interval(const telemetry::HealthSample& s) override {
    svc.on_interval(s);
    rep.on_interval(s);
  }
  void on_job(const telemetry::JobSample& s) override { svc.on_job(s); }
  telemetry::MonitorService& svc;
  telemetry::HealthReporter& rep;
};

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv,
                 std::string("usage: p2sim_monitord [campaign flags] "
                             "[--port N] [--port-file FILE] [--campaigns N] "
                             "[--scrape-dump FILE] [--outdir DIR] "
                             "[--quiet]\n") +
                     cli::kCampaignFlags);
  int port = 0;
  std::string port_file, scrape_dump, outdir;
  std::int64_t campaigns = 1;
  bool quiet = false;
  const cli::CampaignOptions opt = cli::parse_campaign(
      args, {{"--port", [&] { args.number(port); }},
             {"--port-file", [&] { port_file = args.value(); }},
             {"--campaigns", [&] { args.number(campaigns); }},
             {"--scrape-dump", [&] { scrape_dump = args.value(); }},
             {"--outdir", [&] { outdir = args.value(); }},
             {"--quiet", [&] { quiet = true; }}});
  if (campaigns < 0 || port < 0 || port > 65535) {
    args.fail("--campaigns must be >= 0 and --port in [0, 65535]");
  }
  // Each campaign runs under its own seed, so campaigns sharing one
  // checkpoint directory would refuse each other's generations on resume.
  if (campaigns != 1 && !opt.checkpoint_dir.empty()) {
    args.fail("--checkpoint-dir needs --campaigns 1");
  }

  telemetry::Session session;
  telemetry::ScopedSession scoped(session);
  telemetry::MonitorService svc(session);

  util::HttpServer server;
  util::HttpServerConfig scfg;
  scfg.port = static_cast<std::uint16_t>(port);
  scfg.observer = &svc;
  std::string error;
  if (!server.start(
          scfg, [&svc](const util::HttpRequest& req) { return svc.handle(req); },
          &error)) {
    std::fprintf(stderr, "p2sim_monitord: cannot start server: %s\n",
                 error.c_str());
    return 1;
  }
  if (!port_file.empty()) std::ofstream(port_file) << server.port() << '\n';
  if (!quiet) {
    std::printf("p2sim_monitord: listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
  }

  std::int64_t completed = 0;
  while (!svc.quit_requested() && (campaigns == 0 || completed < campaigns)) {
    core::Sp2Config cfg = opt.config();
    cfg.driver.seed += static_cast<std::uint64_t>(completed);
    workload::ResumeReport resumed;
    cfg.checkpoint().report = &resumed;
    telemetry::HealthReporter reporter({.out = quiet ? nullptr : &std::cout});
    Tee tee(svc, reporter);
    cfg.driver.observer = &tee;

    // Early returns leave the server to its destructor, which stops it.
      workload::CampaignResult campaign;
    try {
      campaign = workload::run_campaign(cfg.driver);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "p2sim_monitord: %s\n", e.what());
      opt.remove_records();
      return 1;
    }
    if (!opt.save_records(campaign)) return 1;
    std::string trace = session.tracer.chrome_trace_json();
    if (!outdir.empty()) {
      std::filesystem::create_directories(outdir);
      std::ofstream(outdir + "/metrics.prom") << svc.metrics_text();
      std::ofstream(outdir + "/telemetry.jsonl") << session.registry.jsonl();
      std::ofstream(outdir + "/trace.json") << trace;
    }
    svc.set_trace_json(std::move(trace));
    svc.note_campaign_complete();
    ++completed;
    if (!quiet) {
      std::fputs(reporter.render_dashboard().c_str(), stdout);
      std::printf("p2sim_monitord: campaign %lld complete\n",
                  static_cast<long long>(completed));
    }

    // The live view of a resumed campaign only watched the intervals after
    // its resume point, so it cannot match the whole campaign's report.
    if (resumed.resumed) {
      if (!quiet) {
        std::printf("resumed from %s (interval %lld); live-vs-forensic "
                    "reconciliation skipped\n",
                    resumed.loaded_path.c_str(),
                    static_cast<long long>(resumed.resume_interval));
      }
    } else {
      const std::vector<std::string> mismatched = analysis::reconcile_live(
          reporter.snapshot(),
          analysis::measure_loss(campaign, cfg.table_min_coverage));
      for (const std::string& field : mismatched) {
        std::fprintf(stderr, "p2sim_monitord: RECONCILE FAIL: %s\n",
                     field.c_str());
      }
      if (!mismatched.empty()) return 1;
      if (!quiet) std::printf("live view vs measurement-loss: reconciled\n");
    }

    if (!scrape_dump.empty() && completed == 1) {
      const util::HttpFetch scrape = util::http_get(
          "127.0.0.1", server.port(), telemetry::MonitorService::kMetricsPath);
      if (!scrape.ok || scrape.status != 200) {
        std::fprintf(stderr, "p2sim_monitord: self-scrape failed: %s\n",
                     scrape.error.c_str());
        return 1;
      }
      std::ofstream(scrape_dump) << scrape.body;
    }
  }

  // Serve a final beat so a client that just asked for shutdown still gets
  // its response flushed, then tear down before the session dies.
  server.stop();
  if (!quiet) {
    std::printf("p2sim_monitord: exiting after %lld campaign(s)\n",
                static_cast<long long>(completed));
  }
  return 0;
}
