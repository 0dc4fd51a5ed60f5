// p2sim_monitord: the always-on monitoring daemon.
//
// Runs measurement campaigns back to back with the telemetry session
// installed and serves the live monitoring plane over an embedded HTTP
// server bound to 127.0.0.1:
//
//   GET /metrics        Prometheus scrape (lane counters as of the last fold)
//   GET /healthz        liveness + cumulative campaign health (JSON)
//   GET /api/days       per-day Gflops / coverage tables (JSON)
//   GET /api/jobs       recently finished jobs (JSON, ?limit=N)
//   GET /trace          last completed campaign's Chrome trace JSON
//   GET /quitquitquit   graceful shutdown
//
// Scrapes ride the lock-free metrics plane: N concurrent clients never
// perturb campaign results (perf_gate's scrape.exports_identical row
// proves bit-identity).
//
//   p2sim_monitord [--port N] [--port-file FILE] [--days N] [--nodes N]
//                  [--threads N] [--faults reference|off] [--seed S]
//                  [--campaigns N] [--pause-ms N] [--scrape-dump FILE]
//                  [--quiet]
//
// `--campaigns N` exits after N campaigns (0 = run until /quitquitquit);
// each campaign k reuses the configuration with seed S+k, so the daemon
// keeps producing fresh-but-reproducible load.  `--port-file` writes the
// bound port (one line) once the server is listening — the handshake used
// by scripted clients when `--port 0` picks an ephemeral port.
// `--scrape-dump FILE` performs one self-scrape of /metrics after the
// first campaign and writes the response body to FILE, which
// tools/validate_telemetry.py --scrape then checks for exposition
// conformance.
//
// Examples:
//   ./build/examples/p2sim_monitord --days 6 --nodes 16 --campaigns 1
//       --port-file /tmp/p2sim.port --scrape-dump /tmp/scrape.prom
//   curl "http://127.0.0.1:$(cat /tmp/p2sim.port)/healthz"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "src/core/simulation.hpp"
#include "src/telemetry/service.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/http_client.hpp"
#include "src/util/http_server.hpp"
#include "src/util/numfmt.hpp"
#include "src/workload/driver.hpp"

namespace {

struct Options {
  int port = 0;
  std::string port_file;
  std::int64_t days = 6;
  int nodes = 16;
  int threads = 1;
  std::string faults = "reference";
  std::uint64_t seed = 0xC0FFEE42ULL;
  std::int64_t campaigns = 1;
  std::int64_t pause_ms = 0;
  std::string scrape_dump;
  bool quiet = false;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file FILE] [--days N] "
               "[--nodes N] [--threads N] [--faults reference|off] "
               "[--seed S] [--campaigns N] [--pause-ms N] "
               "[--scrape-dump FILE] [--quiet]\n",
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
    if (arg == "--port") {
      number(opt.port);
    } else if (arg == "--port-file") {
      opt.port_file = value();
    } else if (arg == "--days") {
      number(opt.days);
    } else if (arg == "--nodes") {
      number(opt.nodes);
    } else if (arg == "--threads") {
      number(opt.threads);
    } else if (arg == "--faults") {
      opt.faults = value();
    } else if (arg == "--seed") {
      number(opt.seed);
    } else if (arg == "--campaigns") {
      number(opt.campaigns);
    } else if (arg == "--pause-ms") {
      number(opt.pause_ms);
    } else if (arg == "--scrape-dump") {
      opt.scrape_dump = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.days <= 0 || opt.nodes <= 0 || opt.threads < 0 ||
      opt.campaigns < 0 || opt.port < 0 || opt.port > 65535 ||
      opt.pause_ms < 0) {
    usage_and_exit(argv[0]);
  }
  if (opt.faults != "reference" && opt.faults != "off") {
    usage_and_exit(argv[0]);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2sim;
  const Options opt = parse(argc, argv);

  telemetry::Session session;
  telemetry::ScopedSession scoped(session);
  telemetry::MonitorService svc(session);

  util::HttpServer server;
  util::HttpServerConfig scfg;
  scfg.port = static_cast<std::uint16_t>(opt.port);
  scfg.observer = &svc;
  std::string error;
  if (!server.start(
          scfg, [&svc](const util::HttpRequest& req) { return svc.handle(req); },
          &error)) {
    std::fprintf(stderr, "p2sim_monitord: cannot start server: %s\n",
                 error.c_str());
    return 1;
  }
  if (!opt.port_file.empty()) {
    std::ofstream pf(opt.port_file);
    pf << server.port() << '\n';
  }
  if (!opt.quiet) {
    std::printf("p2sim_monitord: listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
  }

  std::int64_t completed = 0;
  while (!svc.quit_requested() &&
         (opt.campaigns == 0 || completed < opt.campaigns)) {
    core::Sp2Config cfg = core::Sp2Config::small(opt.days, opt.nodes);
    cfg.driver.seed = opt.seed + static_cast<std::uint64_t>(completed);
    cfg.driver.threads = opt.threads;
    if (opt.faults == "reference") {
      cfg.faults() = fault::FaultConfig::reference();
    }
    cfg.driver.observer = &svc;

    workload::run_campaign(cfg.driver);
    svc.set_trace_json(session.tracer.chrome_trace_json());
    svc.note_campaign_complete();
    ++completed;
    if (!opt.quiet) {
      std::printf("p2sim_monitord: campaign %lld complete\n",
                  static_cast<long long>(completed));
    }

    if (!opt.scrape_dump.empty() && completed == 1) {
      const util::HttpFetch scrape = util::http_get(
          "127.0.0.1", server.port(), telemetry::MonitorService::kMetricsPath);
      if (!scrape.ok || scrape.status != 200) {
        std::fprintf(stderr, "p2sim_monitord: self-scrape failed: %s\n",
                     scrape.error.c_str());
        server.stop();
        return 1;
      }
      std::ofstream dump(opt.scrape_dump);
      dump << scrape.body;
    }

    if (opt.pause_ms > 0 && !svc.quit_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.pause_ms));
    }
  }

  // Serve a final beat so a client that just asked for shutdown still gets
  // its response flushed, then tear down before the session dies.
  server.stop();
  if (!opt.quiet) {
    std::printf("p2sim_monitord: exiting after %lld campaign(s)\n",
                static_cast<long long>(completed));
  }
  return 0;
}
