// MonitorService endpoint contracts: routing and content types, the
// /healthz edge cases (no campaign yet, zero completed jobs, zero-coverage
// days), the /api/jobs ring semantics and `limit` parsing, the quit
// handshake, the reconciliation of a scrape that lands between phase
// boundaries, and lane counters that never go backwards under scrape.
#include "src/telemetry/service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/loss.hpp"
#include "src/core/simulation.hpp"
#include "src/telemetry/session.hpp"
#include "src/workload/driver.hpp"

namespace p2sim::telemetry {
namespace {

util::HttpRequest get_req(const std::string& path,
                          const std::string& query = "") {
  util::HttpRequest req;
  req.method = "GET";
  req.path = path;
  req.query = query;
  req.target = query.empty() ? path : path + "?" + query;
  req.version = "HTTP/1.1";
  return req;
}

TEST(MonitorService, RoutesEveryEndpoint) {
  Session session;
  MonitorService svc(session);

  util::HttpResponse metrics = svc.handle(get_req(MonitorService::kMetricsPath));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("p2sim_server_requests_total"),
            std::string::npos);

  util::HttpResponse health = svc.handle(get_req(MonitorService::kHealthzPath));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.content_type, "application/json");
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

  EXPECT_EQ(svc.handle(get_req(MonitorService::kDaysPath)).status, 200);
  EXPECT_EQ(svc.handle(get_req(MonitorService::kJobsPath)).status, 200);
  EXPECT_EQ(svc.handle(get_req("/definitely/not/served")).status, 404);

  util::HttpRequest post = get_req(MonitorService::kMetricsPath);
  post.method = "POST";
  EXPECT_EQ(svc.handle(post).status, 405);
}

TEST(MonitorService, HealthzBeforeAnyCampaignIsWellFormed) {
  // Zero completed jobs, zero intervals, no trace: every field renders and
  // coverage defaults to 1.0 (nothing was expected, nothing was lost).
  Session session;
  MonitorService svc(session);
  const std::string body = svc.healthz_json();
  EXPECT_NE(body.find("\"campaigns_completed\":0"), std::string::npos);
  EXPECT_NE(body.find("\"intervals_seen\":0"), std::string::npos);
  EXPECT_NE(body.find("\"jobs_completed\":0"), std::string::npos);
  EXPECT_NE(body.find("\"coverage\":1"), std::string::npos);
  EXPECT_NE(body.find("\"mean_mflops\":0"), std::string::npos);
  EXPECT_NE(body.find("\"trace_available\":false"), std::string::npos);
  EXPECT_EQ(svc.health().intervals_seen, 0);
}

TEST(MonitorService, ZeroCoverageDaysRenderInDaysTable) {
  // A day whose every interval lost its daemon sample must appear with
  // coverage 0 and gflops 0, not vanish or divide by zero.
  Session session;
  MonitorService svc(session);
  for (int i = 0; i < 96; ++i) {
    HealthSample s;
    s.interval = i;
    s.day = 0;
    s.interval_recorded = false;  // the whole day is dark
    s.nodes_expected = 0;
    svc.on_interval(s);
  }
  HealthSample lit;
  lit.interval = 96;
  lit.day = 1;
  lit.interval_recorded = true;
  lit.nodes_expected = 8;
  lit.nodes_sampled = 8;
  lit.mflops = 400.0;
  svc.on_interval(lit);

  const std::string days = svc.days_json();
  EXPECT_NE(days.find("{\"day\":0,\"gflops\":0,\"coverage\":"),
            std::string::npos);
  EXPECT_NE(days.find("\"day\":1"), std::string::npos);
  const std::string health = svc.healthz_json();
  EXPECT_NE(health.find("\"intervals_seen\":97"), std::string::npos);
  EXPECT_NE(health.find("\"intervals_recorded\":1"), std::string::npos);
}

TEST(MonitorService, JobsRingKeepsNewestChronologically) {
  Session session;
  MonitorConfig cfg;
  cfg.max_job_samples = 4;
  MonitorService svc(session, cfg);
  for (int i = 0; i < 10; ++i) {
    JobSample j;
    j.job_id = i;
    j.end_s = 100.0 * i;
    j.complete = true;
    svc.on_job(j);
  }
  const std::string all = svc.jobs_json(100);
  EXPECT_NE(all.find("\"jobs_seen\":10"), std::string::npos);
  EXPECT_NE(all.find("\"returned\":4"), std::string::npos);
  // Oldest survivors evicted; the window is 6,7,8,9 in order.
  EXPECT_EQ(all.find("\"job_id\":5,"), std::string::npos);
  const std::size_t p6 = all.find("\"job_id\":6");
  const std::size_t p9 = all.find("\"job_id\":9");
  ASSERT_NE(p6, std::string::npos);
  ASSERT_NE(p9, std::string::npos);
  EXPECT_LT(p6, p9);

  const std::string two = svc.jobs_json(2);
  EXPECT_NE(two.find("\"returned\":2"), std::string::npos);
  EXPECT_EQ(two.find("\"job_id\":7,"), std::string::npos);
  EXPECT_NE(two.find("\"job_id\":8"), std::string::npos);
}

TEST(MonitorService, JobsLimitIsAWholePositiveIntegerKey) {
  Session session;
  MonitorConfig cfg;
  cfg.max_job_samples = 4;
  MonitorService svc(session, cfg);
  for (int i = 0; i < 10; ++i) svc.on_job(JobSample{});
  // {query, status, jobs returned}: only a key spelled exactly `limit`
  // counts, a limit above the ring caps to it, and a value that is not a
  // whole positive integer fitting a size_t is a 400.
  const struct {
    const char* query;
    int status;
    int returned;
  } kCases[] = {{"limit=2", 200, 2},   {"a=1&limit=3&b", 200, 3},
                {"nolimit=1", 200, 4}, {"limits=1", 200, 4},
                {"", 200, 4},          {"limit=100", 200, 4},
                {"limit=3x", 400, 0},  {"limit=0", 400, 0},
                {"limit=-1", 400, 0},  {"limit=", 400, 0},
                {"limit", 400, 0},     {"limit=+2", 400, 0},
                {"limit=99999999999999999999999", 400, 0}};
  for (const auto& c : kCases) {
    const util::HttpResponse r =
        svc.handle(get_req(MonitorService::kJobsPath, c.query));
    EXPECT_EQ(r.status, c.status) << c.query;
    if (c.status == 200) {
      EXPECT_NE(r.body.find("\"returned\":" + std::to_string(c.returned)),
                std::string::npos)
          << c.query;
    }
  }
}

TEST(MonitorService, QuitEndpointSetsTheFlagOnce) {
  Session session;
  MonitorService svc(session);
  EXPECT_FALSE(svc.quit_requested());
  const util::HttpResponse resp =
      svc.handle(get_req(MonitorService::kQuitPath));
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(svc.quit_requested());
}

TEST(MonitorService, TraceIs503UntilACampaignCompletes) {
  Session session;
  MonitorService svc(session);
  EXPECT_EQ(svc.handle(get_req(MonitorService::kTracePath)).status, 503);
  svc.set_trace_json("{\"traceEvents\":[]}");
  const util::HttpResponse ok = svc.handle(get_req(MonitorService::kTracePath));
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.content_type, "application/json");
  EXPECT_EQ(ok.body, "{\"traceEvents\":[]}");
}

TEST(MonitorService, ObservedCampaignReconcilesWithLossReport) {
  // The service's cumulative health must agree with the post-hoc forensic
  // report — same contract the HealthReporter smoke pins, now through the
  // monitoring facade (and with job samples flowing too).
  core::Sp2Config cfg = core::Sp2Config::small(/*days=*/6, /*nodes=*/16);
  cfg.faults() = fault::FaultConfig::reference();
  Session session;
  MonitorService svc(session);
  cfg.driver.observer = &svc;
  workload::CampaignResult result;
  {
    ScopedSession scoped(session);
    result = workload::run_campaign(cfg.driver);
  }
  const HealthSnapshot snap = svc.health();
  const analysis::MeasurementLoss loss = analysis::measure_loss(result);
  EXPECT_EQ(snap.intervals_seen, loss.intervals_expected);
  EXPECT_EQ(snap.intervals_recorded, loss.intervals_recorded);
  EXPECT_EQ(snap.node_samples_expected, loss.node_samples_expected);
  EXPECT_EQ(snap.node_samples_clean, loss.node_samples_clean);
  EXPECT_EQ(snap.faults_injected, loss.injected.total_faults());
  // Completed jobs produced samples; the ring saw at least those.
  const std::string jobs = svc.jobs_json(1u << 20);
  EXPECT_NE(jobs.find("\"jobs_seen\":"), std::string::npos);
  EXPECT_GE(snap.jobs_completed, 1);
}

TEST(MonitorService, ScrapeBetweenPhaseBoundariesStaysReconciled) {
  // Interleave scrapes with interval observations at every "phase
  // boundary" a driver would present: after each on_interval the healthz
  // totals must already include that interval — no deferred accounting.
  Session session;
  MonitorService svc(session);
  for (int i = 0; i < 10; ++i) {
    HealthSample s;
    s.interval = i;
    s.day = i / 4;
    s.interval_recorded = true;
    s.nodes_expected = 4;
    s.nodes_sampled = 4;
    s.mflops = 100.0;
    svc.on_interval(s);
    const std::string body = svc.healthz_json();
    const std::string want =
        "\"intervals_seen\":" + std::to_string(i + 1) + ",";
    EXPECT_NE(body.find(want), std::string::npos) << body;
    // The lock-free metrics scrape works at the same boundary.
    EXPECT_NE(svc.metrics_text().find("p2sim_server_"), std::string::npos);
  }
}

TEST(MonitorService, LaneCountersNeverGoBackwardsUnderScrape) {
  // A scrape sees the lane counters as of the last fold: while a 4-worker
  // faulted campaign runs, every value a looping scraper reads is at most
  // the final one and never below its previous read, and the final scrape
  // agrees with the session's export.
  // The three values in a body whose sample lines read pre NAME post N.
  auto lane_values = [](const std::string& text, const char* pre,
                        const char* post) {
    std::array<std::uint64_t, 3> v{};
    const char* const kNames[3] = {"p2sim_lane_busy_node_intervals_total",
                                   "p2sim_lane_idle_node_intervals_total",
                                   "p2sim_lane_down_node_intervals_total"};
    for (std::size_t i = 0; i < v.size(); ++i) {
      const std::string key = pre + std::string(kNames[i]) + post;
      const std::size_t pos = text.find(key);
      if (pos != std::string::npos) {
        v[i] = std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
      }
    }
    return v;
  };
  core::Sp2Config cfg = core::Sp2Config::small(/*days=*/6, /*nodes=*/16);
  cfg.faults() = fault::FaultConfig::reference();
  cfg.driver.threads = 4;
  Session session;
  MonitorService svc(session);
  std::atomic<bool> done{false};
  std::vector<std::array<std::uint64_t, 3>> seen;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      seen.push_back(lane_values(svc.metrics_text(), "\n", " "));
    }
  });
  {
    ScopedSession scoped(session);
    (void)workload::run_campaign(cfg.driver);
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  const std::array<std::uint64_t, 3> last =
      lane_values(svc.metrics_text(), "\n", " ");
  EXPECT_EQ(last, lane_values(session.registry.jsonl(), "\"metric\":\"",
                              R"(","type":"counter","value":)"));
  EXPECT_GT(last[0], 0u);
  std::array<std::uint64_t, 3> prev{};
  for (const std::array<std::uint64_t, 3>& v : seen) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_GE(v[i], prev[i]) << i;
      EXPECT_LE(v[i], last[i]) << i;
    }
    prev = v;
  }
}

}  // namespace
}  // namespace p2sim::telemetry
