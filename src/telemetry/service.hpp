// MonitorService: the glue between a running campaign and the HTTP plane.
//
// One object plays both observer roles: as a CampaignObserver it receives
// the driver's per-interval HealthSamples and per-job JobSamples (driver
// thread); as a util::HttpObserver it accounts every served request into
// wall-clock p2sim_server_* metrics (server loop thread); and its handle()
// method is the HttpHandler that routes the endpoints:
//
//   GET /metrics        Prometheus exposition of a plain registry
//                       snapshot; the lane counters read as of the last
//                       fold, never torn or double-counted
//   GET /healthz        liveness + cumulative HealthReporter totals (JSON)
//   GET /api/days       per-day Gflops and coverage tables (JSON)
//   GET /api/jobs       recent finished jobs, newest last (JSON;
//                       ?limit=N caps the returned window; 400 unless N
//                       is a positive integer)
//   GET /trace          last completed campaign's Chrome trace JSON
//                       (503 until a campaign finishes)
//   GET /quitquitquit   asks the daemon to exit (sets quit_requested())
//
// Locking: campaign-side state (reporter, job ring, trace body) sits under
// svc_mu_, shared by the driver thread and the loop thread — never by the
// campaign's parallel workers, which touch neither this object nor the
// registry; a scrape reads the lock-free metrics plane, where the lane
// counters move only at the serial fold.  The server must be stopped
// before this object (or the Session it references) is destroyed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/telemetry/health.hpp"
#include "src/telemetry/reporter.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/http_server.hpp"

namespace p2sim::telemetry {

struct MonitorConfig {
  /// Finished-job ring capacity for /api/jobs.
  std::size_t max_job_samples = 4096;
};

class MonitorService final : public CampaignObserver,
                             public util::HttpObserver {
 public:
  static constexpr const char* kMetricsPath = "/metrics";
  static constexpr const char* kHealthzPath = "/healthz";
  static constexpr const char* kJobsPath = "/api/jobs";
  static constexpr const char* kDaysPath = "/api/days";
  static constexpr const char* kTracePath = "/trace";
  static constexpr const char* kQuitPath = "/quitquitquit";

  explicit MonitorService(Session& session, const MonitorConfig& cfg = {});

  // Campaign side (driver thread).
  void on_interval(const HealthSample& sample) override;
  void on_job(const JobSample& sample) override;
  /// Installs the trace body served by /trace (call after a campaign).
  void set_trace_json(std::string trace_json);
  void note_campaign_complete();

  // Server side (loop thread).
  util::HttpResponse handle(const util::HttpRequest& req);
  void on_connection_delta(int delta) override;
  void on_request(const std::string& method, const std::string& path,
                  int status, double handler_seconds) override;

  /// True once /quitquitquit has been requested.
  bool quit_requested() const;

  /// Cumulative reporter totals (a copy, safe from any thread).
  HealthSnapshot health() const;

  // Endpoint bodies, also used directly by tests.
  std::string metrics_text() const;
  std::string healthz_json() const;
  std::string days_json() const;
  std::string jobs_json(std::size_t limit) const;

 private:
  Session& session_;
  MonitorConfig cfg_;

  // Wall-clock server metrics, registered once at construction so the
  // serve path never allocates metric objects.
  Counter* requests_total_ = nullptr;
  Counter* request_errors_total_ = nullptr;
  Gauge* inflight_connections_ = nullptr;
  Histogram* request_seconds_ = nullptr;

  mutable std::mutex svc_mu_;
  HealthReporter reporter_ P2SIM_GUARDED_BY(svc_mu_);
  std::vector<JobSample> jobs_ P2SIM_GUARDED_BY(svc_mu_);
  std::size_t next_job_ P2SIM_GUARDED_BY(svc_mu_) = 0;
  std::uint64_t jobs_seen_ P2SIM_GUARDED_BY(svc_mu_) = 0;
  std::int64_t campaigns_done_ P2SIM_GUARDED_BY(svc_mu_) = 0;
  std::string trace_json_ P2SIM_GUARDED_BY(svc_mu_);
  bool quit_requested_ P2SIM_GUARDED_BY(svc_mu_) = false;
};

}  // namespace p2sim::telemetry
