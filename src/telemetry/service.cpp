#include "src/telemetry/service.hpp"

#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/util/numfmt.hpp"

namespace p2sim::telemetry {
namespace {

/// The `limit` parameter of an `&`-separated query: `fallback` when no
/// key is exactly `limit`, nullopt when its value is not a positive
/// integer that fits a size_t.
std::optional<std::size_t> parse_limit(std::string_view query,
                                       std::size_t fallback) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? "" : query.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (pair.substr(0, eq) != "limit") continue;
    if (eq == std::string_view::npos) return std::nullopt;
    const auto v = util::parse_number<std::size_t>(pair.substr(eq + 1));
    if (!v || *v == 0) return std::nullopt;
    return v;
  }
  return fallback;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

MonitorService::MonitorService(Session& session, const MonitorConfig& cfg)
    : session_(session), cfg_(cfg) {
  requests_total_ = &session_.registry.counter(
      "p2sim_server_requests_total",
      "HTTP requests served by the monitoring endpoint",
      /*wall_clock=*/true);
  request_errors_total_ = &session_.registry.counter(
      "p2sim_server_request_errors_total",
      "HTTP requests answered with status >= 400", /*wall_clock=*/true);
  inflight_connections_ = &session_.registry.gauge(
      "p2sim_server_inflight_connections",
      "Open client connections on the monitoring endpoint",
      /*wall_clock=*/true);
  request_seconds_ = &session_.registry.histogram(
      "p2sim_server_request_seconds",
      "Wall-clock seconds spent in the request handler",
      exponential_buckets(1e-5, 4.0, 8), /*wall_clock=*/true);
}

void MonitorService::on_interval(const HealthSample& sample) {
  std::lock_guard<std::mutex> lock(svc_mu_);
  reporter_.on_interval(sample);
}

void MonitorService::on_job(const JobSample& sample) {
  std::lock_guard<std::mutex> lock(svc_mu_);
  if (cfg_.max_job_samples == 0) return;
  if (jobs_.size() < cfg_.max_job_samples) {
    jobs_.push_back(sample);
  } else {
    jobs_[next_job_ % cfg_.max_job_samples] = sample;
  }
  ++next_job_;
  next_job_ %= cfg_.max_job_samples;
  ++jobs_seen_;
}

void MonitorService::set_trace_json(std::string trace_json) {
  std::lock_guard<std::mutex> lock(svc_mu_);
  trace_json_ = std::move(trace_json);
}

void MonitorService::note_campaign_complete() {
  std::lock_guard<std::mutex> lock(svc_mu_);
  ++campaigns_done_;
}

void MonitorService::on_connection_delta(int delta) {
  inflight_connections_->add(delta);
}

void MonitorService::on_request(const std::string& /*method*/,
                                const std::string& /*path*/, int status,
                                double handler_seconds) {
  requests_total_->inc();
  if (status >= 400) request_errors_total_->inc();
  request_seconds_->observe(handler_seconds);
}

bool MonitorService::quit_requested() const {
  std::lock_guard<std::mutex> lock(svc_mu_);
  return quit_requested_;
}

HealthSnapshot MonitorService::health() const {
  std::lock_guard<std::mutex> lock(svc_mu_);
  return reporter_.snapshot();
}

std::string MonitorService::metrics_text() const {
  return session_.registry.prometheus_text();
}

std::string MonitorService::healthz_json() const {
  HealthSnapshot snap;
  std::int64_t campaigns = 0;
  bool trace_ready = false;
  {
    std::lock_guard<std::mutex> lock(svc_mu_);
    snap = reporter_.snapshot();
    campaigns = campaigns_done_;
    trace_ready = !trace_json_.empty();
  }
  std::ostringstream os;
  os << "{\"status\":\"ok\""
     << ",\"campaigns_completed\":" << campaigns
     << ",\"intervals_seen\":" << snap.intervals_seen
     << ",\"intervals_recorded\":" << snap.intervals_recorded
     << ",\"node_samples_expected\":" << snap.node_samples_expected
     << ",\"node_samples_clean\":" << snap.node_samples_clean
     << ",\"node_samples_reprimed\":" << snap.node_samples_reprimed
     << ",\"coverage\":" << json_double(snap.coverage())
     << ",\"mean_mflops\":" << json_double(snap.mean_mflops())
     << ",\"jobs_dispatched\":" << snap.jobs_dispatched
     << ",\"jobs_completed\":" << snap.jobs_completed
     << ",\"jobs_requeued\":" << snap.jobs_requeued
     << ",\"faults_injected\":" << snap.faults_injected
     << ",\"trace_available\":" << json_bool(trace_ready) << "}\n";
  return os.str();
}

std::string MonitorService::days_json() const {
  std::vector<double> gflops;
  std::vector<double> coverage;
  {
    std::lock_guard<std::mutex> lock(svc_mu_);
    gflops = reporter_.daily_gflops();
    coverage = reporter_.daily_coverage();
  }
  std::ostringstream os;
  os << "{\"days\":[";
  for (std::size_t d = 0; d < gflops.size(); ++d) {
    if (d > 0) os << ',';
    os << "{\"day\":" << d << ",\"gflops\":" << json_double(gflops[d])
       << ",\"coverage\":"
       << json_double(d < coverage.size() ? coverage[d] : 1.0) << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string MonitorService::jobs_json(std::size_t limit) const {
  std::vector<JobSample> window;
  std::uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lock(svc_mu_);
    seen = jobs_seen_;
    window.reserve(jobs_.size());
    if (jobs_.size() < cfg_.max_job_samples) {
      window = jobs_;  // ring not yet wrapped: already chronological
    } else {
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        window.push_back(jobs_[(next_job_ + i) % jobs_.size()]);
      }
    }
  }
  if (limit < window.size()) {
    window.erase(window.begin(),
                 window.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::ostringstream os;
  os << "{\"jobs_seen\":" << seen << ",\"returned\":" << window.size()
     << ",\"jobs\":[";
  for (std::size_t i = 0; i < window.size(); ++i) {
    const JobSample& j = window[i];
    if (i > 0) os << ',';
    os << "{\"job_id\":" << j.job_id << ",\"user_id\":" << j.user_id
       << ",\"nodes\":" << j.nodes
       << ",\"submit_s\":" << json_double(j.submit_s)
       << ",\"start_s\":" << json_double(j.start_s)
       << ",\"end_s\":" << json_double(j.end_s)
       << ",\"job_mflops\":" << json_double(j.job_mflops)
       << ",\"complete\":" << json_bool(j.complete)
       << ",\"abandoned\":" << json_bool(j.abandoned) << '}';
  }
  os << "]}\n";
  return os.str();
}

util::HttpResponse MonitorService::handle(const util::HttpRequest& req) {
  util::HttpResponse resp;
  if (req.path == kQuitPath) {
    std::lock_guard<std::mutex> lock(svc_mu_);
    quit_requested_ = true;
    resp.body = "shutting down\n";
    return resp;
  }
  if (req.method != "GET") {
    resp.status = 405;
    resp.body = "only GET is served here\n";
    return resp;
  }
  if (req.path == kMetricsPath) {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = metrics_text();
    return resp;
  }
  if (req.path == kHealthzPath) {
    resp.content_type = "application/json";
    resp.body = healthz_json();
    return resp;
  }
  if (req.path == kDaysPath) {
    resp.content_type = "application/json";
    resp.body = days_json();
    return resp;
  }
  if (req.path == kJobsPath) {
    const std::optional<std::size_t> limit =
        parse_limit(req.query, cfg_.max_job_samples);
    if (!limit) {
      resp.status = 400;
      resp.body = "limit must be a positive integer\n";
      return resp;
    }
    resp.content_type = "application/json";
    resp.body = jobs_json(*limit);
    return resp;
  }
  if (req.path == kTracePath) {
    std::lock_guard<std::mutex> lock(svc_mu_);
    if (trace_json_.empty()) {
      resp.status = 503;
      resp.body = "no completed campaign trace yet\n";
      return resp;
    }
    resp.content_type = "application/json";
    resp.body = trace_json_;
    return resp;
  }
  resp.status = 404;
  resp.body =
      "endpoints: /metrics /healthz /api/days /api/jobs /trace "
      "/quitquitquit\n";
  return resp;
}

}  // namespace p2sim::telemetry
