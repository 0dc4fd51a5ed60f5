#include "src/telemetry/reporter.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "src/util/ascii_chart.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::telemetry {

HealthReporter::HealthReporter(const ReporterConfig& cfg) : cfg_(cfg) {}

void HealthReporter::on_interval(const HealthSample& sample) {
  ++snap_.intervals_seen;
  if (sample.interval_recorded) {
    ++snap_.intervals_recorded;
    snap_.node_samples_expected += sample.nodes_expected;
    snap_.node_samples_clean += sample.nodes_sampled;
    snap_.node_samples_reprimed += sample.nodes_reprimed;
    snap_.mflops_sum += sample.mflops;
  }
  // A sample that does not advance past the previous one starts another
  // campaign, whose counts restart: fold the previous campaign's into the
  // base, so the snapshot stays cumulative like the sums above.
  if (sample.interval <= last_interval_) base_ = snap_;
  last_interval_ = sample.interval;
  snap_.jobs_dispatched = base_.jobs_dispatched + sample.jobs_dispatched;
  snap_.jobs_completed = base_.jobs_completed + sample.jobs_completed;
  snap_.jobs_requeued = base_.jobs_requeued + sample.jobs_requeued;
  snap_.faults_injected = base_.faults_injected + sample.faults_injected;

  const auto day = static_cast<std::size_t>(sample.day);
  if (days_.size() <= day) days_.resize(day + 1);
  DayAccum& d = days_[day];
  ++d.intervals_seen;
  if (sample.interval_recorded) {
    ++d.intervals_recorded;
    d.node_samples_expected += sample.nodes_expected;
    d.node_samples_clean += sample.nodes_sampled;
    d.mflops_sum += sample.mflops;
  }

  if (cfg_.out != nullptr && cfg_.stride > 0 &&
      (sample.interval + 1) % cfg_.stride == 0) {
    *cfg_.out << format_line(sample) << '\n';
  }
}

std::vector<double> HealthReporter::daily_gflops() const {
  std::vector<double> out;
  out.reserve(days_.size());
  for (const DayAccum& d : days_) {
    out.push_back(d.intervals_recorded > 0
                      ? d.mflops_sum /
                            static_cast<double>(d.intervals_recorded) / 1e3
                      : 0.0);
  }
  return out;
}

std::vector<double> HealthReporter::daily_coverage() const {
  std::vector<double> out;
  out.reserve(days_.size());
  for (const DayAccum& d : days_) {
    // A day with missed whole intervals is under-covered even when every
    // *recorded* interval was clean: scale by the recorded fraction.
    const double node_cov =
        d.node_samples_expected > 0
            ? static_cast<double>(d.node_samples_clean) /
                  static_cast<double>(d.node_samples_expected)
            : 1.0;
    const double interval_cov =
        d.intervals_seen > 0
            ? static_cast<double>(d.intervals_recorded) /
                  static_cast<double>(d.intervals_seen)
            : 1.0;
    out.push_back(node_cov * interval_cov);
  }
  return out;
}

std::string HealthReporter::format_line(const HealthSample& sample) {
  const std::int64_t iod = sample.interval % util::kIntervalsPerDay;
  const std::int64_t minutes = iod * util::kIntervalSeconds / 60;
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "[day %3lld %02lld:%02lld] cov %5.1f%%  Mflops %9.1f  busy %3d  "
      "queue %3lld  faults %5lld",
      static_cast<long long>(sample.day),
      static_cast<long long>(minutes / 60),
      static_cast<long long>(minutes % 60),
      100.0 * (sample.interval_recorded ? sample.coverage() : 0.0),
      sample.mflops, sample.busy_nodes,
      static_cast<long long>(sample.queue_depth),
      static_cast<long long>(sample.faults_injected));
  return buf;
}

std::string HealthReporter::render_dashboard() const {
  std::ostringstream os;
  char buf[160];
  os << "Campaign pipeline health\n";
  os << "========================\n";
  std::snprintf(buf, sizeof buf,
                "  intervals recorded    %lld/%lld (%.1f%%)\n",
                static_cast<long long>(snap_.intervals_recorded),
                static_cast<long long>(snap_.intervals_seen),
                snap_.intervals_seen > 0
                    ? 100.0 * static_cast<double>(snap_.intervals_recorded) /
                          static_cast<double>(snap_.intervals_seen)
                    : 100.0);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  node-sample coverage  %.2f%% (clean %lld / expected %lld, "
                "re-primed %lld)\n",
                100.0 * snap_.coverage(),
                static_cast<long long>(snap_.node_samples_clean),
                static_cast<long long>(snap_.node_samples_expected),
                static_cast<long long>(snap_.node_samples_reprimed));
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  jobs disp/done/requeued  %lld/%lld/%lld\n",
                static_cast<long long>(snap_.jobs_dispatched),
                static_cast<long long>(snap_.jobs_completed),
                static_cast<long long>(snap_.jobs_requeued));
  os << buf;
  std::snprintf(buf, sizeof buf, "  faults injected       %lld\n",
                static_cast<long long>(snap_.faults_injected));
  os << buf;
  std::snprintf(buf, sizeof buf, "  mean live Mflops      %.1f\n",
                snap_.mean_mflops());
  os << buf;

  const std::vector<double> gflops = daily_gflops();
  if (!gflops.empty()) {
    util::Series s;
    s.name = "Gflops";
    s.glyph = '*';
    for (std::size_t d = 0; d < gflops.size(); ++d) {
      s.xs.push_back(static_cast<double>(d));
      s.ys.push_back(gflops[d]);
    }
    util::ChartOptions opts;
    opts.title = "daily system Gflops (live)";
    opts.x_label = "day";
    opts.y_label = "Gflops";
    opts.height = 12;
    os << util::render_chart({s}, opts);

    util::Series c;
    c.name = "coverage";
    c.glyph = '#';
    const std::vector<double> cov = daily_coverage();
    for (std::size_t d = 0; d < cov.size(); ++d) {
      c.xs.push_back(static_cast<double>(d));
      c.ys.push_back(100.0 * cov[d]);
    }
    util::ChartOptions copts;
    copts.title = "daily node-sample coverage (%)";
    copts.x_label = "day";
    copts.y_label = "%";
    copts.height = 8;
    os << util::render_chart({c}, copts);
  }
  return os.str();
}

}  // namespace p2sim::telemetry
