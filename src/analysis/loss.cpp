#include "src/analysis/loss.hpp"

#include <sstream>

#include "src/analysis/daily.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::analysis {

MeasurementLoss measure_loss(const workload::CampaignResult& result,
                             double min_coverage) {
  MeasurementLoss loss;
  loss.min_coverage = min_coverage;
  loss.injected = result.faults;

  // Daemon channel.
  loss.intervals_expected = result.intervals_expected;
  loss.intervals_recorded = static_cast<std::int64_t>(result.intervals.size());
  for (const rs2hpm::IntervalRecord& rec : result.intervals) {
    loss.node_samples_expected += rec.nodes_expected;
    loss.node_samples_clean += rec.nodes_sampled;
    loss.node_samples_reprimed += rec.nodes_reprimed;
  }

  // Job channel.
  loss.jobs_recorded = static_cast<std::int64_t>(result.jobs.size());
  for (const pbs::JobRecord& rec : result.jobs.all()) {
    if (rec.report.complete) {
      ++loss.jobs_complete;
    } else {
      ++loss.jobs_incomplete;
    }
  }
  loss.jobs_open_at_end = result.jobs_open_at_end;

  // Day channel.
  const std::vector<DayStats> days = daily_stats(result);
  loss.days_total = static_cast<std::int64_t>(days.size());
  double coverage_sum = 0.0;
  for (const DayStats& d : days) {
    coverage_sum += d.coverage;
    if (d.coverage >= 1.0) ++loss.days_full_coverage;
    if (d.coverage >= min_coverage) ++loss.days_usable;
  }
  loss.mean_coverage =
      days.empty() ? 1.0 : coverage_sum / static_cast<double>(days.size());

  // Reconciliation against the injector's ground truth.
  const fault::FaultLog& f = loss.injected;
  loss.intervals_reconciled = loss.intervals_missing() == f.intervals_missed;
  loss.node_samples_reconciled =
      loss.node_samples_expected - loss.node_samples_clean ==
      f.node_samples_unreachable + f.node_samples_lost +
          loss.node_samples_reprimed;
  // Each lost prologue, kill and lost epilogue yields exactly one
  // incomplete record, except: a killed run that had already lost its
  // prologue is a single record counted under both faults, and a
  // prologue-less run still open at campaign end produced no record yet.
  loss.jobs_reconciled =
      loss.jobs_incomplete ==
      f.prologues_lost + f.jobs_killed + f.epilogues_lost -
          f.jobs_killed_sans_prologue - result.jobs_open_sans_prologue;
  return loss;
}

std::string format_measurement_loss(const MeasurementLoss& loss) {
  std::ostringstream os;
  const auto pct = [](std::int64_t part, std::int64_t whole) {
    return whole > 0 ? 100.0 * static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
  };
  os << "Measurement loss report\n";
  os << "=======================\n";
  os << "Daemon samples (15-minute intervals)\n";
  os << "  intervals expected     " << loss.intervals_expected << "\n";
  os << "  intervals recorded     " << loss.intervals_recorded << "\n";
  os << "  intervals missing      " << loss.intervals_missing() << " ("
     << pct(loss.intervals_missing(), loss.intervals_expected) << "%)\n";
  os << "  node-samples expected  " << loss.node_samples_expected << "\n";
  os << "  node-samples clean     " << loss.node_samples_clean << "\n";
  os << "  unreachable (down)     " << loss.injected.node_samples_unreachable
     << "\n";
  os << "  lost in flight         " << loss.injected.node_samples_lost
     << "\n";
  os << "  baselines re-primed    " << loss.node_samples_reprimed << "\n";
  os << "Batch jobs\n";
  os << "  records                " << loss.jobs_recorded << "\n";
  os << "  complete               " << loss.jobs_complete << "\n";
  os << "  incomplete             " << loss.jobs_incomplete << " ("
     << pct(loss.jobs_incomplete, loss.jobs_recorded) << "%)\n";
  os << "  prologues lost         " << loss.injected.prologues_lost << "\n";
  os << "  epilogues lost         " << loss.injected.epilogues_lost << "\n";
  os << "  killed by node crash   " << loss.injected.jobs_killed << "\n";
  os << "  requeued               " << loss.injected.jobs_requeued << "\n";
  os << "  open at campaign end   " << loss.jobs_open_at_end << "\n";
  os << "Days\n";
  os << "  total                  " << loss.days_total << "\n";
  os << "  fully covered          " << loss.days_full_coverage << "\n";
  os << "  usable (coverage >= " << loss.min_coverage << ") "
     << loss.days_usable << "\n";
  os << "  mean coverage          " << loss.mean_coverage << "\n";
  os << "Faults injected\n";
  os << "  node crashes           " << loss.injected.node_crashes << "\n";
  os << "  node-intervals down    " << loss.injected.down_node_intervals
     << "\n";
  os << "  records corrupted      " << loss.injected.records_corrupted
     << "\n";
  os << "  total faults           " << loss.injected.total_faults() << "\n";
  os << "Reconciliation: "
     << (loss.reconciled() ? "every injected fault accounted for"
                           : "MISMATCH between losses and fault log")
     << "\n";
  if (!loss.intervals_reconciled) os << "  interval channel mismatch\n";
  if (!loss.node_samples_reconciled) {
    os << "  node-sample channel mismatch\n";
  }
  if (!loss.jobs_reconciled) os << "  job channel mismatch\n";
  return os.str();
}

std::vector<std::string> reconcile_live(const telemetry::HealthSnapshot& live,
                                        const MeasurementLoss& loss) {
  std::vector<std::string> mismatched;
  const auto check = [&](bool agree, const char* field) {
    if (!agree) mismatched.emplace_back(field);
  };
  check(live.intervals_seen == loss.intervals_expected, "intervals_seen");
  check(live.intervals_recorded == loss.intervals_recorded,
        "intervals_recorded");
  check(live.node_samples_expected == loss.node_samples_expected,
        "node_samples_expected");
  check(live.node_samples_clean == loss.node_samples_clean,
        "node_samples_clean");
  check(live.node_samples_reprimed == loss.node_samples_reprimed,
        "node_samples_reprimed");
  check(live.faults_injected == loss.injected.total_faults(),
        "faults_injected");
  check(live.jobs_requeued == loss.injected.jobs_requeued, "jobs_requeued");
  check(loss.reconciled(), "loss.reconciled");
  return mismatched;
}

}  // namespace p2sim::analysis
