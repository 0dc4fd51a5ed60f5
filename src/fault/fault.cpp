#include "src/fault/fault.hpp"

#include <stdexcept>

#include "src/telemetry/session.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::fault {
namespace {

/// Telemetry hook: per-domain injected-fault counters.  These count the
/// same events as FaultLog, so a live dashboard's fault totals reconcile
/// exactly with the campaign's ground-truth log.
void count_fault(const char* name, const char* help) {
  if (auto* tel = telemetry::current()) {
    tel->registry.counter(name, help).inc();
  }
}

}  // namespace

// Domain tags passed to draw() keep the per-fault-class substreams
// independent even when their coordinates collide (e.g. node 3 / interval 7
// vs job 3 / attempt 7): crash 0xC4A5, interval miss 0x1D0, node sample
// 0x5A3, prologue 0x9801, epilogue 0x9802, record corruption 0xD15C.

FaultConfig FaultConfig::reference() {
  FaultConfig cfg;
  cfg.enabled = true;
  // ~1 crash per node per two months: 144 nodes see a failure every few
  // hours somewhere in the machine, as a mid-90s production cluster did.
  cfg.node_crashes_per_node_day = 1.0 / 60.0;
  cfg.reboot_downtime_intervals = 2;  // 30 minutes to fsck and rejoin
  cfg.interval_miss_prob = 0.01;      // cron skew / collector host busy
  cfg.node_sample_loss_prob = 0.005;  // rsh to one node times out
  cfg.prologue_loss_prob = 0.01;
  cfg.epilogue_loss_prob = 0.02;      // killed jobs never run epilogues
  cfg.record_corruption_prob = 0.002;
  return cfg;
}

FaultSchedule::FaultSchedule(const FaultConfig& cfg) : cfg_(cfg) {
  auto prob = [](double p, const char* what) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(std::string("FaultConfig: ") + what +
                                  " must be a probability");
    }
  };
  prob(cfg_.interval_miss_prob, "interval_miss_prob");
  prob(cfg_.node_sample_loss_prob, "node_sample_loss_prob");
  prob(cfg_.prologue_loss_prob, "prologue_loss_prob");
  prob(cfg_.epilogue_loss_prob, "epilogue_loss_prob");
  prob(cfg_.record_corruption_prob, "record_corruption_prob");
  if (cfg_.node_crashes_per_node_day < 0.0) {
    throw std::invalid_argument("FaultConfig: crash rate must be >= 0");
  }
  if (cfg_.reboot_downtime_intervals < 1) {
    throw std::invalid_argument(
        "FaultConfig: reboot downtime must be >= 1 interval");
  }
  crash_prob_per_interval_ = cfg_.node_crashes_per_node_day /
                             static_cast<double>(util::kIntervalsPerDay);
}

double FaultSchedule::draw(std::uint64_t domain, std::uint64_t a,
                           std::uint64_t b) const {
  // Hash the coordinates through splitmix64 (each stage fully mixes), then
  // take one xoshiro256** draw from the resulting stream seed.
  util::SplitMix64 mix(cfg_.seed ^ (domain * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t s1 = mix.next() ^ a;
  util::SplitMix64 mix2(s1);
  const std::uint64_t s2 = mix2.next() ^ b;
  util::Xoshiro256StarStar rng(s2);
  return rng.uniform();
}

bool FaultSchedule::node_crashes(int node, std::int64_t interval) const {
  if (!cfg_.enabled || crash_prob_per_interval_ <= 0.0) return false;
  return draw(0xC4A5, static_cast<std::uint64_t>(node),
              static_cast<std::uint64_t>(interval)) < crash_prob_per_interval_;
}

bool FaultSchedule::interval_missed(std::int64_t interval) const {
  if (!cfg_.enabled || cfg_.interval_miss_prob <= 0.0) return false;
  return draw(0x1D0, static_cast<std::uint64_t>(interval), 0) <
         cfg_.interval_miss_prob;
}

bool FaultSchedule::node_sample_lost(int node, std::int64_t interval) const {
  if (!cfg_.enabled || cfg_.node_sample_loss_prob <= 0.0) return false;
  return draw(0x5A3, static_cast<std::uint64_t>(node),
              static_cast<std::uint64_t>(interval)) <
         cfg_.node_sample_loss_prob;
}

bool FaultSchedule::prologue_lost(std::int64_t job_id, int attempt) const {
  if (!cfg_.enabled || cfg_.prologue_loss_prob <= 0.0) return false;
  return draw(0x9801, static_cast<std::uint64_t>(job_id),
              static_cast<std::uint64_t>(attempt)) < cfg_.prologue_loss_prob;
}

bool FaultSchedule::epilogue_lost(std::int64_t job_id, int attempt) const {
  if (!cfg_.enabled || cfg_.epilogue_loss_prob <= 0.0) return false;
  return draw(0x9802, static_cast<std::uint64_t>(job_id),
              static_cast<std::uint64_t>(attempt)) < cfg_.epilogue_loss_prob;
}

bool FaultSchedule::record_corrupted(std::int64_t line_index) const {
  if (!cfg_.enabled || cfg_.record_corruption_prob <= 0.0) return false;
  return draw(0xD15C, static_cast<std::uint64_t>(line_index), 0) <
         cfg_.record_corruption_prob;
}

bool FaultInjector::crash_now(int node, std::int64_t interval) {
  if (!sched_.node_crashes(node, interval)) return false;
  ++log_.node_crashes;
  count_fault("p2sim_fault_node_crashes_total",
              "Node crashes injected (counters zeroed on reboot)");
  return true;
}

bool FaultInjector::miss_interval(std::int64_t interval) {
  if (!sched_.interval_missed(interval)) return false;
  ++log_.intervals_missed;
  count_fault("p2sim_fault_intervals_missed_total",
              "Whole 15-minute daemon samples that never happened");
  return true;
}

void FaultInjector::note_samples_lost(std::int64_t count) {
  if (count <= 0) return;
  log_.node_samples_lost += count;
  if (auto* tel = telemetry::current()) {
    tel->registry
        .counter("p2sim_fault_node_samples_lost_total",
                 "Per-node daemon samples dropped in flight")
        .inc(static_cast<std::uint64_t>(count));
  }
}

bool FaultInjector::lose_prologue(std::int64_t job_id, int attempt) {
  if (!sched_.prologue_lost(job_id, attempt)) return false;
  ++log_.prologues_lost;
  count_fault("p2sim_fault_prologues_lost_total",
              "PBS prologue scripts that failed to fire");
  return true;
}

bool FaultInjector::lose_epilogue(std::int64_t job_id, int attempt) {
  if (!sched_.epilogue_lost(job_id, attempt)) return false;
  ++log_.epilogues_lost;
  count_fault("p2sim_fault_epilogues_lost_total",
              "PBS epilogue scripts that failed to fire");
  return true;
}

std::int64_t corrupt_records(std::string& file_contents,
                             const FaultSchedule& schedule) {
  std::string out;
  out.reserve(file_contents.size());
  std::int64_t line_index = 0;
  std::int64_t corrupted = 0;
  std::size_t pos = 0;
  while (pos < file_contents.size()) {
    std::size_t nl = file_contents.find('\n', pos);
    if (nl == std::string::npos) nl = file_contents.size();
    std::string line = file_contents.substr(pos, nl - pos);
    // Line 0 is the header: corrupting it loses the whole file, which is a
    // different (and uninteresting) failure mode — skip it.
    if (line_index > 0 && !line.empty() &&
        schedule.record_corrupted(line_index)) {
      switch (line_index % 3) {
        case 0:  // truncation: the write was cut short
          line.resize(line.size() / 2);
          break;
        case 1: {  // bit rot: a digit becomes garbage
          const std::size_t at = line.size() / 2;
          line[at] = '#';
          break;
        }
        default: {  // lost delimiter: two fields fuse
          const std::size_t comma = line.find(',', line.size() / 2);
          if (comma != std::string::npos) {
            line.erase(comma, 1);
          } else {
            line.resize(line.size() / 2);
          }
          break;
        }
      }
      ++corrupted;
      count_fault("p2sim_fault_records_corrupted_total",
                  "Stored record lines mangled by storage rot");
    }
    out += line;
    if (nl < file_contents.size()) out += '\n';
    pos = nl + 1;
    ++line_index;
  }
  file_contents = std::move(out);
  return corrupted;
}

}  // namespace p2sim::fault
