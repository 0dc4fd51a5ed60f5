// Runs any registered experiment by name on a configurable campaign.
//
//   run_experiment --list
//   run_experiment table2
//   run_experiment --days 30 --nodes 32 fault_campaign
//   run_experiment --faults loss          # reference outage profile
//   run_experiment --checkpoint-dir ck --resume table2
//
// Every table, figure and audit the repository reproduces is addressable
// here through the core experiment registry; `--faults` turns on the
// reference fault schedule so the degradation-tolerant pipeline can be
// watched doing its job on a small campaign.
//
// --checkpoint-dir makes the campaign durable: it writes a checkpoint
// generation at the configured cadence, and --resume picks the newest
// intact one back up.  A resumed run is bit-identical to an uninterrupted
// one.  --abort-after simulates an operator abort mid-campaign: partial
// outputs are removed and the exit status is nonzero, so schedulers never
// mistake a dead run for a finished one.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/record_io.hpp"
#include "src/core/registry.hpp"
#include "src/util/numfmt.hpp"
#include "src/workload/checkpoint.hpp"

namespace {

void list_experiments() {
  std::printf("available experiments:\n");
  for (const p2sim::core::Experiment& e : p2sim::core::experiments()) {
    std::printf("  %-16s %s\n", e.name.c_str(), e.description.c_str());
  }
}

// --abort-after state for the kill-injection hook (a plain function
// pointer, so plain globals rather than captures).
std::int64_t g_abort_after = -1;
std::int64_t g_intervals_seen = 0;

void abort_after_hook(const char* point, std::int64_t /*value*/) {
  if (std::strcmp(point, "interval-end") != 0) return;
  if (g_abort_after >= 0 && ++g_intervals_seen >= g_abort_after) {
    throw std::runtime_error("campaign aborted by --abort-after");
  }
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: run_experiment [--days N] [--nodes N] [--threads N] "
      "[--faults] [--signature-store FILE] [--checkpoint-dir DIR] "
      "[--checkpoint-every N] [--resume] [--records BASE] "
      "[--archive FILE] [--abort-after N] <experiment>...\n"
      "       run_experiment --list\n"
      "--threads N runs the node-advance phase on N workers (0 = one\n"
      "per core); every output is bit-identical for every value.\n"
      "--signature-store FILE persists measured kernel signatures so\n"
      "repeated runs skip the cycle-accurate cold start (bit-identical\n"
      "either way).\n"
      "--checkpoint-dir DIR writes a durable campaign checkpoint every\n"
      "--checkpoint-every N intervals (default 96 = one simulated day);\n"
      "--resume continues from the newest intact generation.  Resumed\n"
      "campaigns are bit-identical to uninterrupted ones.\n"
      "--records BASE stores the campaign to BASE.intervals and\n"
      "BASE.jobs (record_io v2, commit-trailed).\n"
      "--archive FILE stores the campaign as a columnar archive the\n"
      "campaign_query tool scans directly (bit-identical bytes for\n"
      "every thread count).\n"
      "--abort-after N aborts the campaign after N intervals: partial\n"
      "outputs are removed and the exit status is 1.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t days = 30;
  int nodes = 32;
  int threads = 1;
  bool faults = false;
  std::string store_path;
  std::string checkpoint_dir;
  std::int64_t checkpoint_every = 96;
  bool resume = false;
  std::string records_base;
  std::string archive_path;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Numeric flags parse the whole value; "abc" or "3x" is a usage error.
    auto number = [&](auto& out) {
      const auto v = p2sim::util::parse_number<
          std::remove_reference_t<decltype(out)>>(argv[++i]);
      if (!v) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", arg.c_str(),
                     argv[i]);
        print_usage(stderr);
        std::exit(2);
      }
      out = *v;
    };
    if (arg == "--list") {
      list_experiments();
      return 0;
    } else if (arg == "--days" && i + 1 < argc) {
      number(days);
    } else if (arg == "--nodes" && i + 1 < argc) {
      number(nodes);
    } else if (arg == "--threads" && i + 1 < argc) {
      number(threads);
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--signature-store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      number(checkpoint_every);
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--records" && i + 1 < argc) {
      records_base = argv[++i];
    } else if (arg == "--archive" && i + 1 < argc) {
      archive_path = argv[++i];
    } else if (arg == "--abort-after" && i + 1 < argc) {
      number(g_abort_after);
    } else if (arg == "--help") {
      print_usage(stdout);
      return 0;
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "no experiment named; try --list\n");
    return 2;
  }

  p2sim::core::Sp2Config cfg = p2sim::core::Sp2Config::small(days, nodes);
  cfg.threads() = threads;
  cfg.signature_store() = store_path;
  cfg.checkpoint().dir = checkpoint_dir;
  cfg.checkpoint().every_intervals = checkpoint_every;
  cfg.checkpoint().resume = resume;
  cfg.archive() = archive_path;
  if (faults) cfg.faults() = p2sim::fault::FaultConfig::reference();
  if (g_abort_after >= 0) {
    p2sim::workload::set_checkpoint_test_hook(&abort_after_hook);
  }
  p2sim::core::Sp2Simulation sim(cfg);

  // Output files exist (empty) from the start, so an abort mid-run has
  // real partial outputs to clean up — exactly what a crashed production
  // run leaves behind.
  const std::string intervals_path =
      records_base.empty() ? "" : records_base + ".intervals";
  const std::string jobs_path =
      records_base.empty() ? "" : records_base + ".jobs";
  if (!records_base.empty()) {
    std::ofstream(intervals_path, std::ios::trunc);
    std::ofstream(jobs_path, std::ios::trunc);
  }

  const auto remove_partial_outputs = [&] {
    if (records_base.empty()) return;
    std::remove(intervals_path.c_str());
    std::remove(jobs_path.c_str());
  };

  try {
    for (const std::string& name : names) {
      const p2sim::core::Experiment* exp = p2sim::core::find_experiment(name);
      if (exp == nullptr) {
        std::fprintf(stderr, "unknown experiment '%s'; try --list\n",
                     name.c_str());
        remove_partial_outputs();
        return 2;
      }
      std::printf("--- %s: %s ---\n%s\n", exp->name.c_str(),
                  exp->description.c_str(), exp->run(sim).text().c_str());
    }
    if (!records_base.empty()) {
      std::ofstream fi(intervals_path, std::ios::trunc);
      p2sim::analysis::save_intervals(fi, sim.campaign().intervals);
      std::ofstream fj(jobs_path, std::ios::trunc);
      p2sim::analysis::save_jobs(fj, sim.campaign().jobs);
      if (!fi.good() || !fj.good()) {
        std::fprintf(stderr, "failed writing records to %s.*\n",
                     records_base.c_str());
        remove_partial_outputs();
        return 1;
      }
    }
  } catch (const std::exception& e) {
    // A mid-run abort must not masquerade as success: drop whatever
    // half-written outputs exist and fail loudly.  With --checkpoint-dir
    // the committed generations survive for a later --resume.
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    remove_partial_outputs();
    return 1;
  }
  return 0;
}
