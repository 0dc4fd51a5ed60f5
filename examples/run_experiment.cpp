// Runs registered experiments by name on one campaign, and writes the
// campaign's tables, report and figure series.
//
//   run_experiment --list
//   run_experiment --days 30 --nodes 32 --faults table2 loss
//   run_experiment --checkpoint-dir ck --resume table2
//   run_experiment --days 270 --nodes 144 --outdir run1 --records run1/c
//
// The campaign flags are the ones every campaign binary shares
// (examples/campaign_cli.hpp).  --outdir DIR writes tables.txt (Tables
// 2-4), report.txt (the measurement report) and fig1.csv-fig5.csv (each
// figure's series); with no experiment named the campaign runs for these
// files alone.  --abort-after N simulates an operator abort: the record
// files are removed and the exit status is 1, so schedulers never mistake
// a dead run for a finished one.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "examples/campaign_cli.hpp"
#include "src/analysis/report.hpp"
#include "src/core/registry.hpp"
#include "src/util/csv.hpp"
#include "src/workload/checkpoint.hpp"

namespace {

using namespace p2sim;

[[noreturn]] void list_experiments() {
  std::printf("available experiments:\n");
  for (const core::Experiment& e : core::experiments()) {
    std::printf("  %-16s %s\n", e.name.c_str(), e.description.c_str());
  }
  std::exit(0);
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

/// One CSV file: the header, then `row(w, i)` for every i < n.
template <typename Row>
void write_csv(const std::string& path, const std::vector<std::string>& header,
               std::size_t n, Row row) {
  std::ofstream f(path);
  util::CsvWriter w(f);
  w.row(header);
  for (std::size_t i = 0; i < n; ++i) {
    row(w, i);
    w.endrow();
  }
}

void write_outdir(core::Sp2Simulation& sim, const std::string& dir) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream f(dir + "/tables.txt");
    f << analysis::format_table2(sim.table2()) << '\n'
      << analysis::format_table3(sim.table3()) << '\n'
      << analysis::format_table4(sim.table4()) << '\n';
  }
  {
    std::ofstream f(dir + "/report.txt");
    f << analysis::format_report(analysis::build_report(
        sim.campaign(), sim.config().table_min_gflops));
  }
  const auto f1 = sim.fig1();
  write_csv(dir + "/fig1.csv",
            {"day", "gflops", "gflops_ma", "utilization_ma"}, f1.day.size(),
            [&](util::CsvWriter& w, std::size_t i) {
              w.field(f1.day[i]).field(f1.daily_gflops[i]);
              w.field(f1.gflops_moving_avg[i])
                  .field(f1.utilization_moving_avg[i]);
            });
  const auto f2 = sim.fig2().bins;
  write_csv(dir + "/fig2.csv", {"nodes", "walltime_s", "jobs"}, f2.size(),
            [&](util::CsvWriter& w, std::size_t i) {
              w.field(std::int64_t{f2[i].nodes}).field(f2[i].total_walltime_s);
              w.field(std::int64_t{f2[i].jobs});
            });
  const auto f3 = sim.fig3().bins;
  write_csv(dir + "/fig3.csv",
            {"nodes", "mean_mflops_per_node", "max_mflops_per_node", "jobs"},
            f3.size(), [&](util::CsvWriter& w, std::size_t i) {
              w.field(std::int64_t{f3[i].nodes})
                  .field(f3[i].mean_mflops_per_node);
              w.field(f3[i].max_mflops_per_node)
                  .field(std::int64_t{f3[i].jobs});
            });
  const auto f4 = sim.fig4();
  write_csv(dir + "/fig4.csv", {"job_seq", "job_mflops", "moving_avg"},
            f4.job_seq.size(), [&](util::CsvWriter& w, std::size_t i) {
              w.field(f4.job_seq[i]).field(f4.job_mflops[i]);
              w.field(f4.moving_avg[i]);
            });
  const auto f5 = sim.fig5();
  write_csv(dir + "/fig5.csv", {"sys_user_fxu_ratio", "mflops_per_node"},
            f5.sys_user_fxu_ratio.size(),
            [&](util::CsvWriter& w, std::size_t i) {
              w.field(f5.sys_user_fxu_ratio[i]).field(f5.mflops_per_node[i]);
            });
  std::printf("wrote tables.txt, report.txt and fig1-5.csv to %s/\n",
              dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv,
                 std::string("usage: run_experiment [campaign flags] "
                             "[--outdir DIR] [--abort-after N] "
                             "<experiment>...\n"
                             "       run_experiment --list\n") +
                     cli::kCampaignFlags);
  std::vector<const core::Experiment*> experiments;
  std::string outdir;
  const cli::CampaignOptions opt = cli::parse_campaign(
      args,
      {{"--list", [] { list_experiments(); }},
       {"--outdir", [&] { outdir = args.value(); }},
       {"--abort-after", [&] { args.number(g_abort_after); }}},
      [&](std::string_view name) {
        experiments.push_back(core::find_experiment(name));
        if (experiments.back() != nullptr) return;
        std::fprintf(stderr, "unknown experiment '%.*s'; try --list\n",
                     static_cast<int>(name.size()), name.data());
        std::exit(2);
      });
  if (experiments.empty() && outdir.empty()) {
    std::fprintf(stderr, "no experiment named; try --list\n");
    return 2;
  }

  if (g_abort_after >= 0) {
    workload::set_checkpoint_test_hook(&abort_after_hook);
  }
  core::Sp2Simulation sim(opt.config());
  try {
    for (const core::Experiment* exp : experiments) {
      std::printf("--- %s: %s ---\n%s\n", exp->name.c_str(),
                  exp->description.c_str(), exp->run(sim).text().c_str());
    }
    if (!outdir.empty()) write_outdir(sim, outdir);
    if (!opt.save_records(sim.campaign())) return 1;
  } catch (const std::exception& e) {
    // A mid-run abort must not masquerade as success: drop whatever
    // half-written outputs exist and fail loudly.  With --checkpoint-dir
    // the committed generations survive for a later --resume.
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    opt.remove_records();
    return 1;
  }
  return 0;
}
