// sp2_report: the command-line campaign driver.
//
// Runs a measurement campaign and writes the complete analysis — every
// table, every figure series, and the raw interval/job record files (the
// "collect once, analyze many" format of src/analysis/record_io.hpp) —
// into an output directory.
//
//   sp2_report [--days N] [--nodes N] [--seed S] [--outdir DIR]
//              [--waitstates] [--quiet]
//
// Examples:
//   ./build/examples/sp2_report --days 30 --nodes 32 --outdir /tmp/run1
//   ./build/examples/sp2_report --waitstates          # full paper scale
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <type_traits>

#include "src/analysis/record_io.hpp"
#include "src/analysis/report.hpp"
#include "src/analysis/tables.hpp"
#include "src/core/simulation.hpp"
#include "src/util/csv.hpp"
#include "src/util/numfmt.hpp"

namespace {

struct Options {
  std::int64_t days = 270;
  int nodes = 144;
  std::uint64_t seed = 0xC0FFEE42ULL;
  std::string outdir = "sp2_report_out";
  bool waitstates = false;
  bool quiet = false;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--days N] [--nodes N] [--seed S] [--outdir DIR] "
               "[--waitstates] [--quiet]\n",
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
    if (arg == "--days") {
      number(opt.days);
    } else if (arg == "--nodes") {
      number(opt.nodes);
    } else if (arg == "--seed") {
      number(opt.seed);
    } else if (arg == "--outdir") {
      opt.outdir = value();
    } else if (arg == "--waitstates") {
      opt.waitstates = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.days <= 0 || opt.nodes <= 0) usage_and_exit(argv[0]);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2sim;
  const Options opt = parse(argc, argv);

  core::Sp2Config cfg = core::Sp2Config::small(opt.days, opt.nodes);
  cfg.driver.seed = opt.seed;
  if (opt.waitstates) {
    cfg.driver.node.monitor.selection = hpm::CounterSelection::kWaitStates;
  }

  std::filesystem::create_directories(opt.outdir);
  core::Sp2Simulation sim(cfg);
  const auto& campaign = sim.campaign();

  // --- raw records: the daemon and epilogue files -----------------------
  {
    std::ofstream f(opt.outdir + "/intervals.p2sim");
    analysis::save_intervals(f, campaign.intervals);
    std::ofstream g(opt.outdir + "/jobs.p2sim");
    analysis::save_jobs(g, campaign.jobs);
  }

  // --- tables ----------------------------------------------------------
  {
    std::ofstream f(opt.outdir + "/tables.txt");
    f << analysis::format_table2(sim.table2()) << '\n'
      << analysis::format_table3(sim.table3()) << '\n'
      << analysis::format_table4(sim.table4()) << '\n';
  }

  // --- the complete measurement report ----------------------------------
  {
    std::ofstream f(opt.outdir + "/report.txt");
    f << analysis::format_report(
        analysis::build_report(campaign, cfg.table_min_gflops));
  }

  // --- figure series ----------------------------------------------------
  {
    std::ofstream f(opt.outdir + "/fig1.csv");
    util::CsvWriter w(f);
    w.row({"day", "gflops", "gflops_ma", "utilization_ma"});
    const auto s = sim.fig1();
    for (std::size_t i = 0; i < s.day.size(); ++i) {
      w.field(s.day[i]).field(s.daily_gflops[i]);
      w.field(s.gflops_moving_avg[i]).field(s.utilization_moving_avg[i]);
      w.endrow();
    }
  }
  {
    std::ofstream f(opt.outdir + "/fig2.csv");
    util::CsvWriter w(f);
    w.row({"nodes", "walltime_s", "jobs"});
    for (const auto& b : sim.fig2().bins) {
      w.field(std::int64_t{b.nodes}).field(b.total_walltime_s);
      w.field(std::int64_t{b.jobs});
      w.endrow();
    }
  }
  {
    std::ofstream f(opt.outdir + "/fig3.csv");
    util::CsvWriter w(f);
    w.row({"nodes", "mean_mflops_per_node", "max_mflops_per_node", "jobs"});
    for (const auto& b : sim.fig3().bins) {
      w.field(std::int64_t{b.nodes}).field(b.mean_mflops_per_node);
      w.field(b.max_mflops_per_node).field(std::int64_t{b.jobs});
      w.endrow();
    }
  }
  {
    std::ofstream f(opt.outdir + "/fig4.csv");
    util::CsvWriter w(f);
    w.row({"job_seq", "job_mflops", "moving_avg"});
    const auto s = sim.fig4();
    for (std::size_t i = 0; i < s.job_seq.size(); ++i) {
      w.field(s.job_seq[i]).field(s.job_mflops[i]).field(s.moving_avg[i]);
      w.endrow();
    }
  }
  {
    std::ofstream f(opt.outdir + "/fig5.csv");
    util::CsvWriter w(f);
    w.row({"sys_user_fxu_ratio", "mflops_per_node"});
    const auto s = sim.fig5();
    for (std::size_t i = 0; i < s.sys_user_fxu_ratio.size(); ++i) {
      w.field(s.sys_user_fxu_ratio[i]).field(s.mflops_per_node[i]);
      w.endrow();
    }
  }

  if (!opt.quiet) {
    const auto f1 = sim.fig1();
    std::printf("campaign: %lld days x %d nodes (seed %llu%s)\n",
                static_cast<long long>(opt.days), opt.nodes,
                static_cast<unsigned long long>(opt.seed),
                opt.waitstates ? ", wait-state selection" : "");
    std::printf("mean %.2f Gflops at %.0f%% utilization; %zu jobs\n",
                f1.mean_gflops, 100.0 * f1.mean_utilization,
                campaign.jobs.size());
    std::printf("wrote tables, figure CSVs and raw records to %s/\n",
                opt.outdir.c_str());
  }
  return 0;
}
