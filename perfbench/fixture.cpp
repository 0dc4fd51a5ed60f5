// Campaign configuration, paper rendering and the per-seed fixture.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench/bench.hpp"
#include "src/analysis/record_io.hpp"
#include "src/power2/signature.hpp"

namespace p2sim::perfbench {

namespace fs = std::filesystem;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int bench_threads() { return std::clamp(nproc() - 1, 1, 4); }

core::Sp2Config make_config(std::uint64_t seed, bool toy, int threads) {
  core::Sp2Config cfg = toy ? core::Sp2Config::small(kToyDays, kToyNodes)
                            : core::Sp2Config{};
  if (!toy) {
    cfg.driver.num_nodes = kPaperNodes;
    cfg.driver.days = kPaperDays;
  }
  // The demand level is pinned at its mean: with the random walk and the
  // slumps on, one seed submits half as many jobs as another and measures
  // half as many kernels, so run-to-run spread would measure the seed, not
  // the code.  Which jobs arrive, when, and what they run still vary.
  cfg.driver.demand_walk_noise = 0.0;
  cfg.driver.slump_prob_per_day = 0.0;
  // The driver XORs DriverConfig::seed into JobGenConfig::seed, so the
  // job generator gets a differently mixed copy or the two would cancel.
  cfg.driver.seed ^= seed;
  cfg.driver.jobgen.seed ^= seed * 0x9E3779B97F4A7C15ULL;
  cfg.threads() = threads;
  return cfg;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream body;
  body << in.rdbuf();
  *out = body.str();
  return true;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out);
}

namespace {

void put(std::string& s, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %s=%.17g", key, v);
  s += buf;
}

void put(std::string& s, const char* key, const std::vector<double>& v) {
  s += ' ';
  s += key;
  s += '=';
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
    s += buf;
  }
}

std::string render_figures(const analysis::Fig1Series& f1,
                           const analysis::Fig2Series& f2,
                           const analysis::Fig3Series& f3,
                           const analysis::Fig4Series& f4,
                           const analysis::Fig5Series& f5) {
  std::string s = "fig1";
  put(s, "daily_gflops", f1.daily_gflops);
  put(s, "gflops_ma", f1.gflops_moving_avg);
  put(s, "util_ma", f1.utilization_moving_avg);
  put(s, "mean_gflops", f1.mean_gflops);
  put(s, "mean_util", f1.mean_utilization);
  put(s, "trend", f1.trend_slope);
  s += "\nfig2";
  for (const analysis::Fig2Bin& b : f2.bins) {
    put(s, "nodes", b.nodes);
    put(s, "walltime_s", b.total_walltime_s);
    put(s, "jobs", b.jobs);
  }
  put(s, "popular", f2.most_popular_nodes);
  put(s, "beyond64", f2.walltime_beyond_64_fraction);
  s += "\nfig3";
  for (const analysis::Fig3Bin& b : f3.bins) {
    put(s, "nodes", b.nodes);
    put(s, "mean", b.mean_mflops_per_node);
    put(s, "max", b.max_mflops_per_node);
    put(s, "jobs", b.jobs);
  }
  put(s, "upto64", f3.mean_upto_64);
  put(s, "beyond64", f3.mean_beyond_64);
  s += "\nfig4";
  put(s, "mflops", f4.job_mflops);
  put(s, "ma", f4.moving_avg);
  put(s, "mean", f4.mean);
  put(s, "stddev", f4.stddev);
  put(s, "trend", f4.trend_slope);
  s += "\nfig5";
  put(s, "ratio", f5.sys_user_fxu_ratio);
  put(s, "mflops", f5.mflops_per_node);
  put(s, "corr", f5.correlation);
  s += '\n';
  return s;
}

}  // namespace

std::string run_paper(core::Sp2Simulation& sim, PaperTimes* t) {
  t->begin = now_s();
  sim.campaign();
  t->campaign_end = now_s();
  std::string tables = analysis::format_table2(sim.table2());
  tables += analysis::format_table3(sim.table3());
  tables += analysis::format_table4(sim.table4());
  t->tables_end = now_s();
  const analysis::Fig1Series f1 = sim.fig1();
  const analysis::Fig2Series f2 = sim.fig2();
  const analysis::Fig3Series f3 = sim.fig3();
  const analysis::Fig4Series f4 = sim.fig4();
  const analysis::Fig5Series f5 = sim.fig5();
  t->figures_end = now_s();
  const std::string loss =
      analysis::format_measurement_loss(sim.measurement_loss());
  t->end = now_s();
  t->campaign_s = t->campaign_end - t->begin;
  t->tables_s = t->tables_end - t->campaign_end;
  t->figures_s = t->figures_end - t->tables_end;
  t->loss_s = t->end - t->figures_end;
  return tables + render_figures(f1, f2, f3, f4, f5) + loss;
}

int build_fixture(std::uint64_t seed, bool toy, const std::string& dir) {
  // Built beside the destination and renamed into place, so a killed build
  // never leaves a fixture that looks complete.
  const std::string tmp = dir + ".tmp";
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) {
    std::fprintf(stderr, "p2bench: cannot create %s: %s\n", tmp.c_str(),
                 ec.message().c_str());
    return 2;
  }
  core::Sp2Config cfg = make_config(seed, toy, bench_threads());
  cfg.signature_store() = tmp + "/" + kStoreFile;
  cfg.archive() = tmp + "/" + kArchiveFile;
  core::Sp2Simulation sim(cfg);
  PaperTimes times;
  const std::string paper = run_paper(sim, &times);

  std::ofstream intervals(tmp + "/" + kIntervalsFile);
  analysis::save_intervals(intervals, sim.campaign().intervals);
  intervals.close();
  std::ofstream jobs(tmp + "/" + kJobsFile);
  analysis::save_jobs(jobs, sim.campaign().jobs);
  jobs.close();
  // The entry count lets the warm guard catch a store that lost whole
  // lines, which still loads cleanly.
  const power2::SignatureCache store(cfg.driver.core,
                                     {cfg.signature_store(), true, false});
  const std::string meta =
      "kernels " + std::to_string(store.size()) + "\n";
  if (!write_file(tmp + "/" + kPaperFile, paper) ||
      !write_file(tmp + "/meta.txt", meta) || !intervals || !jobs) {
    std::fprintf(stderr, "p2bench: cannot write fixture files in %s\n",
                 tmp.c_str());
    return 2;
  }
  fs::remove_all(dir, ec);
  fs::rename(tmp, dir, ec);
  if (ec) {
    std::fprintf(stderr, "p2bench: cannot publish fixture %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::printf("fixture seed=%llu: %zu kernels measured, cold paper %.3f s\n",
              static_cast<unsigned long long>(seed), store.size(),
              times.end - times.begin);
  return 0;
}

}  // namespace p2sim::perfbench
