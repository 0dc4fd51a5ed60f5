#include "src/core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/analysis/report.hpp"
#include "src/cluster/node.hpp"
#include "src/cluster/paging.hpp"
#include "src/hpm/events.hpp"
#include "src/pbs/scheduler.hpp"
#include "src/power2/kernel_desc.hpp"
#include "src/power2/signature.hpp"
#include "src/util/ascii_chart.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/workload/kernels.hpp"
#include "src/workload/npb.hpp"

namespace p2sim::core {

void Report::printf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const std::size_t at = text_.size();
    text_.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(text_.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    text_.resize(at + static_cast<std::size_t>(n));
  }
  va_end(args);
}

void Report::compare(double measured) {
  if (measured_.size() >= paper_->size()) {
    throw std::logic_error("Report::compare: no paper value left to compare");
  }
  const PaperValue& p = (*paper_)[measured_.size()];
  printf("  %-46s paper %10.3f   measured %10.3f \n", p.quantity.c_str(),
         p.paper, measured);
  measured_.push_back(measured);
}

Report Experiment::run(Sp2Simulation& sim) const {
  Report r(paper);
  body(sim, r);
  return r;
}

namespace {

// Paper values that more than one experiment reproduces.
constexpr double kPaperMflops = 17.4;            // Table 2 = Table 3 Mflops-All
constexpr double kPaperFlopsPerMemInst = 0.63;   // Table 3 and section 5
constexpr double kPaperMatmulMflops = 240.0;     // section 5 calibration

double row_avg(const std::vector<analysis::RateRow>& rows,
               std::string_view label) {
  for (const analysis::RateRow& r : rows) {
    if (r.label == label) return r.avg;
  }
  return 0.0;
}

// A second campaign derived from the caller's: same machine, workload,
// threads and signature store, but none of the caller's durable outputs,
// which belong to the caller's campaign alone.
Sp2Config derived_config(const Sp2Config& base) {
  Sp2Config cfg = base;
  cfg.checkpoint() = {};
  cfg.archive().clear();
  return cfg;
}

// --- tables ----------------------------------------------------------------

void run_table1(Sp2Simulation&, Report& r) {
  r.printf("  %-22s %-9s %s\n", "Counter Label", "Slot", "Description");
  for (const auto& info : hpm::counter_table()) {
    r.printf("  %-22s %-9s %s\n", std::string(info.label).c_str(),
             std::string(info.slot).c_str(),
             std::string(info.description).c_str());
  }
  r.printf("\n  total counters: %zu (paper: 22, 32-bit, on the SCU chip)\n",
           hpm::counter_table().size());
}

void run_table2(Sp2Simulation& sim, Report& r) {
  const analysis::Table2 t = sim.table2();
  r.printf("%s\n", analysis::format_table2(t).c_str());
  r.printf("  paper reference values (avg over its 30-day sample):\n");
  r.compare(t.rows[0].avg);
  r.compare(t.rows[1].avg);
  r.compare(t.rows[2].avg);
  r.compare(t.sample_mean_gflops);
  r.compare(t.sample_mean_utilization);
  r.compare(static_cast<double>(t.sample_days));
}

// Table 3 rows in the order of the experiment's paper values.
constexpr const char* kTable3Rows[] = {
    "Mflops-All",
    "Mflops-add",
    "Mflops-div",
    "Mflops-mult",
    "Mflops-fma",
    "Mips-Floating Point (Total)",
    "Mips-Floating Point (Unit 0)",
    "Mips-Floating Point (Unit 1)",
    "Mips-Fixed Point Unit (Total)",
    "Mips-Fixed Point (Unit 1)",
    "Mips-Fixed Point (Unit 0)",
    "Mips-Inst Cache Unit",
    "Data Cache Misses-Million/S",
    "TLB-Million/S",
    "Instruction Cache Misses-Million/S",
    "DMA reads-MTransfer/S",
    "DMA writes-MTransfer/S",
};

void run_table3(Sp2Simulation& sim, Report& r) {
  const analysis::Table3 t = sim.table3();
  r.printf("%s\n", analysis::format_table3(t).c_str());
  r.printf("  paper reference values (avg column):\n");
  for (const char* label : kTable3Rows) r.compare(row_avg(t.rows, label));
  r.compare(row_avg(t.rows, "Mips-Floating Point (Unit 0)") /
            row_avg(t.rows, "Mips-Floating Point (Unit 1)"));
  r.compare(2.0 * row_avg(t.rows, "Mflops-fma") /
            row_avg(t.rows, "Mflops-All"));
  r.compare(row_avg(t.rows, "Mflops-All") /
            row_avg(t.rows, "Mips-Fixed Point Unit (Total)"));
}

void run_table4(Sp2Simulation& sim, Report& r) {
  const analysis::Table4 t = sim.table4();
  r.printf("%s\n", analysis::format_table4(t).c_str());
  r.printf("  paper reference values:\n");
  r.compare(100.0 * t.nas_workload.cache_miss_ratio);
  r.compare(100.0 * t.nas_workload.tlb_miss_ratio);
  r.compare(t.nas_workload.mflops_per_cpu);
  r.compare(100.0 * t.sequential.cache_miss_ratio);
  r.compare(100.0 * t.sequential.tlb_miss_ratio);
  r.compare(100.0 * t.npb_bt.cache_miss_ratio);
  r.compare(100.0 * t.npb_bt.tlb_miss_ratio);
  r.compare(t.npb_bt.mflops_per_cpu);
}

// --- figures ---------------------------------------------------------------

void run_fig1(Sp2Simulation& sim, Report& r) {
  const analysis::Fig1Series f = sim.fig1();
  std::ostringstream os;
  os << "Figure 1 (system performance history): " << f.day.size()
     << " days, mean " << f.mean_gflops << " Gflops, peak "
     << f.max_daily_gflops << " Gflops, mean utilization "
     << f.mean_utilization << ", trend slope " << f.trend_slope
     << " Gflops/day\n";
  r.printf("%s", os.str().c_str());

  util::Series daily{.name = "daily Gflops", .xs = f.day,
                     .ys = f.daily_gflops, .glyph = '.'};
  util::Series ma{.name = "moving average", .xs = f.day,
                  .ys = f.gflops_moving_avg, .glyph = 'o'};
  std::vector<double> util_scaled;
  util_scaled.reserve(f.utilization_moving_avg.size());
  for (double u : f.utilization_moving_avg) util_scaled.push_back(4.0 * u);
  util::Series um{.name = "utilization moving avg (x4 Gflops scale)",
                  .xs = f.day, .ys = util_scaled, .glyph = 'u'};
  util::ChartOptions opts;
  opts.title = "System Performance (Gflops) vs day";
  opts.x_label = "day of campaign";
  opts.y_label = "Gflops";
  opts.height = 18;
  r.printf("%s\n", util::render_chart({daily, ma, um}, opts).c_str());

  r.printf("  paper reference values:\n");
  r.compare(f.mean_gflops);
  r.compare(f.max_daily_gflops);
  r.compare(f.mean_utilization);
  r.compare(f.max_daily_utilization);
  r.compare(f.trend_slope);
}

void run_fig2(Sp2Simulation& sim, Report& r) {
  const analysis::Fig2Series f = sim.fig2();
  std::ostringstream os;
  os << "Figure 2 (walltime by node count): most popular request "
     << f.most_popular_nodes << " nodes; fraction of walltime beyond 64 "
     << f.walltime_beyond_64_fraction << "\n";
  for (const analysis::Fig2Bin& b : f.bins) {
    os << "  " << b.nodes << " nodes: " << b.jobs << " jobs, "
       << b.total_walltime_s << " s\n";
  }
  r.printf("%s", os.str().c_str());

  std::vector<std::pair<std::string, double>> bars;
  bars.reserve(f.bins.size());
  for (const auto& b : f.bins) {
    bars.emplace_back(std::to_string(b.nodes), b.total_walltime_s);
  }
  r.printf("%s\n",
           util::render_bars(bars, "walltime (s) by nodes requested").c_str());

  r.printf("  paper reference values:\n");
  r.compare(static_cast<double>(f.most_popular_nodes));
  r.compare(f.walltime_beyond_64_fraction);
}

void run_fig3(Sp2Simulation& sim, Report& r) {
  const analysis::Fig3Series f = sim.fig3();
  std::ostringstream os;
  os << "Figure 3 (Mflops/node by node count): mean <=64 nodes "
     << f.mean_upto_64 << ", beyond 64 " << f.mean_beyond_64 << "\n";
  r.printf("%s", os.str().c_str());

  util::Series mean{.name = "mean Mflops/node", .xs = {}, .ys = {},
                    .glyph = 'o'};
  util::Series best{.name = "best job in bin", .xs = {}, .ys = {},
                    .glyph = '+'};
  double peak = 0.0;
  for (const auto& b : f.bins) {
    mean.xs.push_back(b.nodes);
    mean.ys.push_back(b.mean_mflops_per_node);
    best.xs.push_back(b.nodes);
    best.ys.push_back(b.max_mflops_per_node);
    peak = std::max(peak, b.max_mflops_per_node);
  }
  util::ChartOptions opts;
  opts.title = "Performance (Mflops per node) vs nodes requested";
  opts.x_label = "nodes requested";
  opts.y_label = "Mflops/node";
  r.printf("%s\n", util::render_chart({mean, best}, opts).c_str());

  r.printf("  paper reference values:\n");
  r.compare(peak);
  r.compare(f.mean_upto_64);
  r.compare(f.mean_beyond_64);
}

void run_fig4(Sp2Simulation& sim, Report& r) {
  const analysis::Fig4Series f = sim.fig4();
  std::ostringstream os;
  os << "Figure 4 (" << f.node_count << "-node job history): "
     << f.job_seq.size() << " jobs, mean " << f.mean << " Mflops, stddev "
     << f.stddev << ", trend slope " << f.trend_slope << "\n";
  r.printf("%s", os.str().c_str());

  util::Series jobs{.name = "16-node job rate", .xs = f.job_seq,
                    .ys = f.job_mflops, .glyph = '.'};
  util::Series ma{.name = "moving average", .xs = f.job_seq,
                  .ys = f.moving_avg, .glyph = 'o'};
  util::ChartOptions opts;
  opts.title = "Job performance rate (Mflops) vs batch job number";
  opts.x_label = "16-node batch job number (start order)";
  opts.y_label = "job Mflops";
  opts.height = 16;
  r.printf("%s\n", util::render_chart({jobs, ma}, opts).c_str());

  r.printf("  paper reference values:\n");
  r.compare(static_cast<double>(f.job_mflops.size()));
  r.compare(f.mean);
  r.compare(f.stddev);
  r.compare(f.trend_slope);
}

void run_fig5(Sp2Simulation& sim, Report& r) {
  const analysis::Fig5Series f = sim.fig5();
  std::ostringstream os;
  os << "Figure 5 (paging diagnostic): " << f.mflops_per_node.size()
     << " days, correlation " << f.correlation << "\n";
  r.printf("%s", os.str().c_str());

  util::Series pts{.name = "one point per day", .xs = f.sys_user_fxu_ratio,
                   .ys = f.mflops_per_node, .glyph = '*'};
  util::ChartOptions opts;
  opts.title = "Mflops per node vs (system FXU)/(user FXU)";
  opts.x_label = "system/user FXU instruction ratio";
  opts.y_label = "Mflops per node";
  r.printf("%s\n", util::render_chart({pts}, opts).c_str());

  // The paper's qualitative claim: high intervention days perform poorly.
  const double median_ratio = util::quantile(f.sys_user_fxu_ratio, 0.5);
  util::RunningStats low, high;
  for (std::size_t i = 0; i < f.sys_user_fxu_ratio.size(); ++i) {
    (f.sys_user_fxu_ratio[i] <= median_ratio ? low : high)
        .add(f.mflops_per_node[i]);
  }
  r.printf("  paper reference (qualitative: anti-correlation):\n");
  r.compare(f.correlation);
  r.compare(low.mean());
  r.compare(high.mean());
}

// --- section 5 in-text numbers and trends ---------------------------------

// In-text calibration numbers from section 5 that are not part of any
// table or figure: the 240 Mflops blocked matrix multiply and its
// flops/memref of 3.0, the workload's register-reuse ratio, the DMA
// message-traffic arithmetic, and the memory-delay-per-reference estimate.
void run_calibration(Sp2Simulation& sim, Report& r) {
  const auto mm = sim.run_kernel(workload::blocked_matmul());
  const double mm_fpm = static_cast<double>(mm.counts.flops()) /
                        static_cast<double>(mm.counts.fxu_inst());
  r.printf("  blocked, unrolled, cache-resident matrix multiply:\n");
  r.compare(mm.mflops());
  r.compare(mm_fpm);
  r.compare(mm.mflops() / util::MachineClock::kPeakMflopsPerNode);

  const auto t3 = sim.table3();
  const double mflops = row_avg(t3.rows, "Mflops-All");
  const double fxu = row_avg(t3.rows, "Mips-Fixed Point Unit (Total)");
  const double icu = row_avg(t3.rows, "Mips-Inst Cache Unit");
  const double mips_fpu = row_avg(t3.rows, "Mips-Floating Point (Total)");
  r.printf("\n  workload aggregates (filtered-day sample):\n");
  r.compare(mflops / fxu);
  r.compare(icu / (fxu + icu + mips_fpu));
  // Delay per memory reference: (8 * cache misses + 45 * TLB misses) over
  // FXU instructions, in cycles.
  r.compare((8.0 * row_avg(t3.rows, "Data Cache Misses-Million/S") +
             45.0 * row_avg(t3.rows, "TLB-Million/S")) /
            fxu);

  // DMA traffic arithmetic: transfers/s x avg transfer size.
  const double mbytes = (row_avg(t3.rows, "DMA reads-MTransfer/S") +
                         row_avg(t3.rows, "DMA writes-MTransfer/S")) *
                        1e6 * cluster::DmaConfig{}.avg_transfer_bytes() / 1e6;
  r.printf("\n  DMA / network:\n");
  r.compare(mbytes);
  r.compare(mbytes / 34.0);

  r.printf("\n  batch job database:\n");
  r.compare(sim.campaign().jobs.time_weighted_mflops_per_node());
}

// Section 5's "no obvious trends" analysis, quantified: population mixing
// and demand variance wash out the microarchitectural signals at day
// granularity, while the system/user FXU ratio (paging) still shows.
void run_trends(Sp2Simulation& sim, Report& r) {
  const analysis::TrendReport t = analysis::analyze_trends(sim.days());
  r.printf("%s\n", analysis::format_trends(t).c_str());

  const auto* fma = t.find("fma_flop_fraction");
  const auto* tlb = t.find("tlb_miss_ratio");
  const auto* sys = t.find("system_user_fxu_ratio");
  r.printf("  the paper's expectations vs the day-level data:\n");
  if (fma != nullptr) {
    r.printf("    'greater fma fraction -> higher performance': "
             "corr = %+.2f (paper: no such trend visible)\n",
             fma->vs_mflops);
  }
  if (tlb != nullptr) {
    r.printf("    'higher TLB miss ratio -> lower performance': "
             "corr = %+.2f (paper: not visible either)\n",
             tlb->vs_mflops);
  }
  if (sys != nullptr) {
    r.printf("    system intervention (the Figure 5 signal):    "
             "corr = %+.2f\n", sys->vs_mflops);
  }

  // Per-user accounting: the system-personnel view.
  const auto users = analysis::user_stats(sim.campaign().jobs);
  r.printf("\n  per-user accounting (%zu users with analyzed jobs):\n",
           users.size());
  r.printf("    top 10 users hold %.0f%% of node-hours\n",
           100.0 * analysis::top_n_node_hour_share(users, 10));
  r.printf("    %-8s %6s %12s %14s %10s\n", "user", "jobs", "node-hours",
           "Mflops/node", "best");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, users.size()); ++i) {
    const auto& u = users[i];
    r.printf("    %-8d %6d %12.0f %14.1f %10.1f\n", u.user_id, u.jobs,
             u.node_hours, u.mflops_per_node, u.best_mflops_per_node);
  }
}

// The NAS Parallel Benchmarks' kernel models through the POWER2 core: the
// per-code counter profile behind Table 4's tuned-code (BT) column.
void run_npb(Sp2Simulation&, Report& r) {
  r.printf("  %-4s %8s %8s %8s %8s %8s %8s  %s\n", "code", "Mflops",
           "f/memref", "fma%", "dc-miss%", "tlb%", "ipc", "character");
  for (workload::NpbBenchmark b : workload::npb_suite()) {
    power2::Power2Core core;
    const auto sig = power2::measure_signature(core, workload::npb_kernel(b));
    const double fxu = sig.fxu0_inst + sig.fxu1_inst;
    const double flops = sig.flops_per_cycle();
    const double fma_share =
        flops > 0 ? 2.0 * (sig.fp_fma0 + sig.fp_fma1) / flops : 0.0;
    r.printf("  %-4s %8.1f %8.2f %7.0f%% %7.2f%% %7.3f%% %8.2f  %s\n",
             std::string(workload::npb_name(b)).c_str(), sig.mflops(),
             fxu > 0 ? flops / fxu : 0.0, 100.0 * fma_share,
             100.0 * (fxu > 0 ? sig.dcache_miss / fxu : 0.0),
             100.0 * (fxu > 0 ? sig.tlb_miss / fxu : 0.0),
             sig.instructions_per_cycle(),
             std::string(workload::npb_description(b)).c_str());
  }
  r.printf("\n  expected shape: EP compute-dense; BT/SP tuned solvers;\n"
           "  LU dependence-bound; MG bandwidth-bound; FT TLB-heavy\n"
           "  transposes; CG cache-hostile gathers.\n");
}

// The counter selection the paper's conclusions recommend: the caller's
// campaign rerun with the broken divide slots counting comm-wait and
// I/O-wait cycles, which makes the causal correlation the NAS selection
// could not draw measurable.
void run_waitstates(Sp2Simulation& sim, Report& r) {
  Sp2Config cfg = derived_config(sim.config());
  cfg.driver.node.monitor.selection = hpm::CounterSelection::kWaitStates;
  Sp2Simulation waits(cfg);

  // Correlate daily *efficiency* against the now-visible wait shares:
  // both sides are normalized by utilization, so "busy days have more of
  // everything" cannot masquerade as a correlation.
  std::vector<double> mflops, comm_wait, io_wait, total_wait;
  for (const auto& d : waits.days()) {
    if (d.utilization < 0.15) continue;
    mflops.push_back(d.per_node.mflops_all / d.utilization);
    comm_wait.push_back(d.per_node.comm_wait_fraction / d.utilization);
    io_wait.push_back(d.per_node.io_wait_fraction / d.utilization);
    total_wait.push_back(comm_wait.back() + io_wait.back());
  }
  util::RunningStats cw, iw;
  for (double x : comm_wait) cw.add(x);
  for (double x : io_wait) iw.add(x);

  r.printf("  campaign rerun with FPU0[3]/FPU1[3] counting wait states\n");
  r.printf("  (same seed, same workload; %zu analyzable days)\n\n",
           mflops.size());
  r.printf("  mean comm-wait share of busy node time : %6.2f%%\n",
           100.0 * cw.mean());
  r.printf("  mean I/O-wait share of busy node time  : %6.2f%%\n",
           100.0 * iw.mean());
  r.printf("\n  correlations that were impossible under the NAS "
           "selection\n  (per busy-node-time, so load volume cancels):\n");
  r.printf("    corr(busy Mflops/node, comm-wait share) = %+.2f\n",
           util::pearson(mflops, comm_wait));
  r.printf("    corr(busy Mflops/node, I/O-wait share)  = %+.2f\n",
           util::pearson(mflops, io_wait));
  r.printf("    corr(busy Mflops/node, total wait)      = %+.2f\n",
           util::pearson(mflops, total_wait));
  r.printf("\n  the I/O-wait correlation isolates the paging pathology\n"
           "  directly, without the system/user FXU proxy of Figure 5.\n");
}

// --- ablations ---------------------------------------------------------------

// FPU dispatch steering: the measured FPU0/FPU1 ratio of 1.7 is a property
// of the POWER2's FPU0-first steering, not of the code, and steering has
// only a second-order effect on delivered Mflops.
void run_ablation_dispatch(Sp2Simulation&, Report& r) {
  using power2::FpuSteering;
  struct Case {
    const char* name;
    power2::KernelDesc kernel;
  };
  const Case cases[] = {
      {"cfd (dependence-bound)", workload::cfd_multiblock(7, 0.25)},
      {"mdo (ILP-rich)", workload::mdo_ensemble(7)},
      {"blocked matmul", workload::blocked_matmul()},
  };
  const std::pair<FpuSteering, const char*> policies[] = {
      {FpuSteering::kFpu0First, "fpu0-first (POWER2)"},
      {FpuSteering::kRoundRobin, "round-robin"},
      {FpuSteering::kEarliestFree, "earliest-free"},
  };

  r.printf("  %-26s %-22s %10s %10s\n", "kernel", "policy", "FPU0/FPU1",
           "Mflops");
  for (const Case& c : cases) {
    for (const auto& [policy, policy_name] : policies) {
      power2::CoreConfig cfg;
      cfg.fpu_steering = policy;
      power2::Power2Core core(cfg);
      const auto sig = power2::measure_signature(core, c.kernel);
      const double ratio =
          sig.fpu1_inst > 0 ? sig.fpu0_inst / sig.fpu1_inst : 0.0;
      r.printf("  %-26s %-22s %10.2f %10.1f\n", c.name, policy_name, ratio,
               sig.mflops());
    }
  }
  r.printf("\n  paper: measured NAS workload ratio ~1.7; tuned codes "
           "closer to 1.\n");
}

// Data-cache geometry swept around the SP2's 256 kB, 4-way, 256-byte-line
// design point, for a median CFD kernel.
void run_ablation_cache(Sp2Simulation&, Report& r) {
  const auto row = [&r](const char* label, const power2::CacheConfig& dc) {
    power2::CoreConfig cfg;
    cfg.dcache = dc;
    power2::Power2Core core(cfg);
    const auto sig =
        power2::measure_signature(core, workload::cfd_multiblock(9, 0.25));
    const double fxu = sig.fxu0_inst + sig.fxu1_inst;
    r.printf("  %-34s %10.2f%% %10.1f\n", label,
             fxu > 0 ? 100.0 * sig.dcache_miss / fxu : 0.0, sig.mflops());
  };
  r.printf("  %-34s %11s %10s\n", "geometry", "miss ratio", "Mflops");
  char label[64];
  for (std::uint32_t ways : {1u, 2u, 4u, 8u}) {
    std::snprintf(label, sizeof(label), "256 kB, %u-way, 256 B lines", ways);
    row(label, {.size_bytes = 256 * 1024, .line_bytes = 256, .ways = ways});
  }
  for (std::uint32_t line : {64u, 128u, 256u, 512u}) {
    std::snprintf(label, sizeof(label), "256 kB, 4-way, %u B lines", line);
    row(label, {.size_bytes = 256 * 1024, .line_bytes = line, .ways = 4});
  }
  for (std::uint32_t kb : {64u, 128u, 256u, 512u}) {
    std::snprintf(label, sizeof(label), "%u kB, 4-way, 256 B lines", kb);
    row(label, {.size_bytes = kb * 1024ull, .line_bytes = 256, .ways = 4});
  }
  r.printf("\n  real machine: 256 kB, 4-way, 1024 lines of 256 bytes.\n");
}

// The blocked_matmul loop body with a parameterized panel working set.
power2::KernelDesc matmul_with_blocks(std::uint64_t panel_bytes) {
  power2::KernelBuilder b("matmul_blocks_" + std::to_string(panel_bytes));
  const auto a_panel = b.stream(panel_bytes, 16);
  const auto b_panel = b.stream(panel_bytes, 16);
  const auto c_block = b.stream(panel_bytes / 2, 16);
  std::int16_t fma_idx[16];
  int f = 0;
  for (int g = 0; g < 4; ++g) {
    b.load(a_panel, true);
    b.load(b_panel, true);
    for (int k = 0; k < 4; ++k) {
      fma_idx[f] = b.fma(f >= 4 ? fma_idx[f - 4] : power2::kNoDep);
      ++f;
    }
  }
  b.load(c_block, true);
  b.store(c_block, true);
  b.alu();
  // Large panels need a long warmup to reach the streaming steady state.
  return b.warmup(panel_bytes / 64 + 1024).measure(8192).build();
}

// Matrix-multiply blocking swept through the cache boundary against the
// unblocked ijk baseline: the cliff behind the paper's 240 Mflops peak.
void run_ablation_blocking(Sp2Simulation&, Report& r) {
  r.printf("  %-28s %10s %12s %12s\n", "block working set", "Mflops",
           "miss ratio", "flops/memref");
  for (std::uint64_t kb : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 4096u}) {
    power2::Power2Core core;
    const auto sig =
        power2::measure_signature(core, matmul_with_blocks(kb * 1024ull / 2));
    const double fxu = sig.fxu0_inst + sig.fxu1_inst;
    char label[64];
    std::snprintf(label, sizeof(label), "~%lu kB total",
                  static_cast<unsigned long>(kb));
    r.printf("  %-28s %10.1f %11.2f%% %12.2f\n", label, sig.mflops(),
             fxu > 0 ? 100.0 * sig.dcache_miss / fxu : 0.0,
             fxu > 0 ? sig.flops_per_cycle() / fxu : 0.0);
  }

  power2::Power2Core core;
  const auto naive = power2::measure_signature(core, workload::naive_matmul());
  r.printf("\n  unblocked ijk baseline: %.1f Mflops (the cliff the\n"
           "  paper's users fall off when codes are not restructured)\n",
           naive.mflops());
  r.compare(power2::measure_signature(core, matmul_with_blocks(64 * 1024))
                .mflops());
}

// Memory oversubscription swept through the 128 MB node capacity: fault
// rate, user slowdown, system/user FXU ratio and delivered Mflops — the
// causal chain the paper infers from HPM data.
void run_ablation_paging(Sp2Simulation&, Report& r) {
  power2::Power2Core core;
  const auto sig =
      power2::measure_signature(core, workload::cfd_multiblock(13, 0.3));
  const cluster::PagingModel paging;

  r.printf("  %-12s %10s %10s %12s %10s\n", "demand (MB)", "faults/s",
           "slowdown", "sysFXU/usrFXU", "Mflops");
  for (double mb : {64.0, 120.0, 128.0, 140.0, 160.0, 192.0, 224.0, 256.0,
                    320.0}) {
    const cluster::PagingState pg = paging.evaluate(mb);
    cluster::Node node(0);
    cluster::ActivityProfile act;
    act.compute_fraction = pg.user_slowdown;
    act.page_faults_per_s = pg.fault_rate;
    node.advance(900.0, &sig, act);
    const auto& t = node.totals();
    const double user_fxu = static_cast<double>(
        t.user_at(hpm::HpmCounter::kUserFxu0) +
        t.user_at(hpm::HpmCounter::kUserFxu1));
    const double sys_fxu = static_cast<double>(
        t.system_at(hpm::HpmCounter::kUserFxu0) +
        t.system_at(hpm::HpmCounter::kUserFxu1));
    r.printf("  %-12.0f %10.1f %10.2f %12.2f %10.1f\n", mb, pg.fault_rate,
             pg.user_slowdown, user_fxu > 0 ? sys_fxu / user_fxu : 0.0,
             sig.mflops() * pg.user_slowdown);
  }
  r.printf("\n  paper: jobs beyond 64 nodes showed system-mode FXU/ICU\n"
           "  counts exceeding user mode; the cause was data paging from\n"
           "  node memory oversubscription.\n");
}

struct StreamResult {
  double utilization = 0.0;
  double mean_wide_wait_h = 0.0;
  int wide_started = 0;
  int preemptions = 0;
};

// Event-driven scheduler-only simulation of 30 days: narrow jobs consume
// node-time, wide jobs arrive periodically, preempted jobs resubmit their
// remainder.
StreamResult run_stream(bool checkpointing, std::uint64_t seed) {
  pbs::SchedulerConfig cfg;
  cfg.checkpoint_for_wide = checkpointing;
  cfg.wide_wait_patience_s = 2 * 3600.0;
  pbs::Scheduler sched(cfg);
  util::Xoshiro256StarStar rng(seed);

  const double horizon_s = 30.0 * 86400.0;
  const double step_s = 900.0;

  std::map<std::int64_t, double> running_end_s;
  std::map<std::int64_t, double> wide_submit;
  std::int64_t next_id = 1;
  double busy_node_seconds = 0.0;
  util::RunningStats wide_wait;
  int preemptions = 0;

  for (double now = 0.0; now < horizon_s; now += step_s) {
    // Narrow arrivals: ~40/day of 8-32 nodes; one wide job every ~2 days.
    const std::uint64_t n = rng.poisson(40.0 * step_s / 86400.0);
    for (std::uint64_t i = 0; i < n; ++i) {
      pbs::JobSpec j;
      j.job_id = next_id++;
      j.nodes_requested = static_cast<int>(8u << rng.below(3));  // 8/16/32
      j.runtime_s = rng.uniform(1.0, 6.0) * 3600.0;
      j.submit_time_s = now;
      sched.submit(j);
    }
    if (rng.chance(step_s / (2.0 * 86400.0))) {
      pbs::JobSpec w;
      w.job_id = next_id++;
      w.nodes_requested = 96 + static_cast<int>(rng.below(33));
      w.runtime_s = rng.uniform(2.0, 5.0) * 3600.0;
      w.submit_time_s = now;
      wide_submit[w.job_id] = now;
      sched.submit(w);
    }

    for (const pbs::StartEvent& ev : sched.schedule(now)) {
      running_end_s[ev.spec.job_id] = now + ev.spec.runtime_s;
      if (auto it = wide_submit.find(ev.spec.job_id);
          it != wide_submit.end()) {
        wide_wait.add((now - it->second) / 3600.0);
        wide_submit.erase(it);
      }
    }
    // Preempted jobs checkpoint and resubmit their remaining runtime,
    // narrow (conservative: the original width is not tracked here).
    for (std::int64_t id : sched.take_preempted()) {
      auto it = running_end_s.find(id);
      const double remaining = std::max(0.0, it->second - now);
      running_end_s.erase(it);
      ++preemptions;
      if (remaining > 60.0) {
        pbs::JobSpec j;
        j.job_id = next_id++;
        j.nodes_requested = 8;
        j.runtime_s = remaining;
        j.submit_time_s = now;
        sched.submit(j);
      }
    }

    busy_node_seconds += sched.busy_nodes() * step_s;

    std::vector<std::int64_t> done;
    for (const auto& [id, end_s] : running_end_s) {
      if (end_s <= now + step_s) done.push_back(id);
    }
    for (std::int64_t id : done) {
      sched.release(id);
      running_end_s.erase(id);
    }
  }

  return {.utilization = busy_node_seconds / (144.0 * horizon_s),
          .mean_wide_wait_h = wide_wait.mean(),
          .wide_started = static_cast<int>(wide_wait.count()),
          .preemptions = preemptions};
}

// Section 6's wide-job admission problem: the same job stream under queue
// draining (what NAS had, since MPI/PVM jobs could not be checkpointed)
// and under checkpoint-preemption, the counterfactual PBS could not deploy.
void run_ablation_checkpoint(Sp2Simulation&, Report& r) {
  const StreamResult drain = run_stream(false, 0xAB1E);
  const StreamResult ckpt = run_stream(true, 0xAB1E);

  r.printf("  %-28s %12s %12s\n", "", "drain (real)", "checkpoint");
  r.printf("  %-28s %11.1f%% %11.1f%%\n", "machine utilization",
           100.0 * drain.utilization, 100.0 * ckpt.utilization);
  r.printf("  %-28s %12.1f %12.1f\n", "mean wide-job wait (h)",
           drain.mean_wide_wait_h, ckpt.mean_wide_wait_h);
  r.printf("  %-28s %12d %12d\n", "wide jobs started", drain.wide_started,
           ckpt.wide_started);
  r.printf("  %-28s %12d %12d\n", "preemptions", drain.preemptions,
           ckpt.preemptions);
  r.printf("\n  the paper: enforcing admission policies 'would require\n"
           "  considerable rewriting of the current batch system\n"
           "  scheduler' — this is the quantified counterfactual.\n");
}

// --- faults ----------------------------------------------------------------

// The caller's campaign rerun under the reference outage profile: Table 2
// must land within 5% of the fault-free run, and the loss report must
// reconcile every injected fault against what the pipeline lost.
void run_fault_campaign(Sp2Simulation& sim, Report& r) {
  Sp2Config faulted_cfg = derived_config(sim.config());
  faulted_cfg.faults() = fault::FaultConfig::reference();
  Sp2Simulation faulted(faulted_cfg);
  const analysis::Table2 clean_t2 = sim.table2();
  const analysis::Table2 faulted_t2 = faulted.table2();
  r.printf("=== Fault-free Table 2 ===\n%s\n",
           analysis::format_table2(clean_t2).c_str());
  r.printf("=== Faulted Table 2 (reference outage profile) ===\n%s\n",
           analysis::format_table2(faulted_t2).c_str());

  r.printf("  %-20s %12s %12s %10s\n", "", "fault-free", "faulted", "delta");
  for (const char* label : {"Mips", "Mops", "Mflops"}) {
    const double a = row_avg(clean_t2.rows, label);
    const double b = row_avg(faulted_t2.rows, label);
    r.printf("  %-20s %12.2f %12.2f %9.2f%%\n", label, a, b,
             a != 0.0 ? 100.0 * (b - a) / a : 0.0);
  }
  r.printf("  %-20s %12d %12d\n", "sample days", clean_t2.sample_days,
           faulted_t2.sample_days);

  const double mflops_clean = row_avg(clean_t2.rows, "Mflops");
  const double rel =
      mflops_clean != 0.0
          ? std::fabs(row_avg(faulted_t2.rows, "Mflops") - mflops_clean) /
                mflops_clean
          : 0.0;
  r.printf("\n  Mflops deviation under faults: %.2f%% (tolerance 5%%) %s\n",
           100.0 * rel, rel <= 0.05 ? "PASS" : "FAIL");

  const analysis::MeasurementLoss loss = faulted.measurement_loss();
  r.printf("\n%s\n", analysis::format_measurement_loss(loss).c_str());
  if (!loss.reconciled()) {
    r.printf("  WARNING: loss report does not reconcile — the pipeline\n"
             "  absorbed or dropped a fault without accounting for it.\n");
  }
}

std::vector<Experiment> build_registry() {
  std::vector<Experiment> out;
  out.push_back({"table1", "the 22-counter NAS RS2HPM selection", {},
                 run_table1});
  out.push_back({"table2",
                 "sustained system rates (Mips/Mops/Mflops)",
                 {{"Mips", 45.7},
                  {"Mops", 48.3},
                  {"Mflops", kPaperMflops},
                  {"sample mean system Gflops", 2.5},
                  {"sample utilization", 0.76},
                  {"days above 2.0 Gflops", 30}},
                 run_table2});
  out.push_back({"table3",
                 "detailed per-node rate breakdown",
                 {{"Mflops-All", kPaperMflops},
                  {"Mflops-add", 9.5},
                  {"Mflops-div (monitor bug)", 0.0},
                  {"Mflops-mult", 3.2},
                  {"Mflops-fma", 4.7},
                  {"Mips-FPU total", 14.8},
                  {"Mips-FPU unit 0", 9.4},
                  {"Mips-FPU unit 1", 5.4},
                  {"Mips-FXU total", 27.6},
                  {"Mips-FXU unit 1", 16.5},
                  {"Mips-FXU unit 0", 11.1},
                  {"Mips-ICU", 3.3},
                  {"D-cache misses (M/s)", 0.30},
                  {"TLB misses (M/s)", 0.04},
                  {"I-cache misses (M/s)", 0.014},
                  {"DMA reads (MT/s)", 0.024},
                  {"DMA writes (MT/s)", 0.017},
                  {"FPU0/FPU1 instruction ratio", 1.7},
                  {"fma share of flops", 0.54},
                  {"flops per memory instruction", kPaperFlopsPerMemInst}},
                 run_table3});
  out.push_back({"table4",
                 "memory-hierarchy ratios vs reference kernels",
                 {{"NAS workload cache miss ratio (%)", 1.0},
                  {"NAS workload TLB miss ratio (%)", 0.1},
                  {"NAS workload Mflops/CPU", 17.0},
                  {"sequential cache miss ratio (%)", 3.0},
                  {"sequential TLB miss ratio (%)", 0.2},
                  {"NPB BT cache miss ratio (%)", 1.2},
                  {"NPB BT TLB miss ratio (%)", 0.06},
                  {"NPB BT Mflops/CPU", 44.0}},
                 run_table4});
  out.push_back({"fig1",
                 "daily Gflops / utilization history",
                 {{"mean daily system Gflops", 1.3},
                  {"best 24-hour Gflops", 3.4},
                  {"mean utilization", 0.64},
                  {"max daily utilization", 0.95},
                  {"trend slope (Gflops/day; 'no obvious trend')", 0.0}},
                 run_fig1});
  out.push_back({"fig2",
                 "batch walltime by node count",
                 {{"most popular node count", 16},
                  {"walltime share beyond 64 nodes ('essentially none')",
                   0.0}},
                 run_fig2});
  out.push_back({"fig3",
                 "Mflops per node by node count",
                 {{"peak per-node batch rate (Mflops)", 40.0},
                  {"mean Mflops/node at <= 64 nodes", 20.0},
                  {"mean Mflops/node beyond 64 ('sharp decrease')", 8.0}},
                 run_fig3});
  out.push_back({"fig4",
                 "16-node job performance history",
                 {{"16-node jobs analyzed", 1200},
                  {"mean job rate (Mflops)", 320.0},
                  {"spread (std, paper quotes ~200)", 200.0},
                  {"trend (Mflops per job; 'no trend')", 0.0}},
                 run_fig4});
  out.push_back({"fig5",
                 "system/user FXU paging diagnostic",
                 {{"correlation(ratio, Mflops/node)", -0.5},
                  {"Mflops/node on low-intervention days", 17.0},
                  {"Mflops/node on high-intervention days", 8.0}},
                 run_fig5});
  out.push_back({"calibration",
                 "section 5 in-text numbers: matmul peak, reuse, DMA, delay",
                 {{"matmul Mflops", kPaperMatmulMflops},
                  {"matmul flops/memref", 3.0},
                  {"peak fraction",
                   kPaperMatmulMflops / util::MachineClock::kPeakMflopsPerNode},
                  {"flops per memory instruction", kPaperFlopsPerMemInst},
                  {"branch/ICU share of instructions", 0.07},
                  {"delay per memory reference (cycles)", 0.12},
                  {"message+disk DMA traffic (MB/s/node)", 1.3},
                  {"share of 34 MB/s node bandwidth", 0.04},
                  {"time-weighted batch Mflops/node", 19.0}},
                 run_calibration});
  out.push_back({"trends",
                 "day-level correlations behind 'no obvious trends'",
                 {},
                 run_trends});
  out.push_back({"npb", "NPB kernel suite counter profiles", {}, run_npb});
  out.push_back({"waitstates",
                 "campaign rerun with the wait-state counter selection",
                 {},
                 run_waitstates});
  out.push_back({"ablation_dispatch",
                 "FPU steering policy vs FPU0/FPU1 ratio",
                 {},
                 run_ablation_dispatch});
  out.push_back({"ablation_cache",
                 "D-cache geometry sweep vs miss ratio",
                 {},
                 run_ablation_cache});
  out.push_back({"ablation_blocking",
                 "matmul block size through the cache boundary",
                 {{"blocked matmul (in-cache)", kPaperMatmulMflops}},
                 run_ablation_blocking});
  out.push_back({"ablation_paging",
                 "memory oversubscription -> paging collapse",
                 {},
                 run_ablation_paging});
  out.push_back({"ablation_checkpoint",
                 "queue draining vs checkpointing for wide jobs",
                 {},
                 run_ablation_checkpoint});
  out.push_back({"report", "the full formatted measurement report", {},
                 [](Sp2Simulation& s, Report& r) {
                   r.printf("%s", analysis::format_report(
                                      analysis::build_report(
                                          s.campaign(),
                                          s.config().table_min_gflops))
                                      .c_str());
                 }});
  out.push_back({"loss", "measurement-loss audit of the campaign", {},
                 [](Sp2Simulation& s, Report& r) {
                   r.printf("%s", analysis::format_measurement_loss(
                                      s.measurement_loss())
                                      .c_str());
                 }});
  out.push_back({"fault_campaign",
                 "reference fault campaign: faulted Table 2 + loss report",
                 {},
                 run_fault_campaign});
  return out;
}

}  // namespace

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> registry = build_registry();
  return registry;
}

const Experiment* find_experiment(std::string_view name) {
  for (const Experiment& e : experiments()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace p2sim::core
