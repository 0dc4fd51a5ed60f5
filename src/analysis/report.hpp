// The complete measurement report.
//
// Assembles everything the repository reproduces into one formatted text
// document — the deliverable NAS system personnel would have circulated:
// campaign summary, monthly breakdown, Tables 2-4, figure summaries, the
// trend analysis and the per-user accounting.  `run_experiment --outdir`
// writes it to disk.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/daily.hpp"
#include "src/analysis/figures.hpp"
#include "src/analysis/tables.hpp"
#include "src/analysis/trends.hpp"
#include "src/analysis/users.hpp"

namespace p2sim::analysis {

/// Per-calendar-month aggregates (30-day months over the campaign).
struct MonthStats {
  int month = 0;               ///< 0-based month index
  double mean_gflops = 0.0;
  double max_gflops = 0.0;
  double mean_utilization = 0.0;
  double mean_mflops_per_node = 0.0;
  int days = 0;
};

std::vector<MonthStats> monthly_stats(const std::vector<DayStats>& days,
                                      int days_per_month = 30);

/// Everything the report needs, computed once.
struct CampaignReport {
  int num_nodes = 0;
  std::int64_t days = 0;
  Fig1Series fig1;
  Table2 table2;
  Table3 table3;
  Table4 table4;
  Fig2Series fig2;
  Fig3Series fig3;
  Fig4Series fig4;
  Fig5Series fig5;
  TrendReport trends;
  std::vector<UserStats> users;
  std::vector<MonthStats> months;
  double batch_mflops_per_node = 0.0;
  std::size_t total_jobs = 0;
};

CampaignReport build_report(const workload::CampaignResult& campaign,
                            double table_min_gflops = 2.0);

/// Renders the full text document.
std::string format_report(const CampaignReport& report);

}  // namespace p2sim::analysis
