// Terminal rendering of the paper's figures.  The figure experiments in
// src/core/registry draw each figure as an ASCII chart so the shape of the
// result — the >64-node collapse, the flat moving average, the Figure 5
// anti-correlation — is visible directly in run_experiment's output.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace p2sim::util {

/// One named series of (x, y) points.
struct Series {
  std::string name;
  std::vector<double> xs;
  std::vector<double> ys;
  char glyph = '*';
};

/// Chart configuration: canvas size and axis labels.
struct ChartOptions {
  int width = 72;       ///< plot area columns (excluding axis gutter)
  int height = 20;      ///< plot area rows
  std::string title;
  std::string x_label;
  std::string y_label;
  bool y_from_zero = true;  ///< anchor the y axis at zero (paper style)
  bool connect = false;     ///< draw crude line segments between points
};

/// Renders a scatter / line chart of the series onto a character canvas.
/// All series share axes; ranges are computed from the data.
std::string render_chart(const std::vector<Series>& series,
                         const ChartOptions& opts);

/// Renders a vertical-bar histogram: one bar per (label, value).
std::string render_bars(const std::vector<std::pair<std::string, double>>& bars,
                        std::string_view title, int width = 50);

}  // namespace p2sim::util
