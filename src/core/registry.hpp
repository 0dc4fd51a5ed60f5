// The experiment registry: every reproduction this repository can run,
// addressable by name.
//
// Each paper artifact (a table, a figure, the in-text calibration, an
// ablation, the loss audit, the fault campaign) is registered as a named
// Experiment.  Tools iterate experiments() to enumerate what exists;
// examples/run_experiment resolves names from the command line.  Campaign
// experiments share the caller's simulation, so running several reuses one
// campaign.
//
// The values the paper reports are data: each experiment lists them as
// PaperValues, and its run records the measured counterpart of each one,
// rendered side by side by Report::compare.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/simulation.hpp"

namespace p2sim::core {

/// One value the paper reports, which an experiment measures again.  The
/// quantity names its unit, e.g. "D-cache misses (M/s)".
struct PaperValue {
  std::string quantity;
  double paper = 0.0;
};

/// An experiment's output: formatted text, plus the measured value of
/// each of the experiment's paper values, in list order.
class Report {
 public:
  /// Keeps a pointer to `paper`, which must outlive the report.
  explicit Report(const std::vector<PaperValue>& paper) : paper_(&paper) {}
  explicit Report(std::vector<PaperValue>&&) = delete;

  /// Appends printf-formatted text.
  void printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Records the measured value of the next paper value and renders the
  /// pair as one "paper X / measured Y" line.
  void compare(double measured);

  const std::string& text() const { return text_; }
  const std::vector<double>& measured() const { return measured_; }

 private:
  const std::vector<PaperValue>* paper_;
  std::string text_;
  std::vector<double> measured_;
};

struct Experiment {
  std::string name;         ///< command-line handle, e.g. "table2"
  std::string description;  ///< one line, shown by list output
  /// The paper's values this experiment reproduces, in output order.
  std::vector<PaperValue> paper;
  /// Writes the result.  It may run the caller's campaign (lazily, via
  /// the simulation), derive a second campaign from the simulation's
  /// config (the fault and wait-state campaigns do), or ignore the
  /// simulation entirely (the kernel- and scheduler-level ablations do).
  std::function<void(Sp2Simulation&, Report&)> body;

  /// Runs body into a fresh Report.
  Report run(Sp2Simulation& sim) const;
};

/// All registered experiments, in presentation order.
const std::vector<Experiment>& experiments();

/// Finds an experiment by name; nullptr when unknown.
const Experiment* find_experiment(std::string_view name);

}  // namespace p2sim::core
