// Minimal CSV emission.  `run_experiment --outdir` writes the series behind
// each figure as CSV so results can be re-plotted outside the repository.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace p2sim::util {

/// Streams rows to an ostream, quoting fields only when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter& field(std::string_view s);
  CsvWriter& field(double v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(std::uint64_t v);
  /// Ends the current row.
  void endrow();

  /// Convenience: write a full header / row at once.
  void row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
  bool at_row_start_ = true;
};

/// Quotes a field per RFC 4180 if it contains a comma, quote or newline.
std::string csv_escape(std::string_view s);

}  // namespace p2sim::util
