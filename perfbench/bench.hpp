// Shared declarations of the paper-scale benchmark (see README.md).
//
// The benchmark is one binary, p2bench, with two modes:
//
//   p2bench fixture --seed N --out DIR [--toy]
//       runs one cold campaign and stores what the timed runs compare
//       against: the signature store, the archive, the rendered paper and
//       the text records the query oracle is built from;
//   p2bench run --workload W --seed N --seconds S --trace 0|1
//               --fixture DIR --work DIR [--trace-out FILE] [--toy]
//       runs one workload against that fixture and prints every metric,
//       ending with one JSON line.
//
// Spans are recorded from these files only, around calls into the
// library's public API; nothing here is compiled into the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"

namespace p2sim::perfbench {

/// Campaign size of every workload: 144 nodes (the paper's machine) for
/// kPaperDays simulated days, not the paper's 270, so that a run with its
/// own fixture stays under a minute.  The toy scale is Sp2Config::small,
/// for the self-test.
inline constexpr int kPaperNodes = 144;
inline constexpr std::int64_t kPaperDays = 60;
inline constexpr std::int64_t kToyDays = 8;
inline constexpr int kToyNodes = 16;

/// Daily checkpoints of the paper_ckpt workload.
inline constexpr std::int64_t kCkptEveryIntervals = 96;
inline constexpr int kCkptKeep = 2;

/// Fixture file names inside a fixture directory.
inline constexpr const char* kStoreFile = "store.sig";
inline constexpr const char* kArchiveFile = "paper.p2a";
inline constexpr const char* kPaperFile = "paper.txt";
inline constexpr const char* kIntervalsFile = "records.intervals";
inline constexpr const char* kJobsFile = "records.jobs";

/// Worker threads of every campaign: one fewer than the CPUs this process
/// may use, between 1 and 4.  The lane pipeline waits at a barrier for its
/// slowest thread, so with one thread per CPU a single CPU the host lends
/// elsewhere stalls every horizon; the spare CPU lets the kernel move the
/// thread instead.
int bench_threads();
/// CPUs in this process's affinity mask (what `nproc` prints).
int nproc();

/// The campaign configuration every workload and the fixture share.  The
/// seed feeds both DriverConfig::seed and JobGenConfig::seed.
core::Sp2Config make_config(std::uint64_t seed, bool toy, int threads);

/// Wall seconds of each analysis step of one paper.
struct PaperTimes {
  double campaign_s = 0.0;
  double tables_s = 0.0;
  double figures_s = 0.0;
  double loss_s = 0.0;
  double begin = 0.0, campaign_end = 0.0, tables_end = 0.0,
         figures_end = 0.0, end = 0.0;  ///< steady-clock stamps
};

/// Runs the campaign, then Tables 2-4, Figures 1-5 and the measurement
/// loss report, and renders all of them as text.  Only the library calls
/// are inside the timed steps; the figure rendering is not.
std::string run_paper(core::Sp2Simulation& sim, PaperTimes* times);

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

/// Whole-file helpers; read_file returns false when the file is missing.
bool read_file(const std::string& path, std::string* out);
bool write_file(const std::string& path, const std::string& bytes);

/// Builds the fixture for `seed` into `dir` (mode `fixture`).
int build_fixture(std::uint64_t seed, bool toy, const std::string& dir);

/// Options of mode `run`.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string fixture_dir;
  std::string work_dir;
  std::string trace_out;
};

/// Runs one workload and prints its result; returns the exit code.
int run_workload(const RunOptions& opt);

}  // namespace p2sim::perfbench
