// The command line every campaign binary (run_experiment, p2sim_monitord)
// shares: the campaign flags and their defaults, parsed in one place.
// Each binary adds only its own flags to parse_campaign; the other tools
// parse theirs the same way (parse_args).  Numbers parse whole
// (util::parse_number); a malformed or missing value, or a combination
// that would silently do nothing (a checkpoint cadence <= 0, --resume
// without a checkpoint directory), prints the usage and exits 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/util/numfmt.hpp"

namespace p2sim::cli {

/// Help text for the shared flags; binaries append it to their usage.
extern const char* const kCampaignFlags;

/// A cursor over argv that turns every bad value into a usage error.
class Args {
 public:
  Args(int argc, char** argv, std::string usage)
      : argc_(argc), argv_(argv), usage_(std::move(usage)) {}

  /// Steps to the next argument; false once argv is exhausted.
  bool next() { return ++i_ < argc_; }
  std::string_view flag() const { return argv_[i_]; }
  /// Consumes and returns the current flag's value.
  const char* value() {
    if (i_ + 1 >= argc_) fail("missing value for " + std::string(flag()));
    return argv_[++i_];
  }
  /// Consumes the current flag's value into `out`, parsed whole.
  template <typename T>
  void number(T& out) {
    const std::string name(flag());
    const char* text = value();
    const auto v = util::parse_number<T>(text);
    if (!v) fail("bad value for " + name + ": '" + text + "'");
    out = *v;
  }
  void print_usage(std::FILE* out) const { std::fputs(usage_.c_str(), out); }
  /// Prints `why` and the usage to stderr, then exits 2.
  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s\n", why.c_str());
    print_usage(stderr);
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  std::string usage_;
  int i_ = 0;
};

struct CampaignOptions {
  std::int64_t days = 30;
  int nodes = 32;
  std::optional<std::uint64_t> seed;  // the driver's default when unset
  int threads = 1;
  bool faults = false;  // FaultConfig::reference() when set
  std::string signature_store;
  std::string checkpoint_dir;
  std::int64_t checkpoint_every = 96;
  bool resume = false;
  std::string archive;
  std::string records;  // BASE of BASE.intervals and BASE.jobs

  /// The campaign these flags describe (Sp2Config::small(days, nodes)).
  core::Sp2Config config() const;
  /// Writes the records; on failure removes both files, returns false.
  bool save_records(const workload::CampaignResult& campaign) const;
  /// Removes both record files: an aborted run must leave none behind,
  /// so that it never looks finished.
  void remove_records() const;
};

/// A flag and its action, which takes any value through the Args.
using Flag = std::pair<std::string_view, std::function<void()>>;
/// Receives each argument that is not a flag.
using Positional = std::function<void(std::string_view)>;

/// Parses every argument: each of `flags` by name, `--help` to stdout,
/// anything else to `positional` (a usage error when there is none).
void parse_args(Args& args, const std::vector<Flag>& flags,
                const Positional& positional = {});

/// parse_args over the shared campaign flags and the binary's `own`.
CampaignOptions parse_campaign(Args& args, std::vector<Flag> own,
                               const Positional& positional = {});

}  // namespace p2sim::cli
