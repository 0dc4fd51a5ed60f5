// p2bench: the paper-scale benchmark binary (modes in bench.hpp; run.py
// builds it, makes the fixture and runs a workload).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: p2bench fixture --seed N --out DIR [--toy]\n"
               "       p2bench run --workload W --seed N --seconds S "
               "--trace 0|1 --fixture DIR --work DIR [--trace-out FILE] "
               "[--toy]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  p2sim::perfbench::RunOptions opt;
  std::string out_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--toy") {
      opt.toy = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--fixture") {
      opt.fixture_dir = argv[++i];
    } else if (arg == "--work") {
      opt.work_dir = argv[++i];
    } else if (arg == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (arg == "--out") {
      out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (mode == "fixture" && !out_dir.empty()) {
      return p2sim::perfbench::build_fixture(opt.seed, opt.toy, out_dir);
    }
    if (mode == "run" && !opt.fixture_dir.empty() && !opt.work_dir.empty()) {
      return p2sim::perfbench::run_workload(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2bench: %s\n", e.what());
    return 2;
  }
  return usage();
}
