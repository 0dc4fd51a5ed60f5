// Queries columnar campaign archives without rehydrating them.
//
//   campaign_query info archive.p2a
//   campaign_query top-users --top 10 a.p2a b.p2a
//   campaign_query miss-ratio --nodes 64 archive.p2a
//   campaign_query paging --threshold 0.5 archive.p2a
//   campaign_query aggregate --column user.cycles archive.p2a
//   campaign_query merge --out all.p2a day1.p2a day2.p2a
//   campaign_query import-text --intervals c.intervals --jobs c.jobs
//                              --out c.p2a
//   campaign_query export-text --intervals c.intervals --jobs c.jobs c.p2a
//
// Every query command accepts one or more archives and scans them in
// order as one concatenated table; `--from-text BASE` adds BASE.intervals
// / BASE.jobs as an in-memory oracle source, so the same invocation can
// mix archives with v2 text records (results are bit-identical either
// way).  Rotted chunks are skipped-and-reported like the text loader's
// ParseReport; `--strict` turns any corruption into a hard failure.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "examples/campaign_cli.hpp"
#include "src/analysis/record_io.hpp"
#include "src/archive/convert.hpp"
#include "src/archive/query.hpp"
#include "src/archive/reader.hpp"
#include "src/archive/writer.hpp"

namespace {

namespace ar = p2sim::archive;

constexpr const char* kUsage =
    "usage: campaign_query <command> [options] ARCHIVE...\n"
    "\n"
    "commands:\n"
    "  info                      archive layout, rows and integrity\n"
    "  top-users [--top N]       users ranked by Mflops-weighted node-hours\n"
    "  miss-ratio [--nodes N]    cache-miss-ratio histogram for N-node jobs\n"
    "  paging [--threshold X] [--max N]\n"
    "                            jobs whose system-mode FXU share exceeds X\n"
    "  aggregate --column NAME   whole-column aggregate per archive\n"
    "  merge --out FILE          concatenate archives into FILE\n"
    "  import-text --intervals F --jobs F --out FILE\n"
    "                            convert v2 text records to an archive\n"
    "  export-text [--intervals F] [--jobs F] ARCHIVE\n"
    "                            convert an archive back to v2 text\n"
    "\n"
    "options:\n"
    "  --from-text BASE  add BASE.intervals/BASE.jobs as an oracle source\n"
    "  --strict          fail on any corruption instead of skip-and-report\n"
    "  --stats           print scan statistics (chunks pruned/skipped)\n";

/// One query source plus everything that keeps its spans alive.
struct Source {
  std::string label;
  std::unique_ptr<ar::ArchiveReader> reader;
  ar::ArchiveReport report;
  std::vector<p2sim::rs2hpm::IntervalRecord> intervals;
  p2sim::pbs::JobDatabase jobs;
  std::unique_ptr<ar::TableSource> interval_source;
  std::unique_ptr<ar::TableSource> job_source;
};

/// Prints a non-clean recovery report to stderr (never fatal here; strict
/// mode throws before this is reached).
void warn_report(const Source& s) {
  if (s.reader == nullptr || s.report.clean()) return;
  std::fprintf(stderr, "%s: %s\n", s.label.c_str(),
               ar::format_archive_report(s.report).c_str());
}

Source open_archive(const std::string& path, bool strict) {
  Source s;
  s.label = path;
  s.reader = std::make_unique<ar::ArchiveReader>(
      ar::ArchiveReader::open(path, strict ? nullptr : &s.report));
  s.interval_source = std::make_unique<ar::ArchiveTableSource>(
      *s.reader, ar::TableKind::kIntervals, strict ? nullptr : &s.report);
  s.job_source = std::make_unique<ar::ArchiveTableSource>(
      *s.reader, ar::TableKind::kJobs, strict ? nullptr : &s.report);
  return s;
}

Source open_text(const std::string& base, bool strict) {
  Source s;
  s.label = base + ".{intervals,jobs}";
  p2sim::analysis::ParseReport report;
  p2sim::analysis::ParseReport* rep = strict ? nullptr : &report;
  {
    std::ifstream in(base + ".intervals");
    if (!in) throw std::runtime_error("cannot open '" + base + ".intervals'");
    s.intervals = p2sim::analysis::load_intervals(in, rep);
  }
  {
    std::ifstream in(base + ".jobs");
    if (!in) throw std::runtime_error("cannot open '" + base + ".jobs'");
    s.jobs = p2sim::analysis::load_jobs(in, rep);
  }
  if (!report.clean()) {
    std::fprintf(stderr, "%s: %s\n", s.label.c_str(),
                 p2sim::analysis::format_parse_report(report).c_str());
  }
  s.interval_source = std::make_unique<ar::MemoryIntervalSource>(
      std::span<const p2sim::rs2hpm::IntervalRecord>(s.intervals));
  s.job_source = std::make_unique<ar::MemoryJobSource>(
      std::span<const p2sim::pbs::JobRecord>(s.jobs.all()));
  return s;
}

int cmd_info(const std::vector<Source>& sources) {
  for (const Source& s : sources) {
    std::printf("%s:\n", s.label.c_str());
    if (s.reader != nullptr) {
      std::printf("  file        %llu bytes, %s\n",
                  static_cast<unsigned long long>(s.reader->file_bytes()),
                  s.report.truncated ? "recovered (no committed footer)"
                                     : "committed");
      std::printf("  intervals   %llu rows in %zu chunks\n",
                  static_cast<unsigned long long>(
                      s.reader->rows(ar::TableKind::kIntervals)),
                  s.reader->chunks(ar::TableKind::kIntervals).size());
      std::printf("  jobs        %llu rows in %zu chunks\n",
                  static_cast<unsigned long long>(
                      s.reader->rows(ar::TableKind::kJobs)),
                  s.reader->chunks(ar::TableKind::kJobs).size());
      if (!s.report.clean()) {
        std::printf("  %s\n", ar::format_archive_report(s.report).c_str());
      }
    } else {
      std::printf("  text records: %zu intervals, %zu jobs\n",
                  s.intervals.size(), s.jobs.all().size());
    }
  }
  return 0;
}

std::vector<const ar::TableSource*> job_sources(
    const std::vector<Source>& sources) {
  std::vector<const ar::TableSource*> out;
  out.reserve(sources.size());
  for (const Source& s : sources) out.push_back(s.job_source.get());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  std::size_t top_n = 10;
  int nodes = 64;
  double threshold = 0.5;
  std::size_t max_rows = 20;
  std::string column;
  std::string out_path;
  std::string intervals_path;
  std::string jobs_path;
  bool strict = false;
  bool stats = false;
  std::vector<std::string> archives;
  std::vector<std::string> text_bases;

  p2sim::cli::Args args(argc - 1, argv + 1, kUsage);
  p2sim::cli::parse_args(
      args,
      {{"--top", [&] { args.number(top_n); }},
       {"--nodes", [&] { args.number(nodes); }},
       {"--threshold", [&] { args.number(threshold); }},
       {"--max", [&] { args.number(max_rows); }},
       {"--column", [&] { column = args.value(); }},
       {"--out", [&] { out_path = args.value(); }},
       {"--intervals", [&] { intervals_path = args.value(); }},
       {"--jobs", [&] { jobs_path = args.value(); }},
       {"--from-text", [&] { text_bases.emplace_back(args.value()); }},
       {"--strict", [&] { strict = true; }},
       {"--stats", [&] { stats = true; }}},
      [&](std::string_view arg) {
        if (arg.starts_with('-')) {
          args.fail("unknown option '" + std::string(arg) + "'");
        }
        archives.emplace_back(arg);
      });

  try {
    if (command == "import-text") {
      if (out_path.empty() || (intervals_path.empty() && jobs_path.empty())) {
        std::fprintf(stderr,
                     "import-text needs --out and --intervals/--jobs\n");
        return 2;
      }
      std::string error;
      p2sim::analysis::ParseReport ri;
      p2sim::analysis::ParseReport rj;
      if (!ar::text_to_archive(intervals_path, jobs_path, out_path, &error,
                               strict ? nullptr : &ri,
                               strict ? nullptr : &rj)) {
        std::fprintf(stderr, "import-text: %s\n", error.c_str());
        return 1;
      }
      if (!ri.clean() || !rj.clean()) {
        std::fprintf(stderr, "intervals: %s\njobs: %s\n",
                     p2sim::analysis::format_parse_report(ri).c_str(),
                     p2sim::analysis::format_parse_report(rj).c_str());
      }
      return 0;
    }
    if (command == "export-text") {
      if (archives.size() != 1) {
        std::fprintf(stderr, "export-text takes exactly one archive\n");
        return 2;
      }
      std::string error;
      ar::ArchiveReport report;
      if (!ar::archive_to_text(archives[0], intervals_path, jobs_path, &error,
                               strict ? nullptr : &report)) {
        std::fprintf(stderr, "export-text: %s\n", error.c_str());
        return 1;
      }
      if (!report.clean()) {
        std::fprintf(stderr, "%s: %s\n", archives[0].c_str(),
                     ar::format_archive_report(report).c_str());
      }
      return 0;
    }
    if (command == "merge") {
      if (out_path.empty() || archives.empty()) {
        std::fprintf(stderr, "merge needs --out and at least one archive\n");
        return 2;
      }
      // Concatenation in command-line order: the merged archive scans
      // identically to scanning the inputs in sequence.
      ar::ArchiveWriter w;
      for (const std::string& path : archives) {
        ar::ArchiveReport report;
        const ar::ArchiveReader r =
            ar::ArchiveReader::open(path, strict ? nullptr : &report);
        ar::ArchiveReport* rep = strict ? nullptr : &report;
        for (const p2sim::rs2hpm::IntervalRecord& rec :
             ar::to_intervals(r, rep)) {
          w.append_interval(rec);
        }
        const p2sim::pbs::JobDatabase db = ar::to_jobs(r, rep);
        for (const p2sim::pbs::JobRecord& rec : db.all()) w.append_job(rec);
        if (!report.clean()) {
          std::fprintf(stderr, "%s: %s\n", path.c_str(),
                       ar::format_archive_report(report).c_str());
        }
      }
      std::string error;
      if (!w.finalize(out_path, &error)) {
        std::fprintf(stderr, "merge: %s\n", error.c_str());
        return 1;
      }
      std::printf("merged %zu archives into %s (%llu intervals, %llu jobs)\n",
                  archives.size(), out_path.c_str(),
                  static_cast<unsigned long long>(
                      w.rows(ar::TableKind::kIntervals)),
                  static_cast<unsigned long long>(
                      w.rows(ar::TableKind::kJobs)));
      return 0;
    }

    // Query commands: open every source up front.
    if (archives.empty() && text_bases.empty()) {
      std::fprintf(stderr, "no archive named\n%s", kUsage);
      return 2;
    }
    std::vector<Source> sources;
    for (const std::string& path : archives) {
      sources.push_back(open_archive(path, strict));
    }
    for (const std::string& base : text_bases) {
      sources.push_back(open_text(base, strict));
    }

    if (command == "info") return cmd_info(sources);

    const std::vector<const ar::TableSource*> jobs = job_sources(sources);
    ar::ScanStats scan;
    if (command == "top-users") {
      const ar::TopUsersResult r = ar::top_users(jobs, top_n);
      std::fputs(ar::render_top_users(r).c_str(), stdout);
      scan = r.scan;
    } else if (command == "miss-ratio") {
      const ar::MissRatioResult r = ar::miss_ratio_distribution(jobs, nodes);
      std::fputs(ar::render_miss_ratio(r).c_str(), stdout);
      scan = r.scan;
    } else if (command == "paging") {
      const ar::PagingResult r =
          ar::paging_suspects(jobs, threshold, max_rows);
      std::fputs(ar::render_paging(r).c_str(), stdout);
      scan = r.scan;
    } else if (command == "aggregate") {
      if (column.empty()) {
        std::fprintf(stderr, "aggregate needs --column NAME\n");
        return 2;
      }
      for (const Source& s : sources) {
        // The column picks its table: interval schema first, then jobs.
        std::uint32_t idx = 0;
        const ar::TableSource* src =
            ar::column_by_name(ar::TableKind::kIntervals, column, &idx)
                ? s.interval_source.get()
                : s.job_source.get();
        ar::ColumnAggregate agg;
        if (!ar::aggregate_column(*src, column, &agg)) {
          std::fprintf(stderr, "no column named '%s'\n", column.c_str());
          return 2;
        }
        if (sources.size() > 1) std::printf("%s:\n", s.label.c_str());
        std::fputs(ar::render_aggregate(agg).c_str(), stdout);
        scan.merge(agg.scan);
      }
    } else {
      std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
                   kUsage);
      return 2;
    }
    for (const Source& s : sources) warn_report(s);
    if (stats) std::fputs(ar::render_scan_stats(scan).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_query: %s\n", e.what());
    return 1;
  }
  return 0;
}
