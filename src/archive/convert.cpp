#include "src/archive/convert.hpp"

#include <bit>
#include <fstream>
#include <sstream>

#include "src/archive/writer.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::archive {
namespace {

double as_f64(std::uint64_t raw) { return std::bit_cast<double>(raw); }
std::int64_t as_i64(std::uint64_t raw) {
  return std::bit_cast<std::int64_t>(raw);
}

/// Decodes every column of `chunk` into `cols`; on a rotted payload,
/// skips-and-reports (or throws when strict) and returns false.
bool decode_all(const ArchiveReader& reader, const ChunkView& chunk,
                std::int64_t ordinal, ArchiveReport* report,
                std::vector<std::vector<std::uint64_t>>* cols) {
  for (std::uint32_t c = 0; c < chunk.cols.size(); ++c) {
    try {
      reader.decode_column(chunk, c, &(*cols)[c]);
    } catch (const ArchiveError& e) {
      note_archive_skip(report, ordinal, chunk.rows, e.what());
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<rs2hpm::IntervalRecord> to_intervals(const ArchiveReader& reader,
                                                 ArchiveReport* report) {
  std::vector<rs2hpm::IntervalRecord> out;
  out.reserve(reader.rows(TableKind::kIntervals));
  std::vector<std::vector<std::uint64_t>> cols(
      column_count(TableKind::kIntervals));
  std::int64_t ordinal = 0;
  for (const ChunkView& chunk : reader.chunks(TableKind::kIntervals)) {
    if (!decode_all(reader, chunk, ordinal++, report, &cols)) continue;
    for (std::uint32_t i = 0; i < chunk.rows; ++i) {
      rs2hpm::IntervalRecord rec;
      rec.interval = as_i64(cols[icol::kInterval][i]);
      rec.nodes_sampled = static_cast<int>(as_i64(cols[icol::kSampled][i]));
      rec.nodes_expected =
          static_cast<int>(as_i64(cols[icol::kExpected][i]));
      rec.nodes_reprimed =
          static_cast<int>(as_i64(cols[icol::kReprimed][i]));
      rec.busy_nodes = static_cast<int>(as_i64(cols[icol::kBusy][i]));
      rec.quad_surplus = cols[icol::kQuad][i];
      for (std::size_t j = 0; j < hpm::kNumCounters; ++j) {
        rec.delta.user[j] = cols[icol::kUser0 + j][i];
        rec.delta.system[j] = cols[icol::kSystem0 + j][i];
      }
      out.push_back(rec);
    }
  }
  return out;
}

pbs::JobDatabase to_jobs(const ArchiveReader& reader,
                         ArchiveReport* report) {
  pbs::JobDatabase db;
  db.reserve(reader.rows(TableKind::kJobs));
  std::vector<std::vector<std::uint64_t>> cols(
      column_count(TableKind::kJobs));
  std::int64_t ordinal = 0;
  for (const ChunkView& chunk : reader.chunks(TableKind::kJobs)) {
    if (!decode_all(reader, chunk, ordinal++, report, &cols)) continue;
    for (std::uint32_t i = 0; i < chunk.rows; ++i) {
      pbs::JobRecord rec;
      rec.spec.job_id = as_i64(cols[jcol::kJobId][i]);
      rec.spec.user_id =
          static_cast<std::int32_t>(as_i64(cols[jcol::kUserId][i]));
      rec.spec.nodes_requested =
          static_cast<int>(as_i64(cols[jcol::kNodes][i]));
      rec.spec.submit_time_s = as_f64(cols[jcol::kSubmit][i]);
      rec.start_time_s = as_f64(cols[jcol::kStart][i]);
      rec.end_time_s = as_f64(cols[jcol::kEnd][i]);
      rec.report.job_id = rec.spec.job_id;
      rec.report.nodes = rec.spec.nodes_requested;
      rec.report.elapsed_s = rec.end_time_s - rec.start_time_s;
      rec.report.complete = cols[jcol::kComplete][i] != 0;
      rec.report.quad_surplus = cols[jcol::kQuad][i];
      for (std::size_t j = 0; j < hpm::kNumCounters; ++j) {
        rec.report.delta.user[j] = cols[jcol::kUser0 + j][i];
        rec.report.delta.system[j] = cols[jcol::kSystem0 + j][i];
      }
      db.add(std::move(rec));
    }
  }
  return db;
}

std::string archive_from_records(
    std::span<const rs2hpm::IntervalRecord> intervals,
    std::span<const pbs::JobRecord> jobs, std::size_t rows_per_chunk) {
  ArchiveWriter w(rows_per_chunk);
  for (const rs2hpm::IntervalRecord& r : intervals) w.append_interval(r);
  for (const pbs::JobRecord& r : jobs) w.append_job(r);
  return w.finish();
}

bool text_to_archive(const std::string& intervals_path,
                     const std::string& jobs_path,
                     const std::string& archive_path, std::string* error,
                     analysis::ParseReport* intervals_report,
                     analysis::ParseReport* jobs_report) {
  ArchiveWriter w;
  try {
    if (!intervals_path.empty()) {
      std::ifstream in(intervals_path);
      if (!in) {
        *error = "cannot open '" + intervals_path + "'";
        return false;
      }
      for (const rs2hpm::IntervalRecord& r :
           analysis::load_intervals(in, intervals_report)) {
        w.append_interval(r);
      }
    }
    if (!jobs_path.empty()) {
      std::ifstream in(jobs_path);
      if (!in) {
        *error = "cannot open '" + jobs_path + "'";
        return false;
      }
      const pbs::JobDatabase db = analysis::load_jobs(in, jobs_report);
      for (const pbs::JobRecord& r : db.all()) w.append_job(r);
    }
  } catch (const std::runtime_error& e) {
    *error = e.what();
    return false;
  }
  return w.finalize(archive_path, error);
}

bool archive_to_text(const std::string& archive_path,
                     const std::string& intervals_path,
                     const std::string& jobs_path, std::string* error,
                     ArchiveReport* report) {
  try {
    const ArchiveReader reader = ArchiveReader::open(archive_path, report);
    if (!intervals_path.empty()) {
      std::ostringstream text;
      analysis::save_intervals(text, to_intervals(reader, report));
      if (!util::write_file_durable(intervals_path, text.str(), error)) {
        return false;
      }
    }
    if (!jobs_path.empty()) {
      std::ostringstream text;
      analysis::save_jobs(text, to_jobs(reader, report));
      if (!util::write_file_durable(jobs_path, text.str(), error)) {
        return false;
      }
    }
  } catch (const ArchiveError& e) {
    *error = e.what();
    return false;
  }
  return true;
}

}  // namespace p2sim::archive
