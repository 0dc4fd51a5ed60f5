// Vectorized query layer: byte-identical results vs the in-memory oracle
// (clean and faulted campaigns), predicate pushdown that provably prunes,
// multi-source aggregation, and the driver-level archive determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/archive/convert.hpp"
#include "src/archive/query.hpp"
#include "src/archive/reader.hpp"
#include "src/core/simulation.hpp"
#include "src/fault/fault.hpp"

namespace p2sim::archive {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// One campaign plus its archive image and per-table sources.
struct Fixture {
  std::vector<rs2hpm::IntervalRecord> intervals;
  pbs::JobDatabase jobs;
  std::string image;
  explicit Fixture(bool faulted) {
    core::Sp2Config cfg = core::Sp2Config::small(30, 32);
    if (faulted) cfg.faults() = fault::FaultConfig::reference();
    core::Sp2Simulation sim(cfg);
    intervals = sim.campaign().intervals;
    jobs = sim.campaign().jobs;
    image = archive_from_records(intervals, jobs.all(),
                                 /*rows_per_chunk=*/64);
  }
};

const Fixture& clean() {
  static const Fixture* f = new Fixture(false);
  return *f;
}
const Fixture& faulted() {
  static const Fixture* f = new Fixture(true);
  return *f;
}

void expect_queries_match(const Fixture& fx, const char* label) {
  const ArchiveReader reader = ArchiveReader::from_bytes(fx.image);
  const ArchiveTableSource archive_jobs(reader, TableKind::kJobs);
  const MemoryJobSource oracle_jobs(fx.jobs.all());
  const std::vector<const TableSource*> a{&archive_jobs};
  const std::vector<const TableSource*> o{&oracle_jobs};

  EXPECT_EQ(render_top_users(top_users(a, 10)),
            render_top_users(top_users(o, 10)))
      << label;
  for (int nodes : {16, 64}) {
    EXPECT_EQ(render_miss_ratio(miss_ratio_distribution(a, nodes)),
              render_miss_ratio(miss_ratio_distribution(o, nodes)))
        << label << " nodes=" << nodes;
  }
  EXPECT_EQ(render_paging(paging_suspects(a)),
            render_paging(paging_suspects(o)))
      << label;

  const ArchiveTableSource archive_ivals(reader, TableKind::kIntervals);
  const MemoryIntervalSource oracle_ivals(fx.intervals);
  ColumnAggregate agg_a, agg_o;
  ASSERT_TRUE(aggregate_column(archive_ivals, "user.cycles", &agg_a));
  ASSERT_TRUE(aggregate_column(oracle_ivals, "user.cycles", &agg_o));
  EXPECT_EQ(render_aggregate(agg_a), render_aggregate(agg_o)) << label;
}

TEST(ArchiveQuery, CleanCampaignMatchesOracleByteForByte) {
  expect_queries_match(clean(), "clean");
}

TEST(ArchiveQuery, FaultedCampaignMatchesOracleByteForByte) {
  // The faulted campaign exercises incomplete jobs, repriming and
  // sampling gaps — the query kernels must filter them identically on
  // both paths.
  expect_queries_match(faulted(), "faulted");
}

pbs::JobRecord sized_job(int i, int nodes) {
  pbs::JobRecord rec;
  rec.spec.job_id = 1000 + i;
  rec.spec.user_id = i % 4;
  rec.spec.nodes_requested = nodes;
  rec.spec.submit_time_s = 1000.0 * i;
  rec.start_time_s = 1000.0 * i + 10.0;
  rec.end_time_s = 1000.0 * i + 10.0 + 700.0 + i;
  rec.report.job_id = rec.spec.job_id;
  rec.report.nodes = nodes;
  rec.report.elapsed_s = rec.end_time_s - rec.start_time_s;
  rec.report.complete = true;
  for (std::size_t c = 0; c < hpm::kNumCounters; ++c) {
    rec.report.delta.user[c] = static_cast<std::uint64_t>(i + 1) * 911 + c;
    rec.report.delta.system[c] = static_cast<std::uint64_t>(i + 1) * 7 + c;
  }
  return rec;
}

TEST(ArchiveQuery, PushdownPrunesChunksWithoutChangingResults) {
  // Node-segregated job stream: chunk 0 holds only 1-node jobs, chunk 1
  // only 64-node jobs.  miss_ratio_distribution pushes `nodes == N` onto
  // the chunk min/max, so exactly one chunk is provably skippable per
  // query — and pruning must not change a single output byte.
  std::vector<pbs::JobRecord> recs;
  for (int i = 0; i < 8; ++i) recs.push_back(sized_job(i, 1));
  for (int i = 8; i < 16; ++i) recs.push_back(sized_job(i, 64));
  const std::string image = archive_from_records(
      {}, recs, /*rows_per_chunk=*/8);
  const ArchiveReader reader = ArchiveReader::from_bytes(image);
  ASSERT_EQ(reader.chunks(TableKind::kJobs).size(), 2u);
  const ArchiveTableSource jobs(reader, TableKind::kJobs);
  const std::vector<const TableSource*> sources{&jobs};
  const MemoryJobSource oracle(recs);
  const std::vector<const TableSource*> oracle_sources{&oracle};

  for (int nodes : {1, 64}) {
    const MissRatioResult from_archive =
        miss_ratio_distribution(sources, nodes);
    const MissRatioResult from_oracle =
        miss_ratio_distribution(oracle_sources, nodes);
    EXPECT_EQ(render_miss_ratio(from_archive),
              render_miss_ratio(from_oracle))
        << "nodes=" << nodes;
    EXPECT_EQ(from_archive.scan.chunks_pruned, 1) << "nodes=" << nodes;
    EXPECT_EQ(from_archive.scan.chunks_scanned, 1) << "nodes=" << nodes;
    EXPECT_EQ(from_archive.scan.rows_pruned, 8) << "nodes=" << nodes;
  }
  // A node count no chunk holds: everything prunes, nothing decodes.
  const MissRatioResult none = miss_ratio_distribution(sources, 16);
  EXPECT_EQ(none.scan.chunks_pruned, 2);
  EXPECT_EQ(none.scan.chunks_scanned, 0);
  EXPECT_EQ(none.jobs, 0);
}

TEST(ArchiveQuery, MultiSourceAggregationConcatenates) {
  // top_users over [clean, faulted] must equal the oracle over the
  // concatenated job streams — the multi-archive merge contract.
  const ArchiveReader r1 = ArchiveReader::from_bytes(clean().image);
  const ArchiveReader r2 = ArchiveReader::from_bytes(faulted().image);
  const ArchiveTableSource j1(r1, TableKind::kJobs);
  const ArchiveTableSource j2(r2, TableKind::kJobs);
  const std::vector<const TableSource*> both{&j1, &j2};

  pbs::JobDatabase merged;
  for (const pbs::JobRecord& rec : clean().jobs.all()) merged.add(rec);
  for (const pbs::JobRecord& rec : faulted().jobs.all()) merged.add(rec);
  const MemoryJobSource oracle(merged.all());
  const std::vector<const TableSource*> one{&oracle};

  EXPECT_EQ(render_top_users(top_users(both, 10)),
            render_top_users(top_users(one, 10)));
  EXPECT_EQ(render_paging(paging_suspects(both)),
            render_paging(paging_suspects(one)));
}

TEST(ArchiveQuery, RottedChunkIsSkippedAndReportedInRecoveringScan) {
  // Flip a byte inside the file body (past the header, before the
  // footer): the recovering query path must keep going, count the rot,
  // and the strict path must throw.
  const Fixture& fx = clean();
  const ArchiveReader pristine = ArchiveReader::from_bytes(fx.image);
  // Rot a column top_users actually decodes (start time): lazy payload
  // verification only checks the bytes a scan reads.
  const std::uint64_t payload_at = pristine.chunks(TableKind::kJobs)[0]
                                       .cols[jcol::kStart]
                                       .payload_offset;
  std::string bytes = fx.image;
  bytes[payload_at] = static_cast<char>(bytes[payload_at] ^ 0x01);

  ArchiveReport report;
  const ArchiveReader rotted = ArchiveReader::from_bytes(bytes, &report);
  EXPECT_TRUE(report.committed);  // footer survived; the rot is in-body
  const ArchiveTableSource jobs(rotted, TableKind::kJobs, &report);
  const std::vector<const TableSource*> sources{&jobs};
  const TopUsersResult r = top_users(sources, 10);
  EXPECT_GT(r.scan.chunks_skipped, 0);
  EXPECT_GT(report.chunks_skipped, 0);
  EXPECT_FALSE(format_archive_report(report).empty());

  // Strict scan over the same bytes: first defect throws.
  const ArchiveReader strict = ArchiveReader::from_bytes(bytes);
  const ArchiveTableSource strict_jobs(strict, TableKind::kJobs);
  const std::vector<const TableSource*> strict_sources{&strict_jobs};
  EXPECT_THROW(top_users(strict_sources, 10), ArchiveError);
}

TEST(ArchiveQuery, DriverArchiveBytesAreThreadInvariant) {
  // The end-to-end determinism claim: the same campaign run at different
  // thread counts with the archive writer enabled produces the same file
  // bytes.  (The paper-scale sweep is perf_gate's
  // campaign.archive_identical row; this is the tier-1 guard.)
  std::string bytes_by_threads[2];
  const std::string path = testing::TempDir() + "p2sim_query_drv.p2a";
  for (int i = 0; i < 2; ++i) {
    std::remove(path.c_str());
    core::Sp2Config cfg = core::Sp2Config::small(10, 16);
    cfg.threads() = i == 0 ? 1 : 4;
    cfg.archive() = path;
    core::Sp2Simulation sim(cfg);
    sim.campaign();
    bytes_by_threads[i] = slurp(path);
  }
  std::remove(path.c_str());
  ASSERT_FALSE(bytes_by_threads[0].empty());
  EXPECT_EQ(bytes_by_threads[0], bytes_by_threads[1]);
}

TEST(ArchiveQuery, AggregateColumnRejectsUnknownColumn) {
  const ArchiveReader reader = ArchiveReader::from_bytes(clean().image);
  const ArchiveTableSource src(reader, TableKind::kIntervals);
  ColumnAggregate agg;
  EXPECT_FALSE(aggregate_column(src, "no_such_column", &agg));
}

}  // namespace
}  // namespace p2sim::archive
