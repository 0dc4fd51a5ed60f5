// Columnar archive format: writer/reader round trips, per-chunk layout,
// encoding selection, statistics, and the committed footer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/archive/format.hpp"
#include "src/archive/reader.hpp"
#include "src/archive/writer.hpp"

namespace p2sim::archive {
namespace {

rs2hpm::IntervalRecord make_interval(int i) {
  rs2hpm::IntervalRecord rec;
  rec.interval = i;
  rec.nodes_sampled = 16;
  rec.nodes_expected = 16;
  rec.nodes_reprimed = i % 3;
  rec.busy_nodes = i % 17;
  rec.quad_surplus = 1000 + static_cast<std::uint64_t>(i);
  for (std::size_t c = 0; c < hpm::kNumCounters; ++c) {
    rec.delta.user[c] = static_cast<std::uint64_t>(i) * 100 + c;
    rec.delta.system[c] = static_cast<std::uint64_t>(i) * 7 + c;
  }
  return rec;
}

pbs::JobRecord make_job(int i) {
  pbs::JobRecord rec;
  rec.spec.job_id = 100 + i;
  rec.spec.user_id = 7 + i % 5;
  rec.spec.nodes_requested = 1 << (i % 5);
  rec.spec.submit_time_s = 900.0 * i;
  rec.start_time_s = 900.0 * i + 60.0;
  rec.end_time_s = 900.0 * i + 60.0 + 1234.5 * (1 + i % 3);
  rec.report.job_id = rec.spec.job_id;
  rec.report.nodes = rec.spec.nodes_requested;
  rec.report.elapsed_s = rec.end_time_s - rec.start_time_s;
  rec.report.complete = i % 4 != 3;
  rec.report.quad_surplus = static_cast<std::uint64_t>(i) * 11;
  for (std::size_t c = 0; c < hpm::kNumCounters; ++c) {
    rec.report.delta.user[c] = static_cast<std::uint64_t>(i + 1) * 1000 + c;
    rec.report.delta.system[c] = static_cast<std::uint64_t>(i + 1) * 13 + c;
  }
  return rec;
}

std::string build(int intervals, int jobs, std::size_t rows_per_chunk) {
  ArchiveWriter w(rows_per_chunk);
  for (int i = 0; i < intervals; ++i) w.append_interval(make_interval(i));
  for (int i = 0; i < jobs; ++i) w.append_job(make_job(i));
  return w.finish();
}

TEST(ArchiveFormat, RoundTripsEveryColumnOfBothTables) {
  const std::string image = build(10, 6, /*rows_per_chunk=*/4);
  const ArchiveReader r = ArchiveReader::from_bytes(image);
  EXPECT_EQ(r.rows(TableKind::kIntervals), 10u);
  EXPECT_EQ(r.rows(TableKind::kJobs), 6u);
  // 10 rows at 4/chunk = 3 chunks; 6 rows = 2 chunks.
  EXPECT_EQ(r.chunks(TableKind::kIntervals).size(), 3u);
  EXPECT_EQ(r.chunks(TableKind::kJobs).size(), 2u);

  // Every decoded value must equal the writer's own row extraction.
  std::vector<std::uint64_t> expected(column_count(TableKind::kIntervals));
  std::vector<std::uint64_t> col;
  int row = 0;
  for (const ChunkView& chunk : r.chunks(TableKind::kIntervals)) {
    for (std::uint32_t c = 0; c < column_count(TableKind::kIntervals); ++c) {
      r.decode_column(chunk, c, &col);
      ASSERT_EQ(col.size(), chunk.rows);
      for (std::uint32_t i = 0; i < chunk.rows; ++i) {
        interval_row(make_interval(row + static_cast<int>(i)),
                     expected.data());
        EXPECT_EQ(col[i], expected[c]) << "col=" << c << " row=" << row + i;
      }
    }
    row += static_cast<int>(chunk.rows);
  }
}

TEST(ArchiveFormat, ChunkStatsBoundEveryColumn) {
  const std::string image = build(9, 0, /*rows_per_chunk=*/3);
  const ArchiveReader r = ArchiveReader::from_bytes(image);
  std::vector<std::uint64_t> col;
  for (const ChunkView& chunk : r.chunks(TableKind::kIntervals)) {
    ASSERT_EQ(chunk.stats.size(), column_count(TableKind::kIntervals));
    for (std::uint32_t c = 0; c < chunk.stats.size(); ++c) {
      const ColumnKind kind = columns(TableKind::kIntervals)[c].kind;
      r.decode_column(chunk, c, &col);
      for (std::uint64_t v : col) {
        EXPECT_FALSE(raw_less(v, chunk.stats[c].min_raw, kind));
        EXPECT_FALSE(raw_less(chunk.stats[c].max_raw, v, kind));
      }
    }
  }
}

TEST(ArchiveFormat, ConstantColumnsEncodeToConst) {
  // nodes_sampled and nodes_expected are 16 in every row: their payloads
  // must be tiny (one varint), which is what buys the size gate.
  const std::string image = build(100, 0, kDefaultRowsPerChunk);
  const ArchiveReader r = ArchiveReader::from_bytes(image);
  const ChunkView& chunk = r.chunks(TableKind::kIntervals)[0];
  EXPECT_EQ(chunk.cols[icol::kSampled].encoding, Encoding::kConst);
  EXPECT_EQ(chunk.cols[icol::kExpected].encoding, Encoding::kConst);
  // The strictly-increasing interval ordinal delta-compresses.
  EXPECT_EQ(chunk.cols[icol::kInterval].encoding, Encoding::kDeltaVarint);
}

TEST(ArchiveFormat, EmptyArchiveRoundTrips) {
  ArchiveWriter w;
  const std::string image = w.finish();
  const ArchiveReader r = ArchiveReader::from_bytes(image);
  EXPECT_EQ(r.rows(TableKind::kIntervals), 0u);
  EXPECT_EQ(r.rows(TableKind::kJobs), 0u);
  EXPECT_TRUE(r.chunks(TableKind::kIntervals).empty());
  EXPECT_TRUE(r.chunks(TableKind::kJobs).empty());
}

TEST(ArchiveFormat, FinalizeWritesDurablyAndOpenReads) {
  const std::string path = testing::TempDir() + "p2sim_archive_rt.p2a";
  std::remove(path.c_str());
  ArchiveWriter w(4);
  for (int i = 0; i < 5; ++i) w.append_interval(make_interval(i));
  std::string error;
  ASSERT_TRUE(w.finalize(path, &error)) << error;
  const ArchiveReader r = ArchiveReader::open(path);
  EXPECT_EQ(r.rows(TableKind::kIntervals), 5u);
  std::remove(path.c_str());
}

TEST(ArchiveFormat, WriterRowsTracksAppends) {
  ArchiveWriter w(4);
  EXPECT_EQ(w.rows(TableKind::kIntervals), 0u);
  for (int i = 0; i < 7; ++i) w.append_interval(make_interval(i));
  w.append_job(make_job(0));
  EXPECT_EQ(w.rows(TableKind::kIntervals), 7u);
  EXPECT_EQ(w.rows(TableKind::kJobs), 1u);
}

TEST(ArchiveFormat, ColumnByNameResolvesSchema) {
  std::uint32_t idx = 0;
  ASSERT_TRUE(column_by_name(TableKind::kIntervals, "interval", &idx));
  EXPECT_EQ(idx, icol::kInterval);
  ASSERT_TRUE(column_by_name(TableKind::kJobs, "user_id", &idx));
  EXPECT_EQ(idx, jcol::kUserId);
  EXPECT_FALSE(column_by_name(TableKind::kJobs, "no_such_column", &idx));
  // Every schema name must resolve back to its own index.
  for (TableKind kind : {TableKind::kIntervals, TableKind::kJobs}) {
    const auto& cols = columns(kind);
    for (std::uint32_t c = 0; c < cols.size(); ++c) {
      ASSERT_TRUE(column_by_name(kind, cols[c].name, &idx)) << cols[c].name;
      EXPECT_EQ(idx, c) << cols[c].name;
    }
  }
}

TEST(ArchiveFormat, IdenticalInputsProduceIdenticalBytes) {
  // The thread-count/resume bit-identity guarantee reduces to this:
  // archive bytes are a pure function of the appended record sequence.
  EXPECT_EQ(build(10, 6, 4), build(10, 6, 4));
  EXPECT_NE(build(10, 6, 4), build(10, 6, 5));  // chunking is part of it
}

TEST(ArchiveFormat, VarintRoundTripsExtremes) {
  std::vector<std::uint64_t> values{0, 1, 127, 128, std::uint64_t{1} << 35,
                                    ~std::uint64_t{0}, ~std::uint64_t{0} - 1};
  // Both sides of every length boundary, 1 to 10 bytes.
  for (int bits = 7; bits < 64; bits += 7) {
    values.push_back((std::uint64_t{1} << bits) - 1);
    values.push_back(std::uint64_t{1} << bits);
  }
  for (std::uint64_t v : values) {
    std::string buf;
    put_varint(&buf, v);
    const std::size_t len = buf.size();
    // Exactly the varint, then followed by a whole word of bytes that
    // would extend or end it if misread (the word-at-a-time path).
    for (const std::string& tail :
         {std::string(), std::string(8, '\xff'), std::string(8, '\0')}) {
      const std::string padded = buf + tail;
      const char* p = padded.data();
      std::uint64_t out = 0;
      ASSERT_TRUE(get_varint(&p, padded.data() + padded.size(), &out));
      EXPECT_EQ(out, v);
      EXPECT_EQ(p, padded.data() + len);
    }
    EXPECT_EQ(unzigzag64(zigzag64(v)), v);
  }
}

}  // namespace
}  // namespace p2sim::archive
