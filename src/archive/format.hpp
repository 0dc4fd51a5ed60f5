// Columnar campaign archive: on-disk format constants and encodings.
//
// One `.p2ar` file holds both campaign tables (interval records and job
// records) as a sequence of immutable row-group *chunks* followed by a
// committed footer:
//
//   [8]  file magic "P2SIMAR1"
//   ...  chunks, back to back (either table kind, in append order)
//   ...  footer payload (a util::CkptWriter stream: version, counter
//        count, and per table the row total plus a chunk directory with
//        per-column min/max statistics)
//   [8]  FNV-1a-64 of the footer payload, little-endian
//   [4]  footer payload length, little-endian
//   [8]  footer magic "P2SIMARF"
//
// A chunk is column-major (SoA): a fixed header, a per-column directory
// (encoding byte, encoded byte count, column checksum), an FNV-1a-64 over
// header + directory, then the encoded column payloads back to back:
//
//   [4]  chunk magic "CHNK"
//   [1]  table kind
//   [4]  row count, little-endian
//   [4]  column count, little-endian
//   per column: [1] encoding  [4] encoded bytes  [8] fnv1a64_words(payload)
//   [8]  FNV-1a-64 over everything above (header + directory)
//   ...  column payloads, in schema order
//
// Integrity is two-level: the chunk checksum seals the header and the
// directory of column checksums, and each column payload is verified by
// its own word-wise FNV whenever it is decoded.  A scan that prunes
// columns therefore verifies exactly the bytes it reads, while a full
// load (which decodes every column) detects a flip anywhere in the chunk.
//
// Every value is stored as a 64-bit little-endian pattern (doubles are
// bit-cast), per column encoded as one of:
//   kRaw64       — 8 bytes per row, little-endian;
//   kDeltaVarint — per row, LEB128 varint of the zigzagged wrapping
//                  difference from the previous row (first row diffs
//                  against zero) — the monotone/near-constant case;
//   kConst       — a single varint of the (zigzagged) common value.
// The writer picks, per column per chunk, whichever encodes smallest.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/hpm/events.hpp"

namespace p2sim::archive {

inline constexpr std::string_view kFileMagic = "P2SIMAR1";
inline constexpr std::string_view kFooterMagic = "P2SIMARF";
inline constexpr std::string_view kChunkMagic = "CHNK";
inline constexpr std::uint32_t kFormatVersion = 1;

/// Rows per chunk: large enough that per-chunk framing amortizes to
/// nothing, small enough that min/max pruning has real resolution over a
/// nine-month campaign (25920 intervals -> ~7 chunks).
inline constexpr std::size_t kDefaultRowsPerChunk = 4096;

/// Tail frame after the footer payload: checksum + length + magic.
inline constexpr std::size_t kFooterFrameBytes = 8 + 4 + kFooterMagic.size();

enum class TableKind : std::uint8_t { kIntervals = 0, kJobs = 1 };
inline constexpr std::size_t kNumTables = 2;

enum class Encoding : std::uint8_t { kRaw64 = 0, kDeltaVarint = 1, kConst = 2 };

/// How a column's 64-bit patterns compare (for chunk min/max statistics
/// and pretty-printing); storage is raw bits either way.
enum class ColumnKind : std::uint8_t { kU64 = 0, kI64 = 1, kF64 = 2 };

struct ColumnDesc {
  std::string name;
  ColumnKind kind = ColumnKind::kU64;
};

// Interval table: 6 fixed columns then 22 user + 22 system counters.
namespace icol {
inline constexpr std::uint32_t kInterval = 0;
inline constexpr std::uint32_t kSampled = 1;
inline constexpr std::uint32_t kExpected = 2;
inline constexpr std::uint32_t kReprimed = 3;
inline constexpr std::uint32_t kBusy = 4;
inline constexpr std::uint32_t kQuad = 5;
inline constexpr std::uint32_t kUser0 = 6;
inline constexpr std::uint32_t kSystem0 =
    kUser0 + static_cast<std::uint32_t>(hpm::kNumCounters);
}  // namespace icol

// Job table: 8 fixed columns then 22 user + 22 system counters.  This is
// the v2 text job line's field set plus `user_id` (which the text format
// never carried but per-user queries need).
namespace jcol {
inline constexpr std::uint32_t kJobId = 0;
inline constexpr std::uint32_t kUserId = 1;
inline constexpr std::uint32_t kNodes = 2;
inline constexpr std::uint32_t kSubmit = 3;
inline constexpr std::uint32_t kStart = 4;
inline constexpr std::uint32_t kEnd = 5;
inline constexpr std::uint32_t kComplete = 6;
inline constexpr std::uint32_t kQuad = 7;
inline constexpr std::uint32_t kUser0 = 8;
inline constexpr std::uint32_t kSystem0 =
    kUser0 + static_cast<std::uint32_t>(hpm::kNumCounters);
}  // namespace jcol

/// Column schema for a table, in storage order.
const std::vector<ColumnDesc>& columns(TableKind kind);

/// Number of columns in a table's schema.
std::uint32_t column_count(TableKind kind);

/// Resolves "user.cycles", "nodes", ... to a column index; returns false
/// when the name is not in the table's schema.
bool column_by_name(TableKind kind, std::string_view name,
                    std::uint32_t* out);

/// Per-column, per-chunk statistics (raw 64-bit patterns; compare per the
/// column's ColumnKind).
struct ChunkStats {
  std::uint64_t min_raw = 0;
  std::uint64_t max_raw = 0;
};

/// Orders two raw 64-bit patterns per the column's value kind.
inline bool raw_less(std::uint64_t a, std::uint64_t b, ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kI64:
      return std::bit_cast<std::int64_t>(a) < std::bit_cast<std::int64_t>(b);
    case ColumnKind::kF64:
      return std::bit_cast<double>(a) < std::bit_cast<double>(b);
    case ColumnKind::kU64:
      break;
  }
  return a < b;
}

// --- little-endian and varint primitives ----------------------------------

inline void put_le32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_le64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline std::uint32_t get_le32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

inline std::uint64_t get_le64(const char* p) {
  // One load: the byte-at-a-time form is not merged by the compiler, and
  // this sits on every decoded varint.
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Zigzag on the wrapping difference: small |delta| in either direction
/// encodes small.  Round-trips every 64-bit pattern.
inline std::uint64_t zigzag64(std::uint64_t d) {
  return (d << 1) ^ static_cast<std::uint64_t>(
                        std::bit_cast<std::int64_t>(d) >> 63);
}

inline std::uint64_t unzigzag64(std::uint64_t z) {
  return (z >> 1) ^ (0ULL - (z & 1ULL));
}

/// LEB128: 7 payload bits per byte, high bit = continuation.
inline void put_varint(std::string* out, std::uint64_t v) {
  while (v >= 0x80ULL) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Reads one varint from [*p, end); advances *p.  Returns false on
/// truncation or on a varint wider than 64 bits.
inline bool get_varint(const char** p, const char* end, std::uint64_t* v) {
  // Fast paths with the loop's exact result.  One byte (a zero or tiny
  // delta, about half of all archive varints) returns at once.  With a
  // whole word readable, a varint of up to 8 bytes decodes with no branch
  // per byte: the lowest clear high bit ends it, and three shift-and-mask
  // steps pack its 7-bit groups.  The loop takes the payload's tail and
  // wider varints.
  if (*p != end && static_cast<unsigned char>(**p) < 0x80) {
    *v = static_cast<unsigned char>(*(*p)++);
    return true;
  }
  if (end - *p >= 8) {
    const std::uint64_t word = get_le64(*p);
    const std::uint64_t stops = ~word & 0x8080808080808080ULL;
    if (stops != 0) {
      std::uint64_t x = word & (stops ^ (stops - 1)) & 0x7f7f7f7f7f7f7f7fULL;
      x = ((x & 0x7f007f007f007f00ULL) >> 1) | (x & 0x007f007f007f007fULL);
      x = ((x & 0x3fff00003fff0000ULL) >> 2) | (x & 0x00003fff00003fffULL);
      x = ((x & 0x0fffffff00000000ULL) >> 4) | (x & 0x000000000fffffffULL);
      *v = x;
      *p += std::countr_zero(stops) / 8 + 1;
      return true;
    }
  }
  std::uint64_t out = 0;
  int shift = 0;
  while (*p != end && shift < 64) {
    const unsigned char byte = static_cast<unsigned char>(**p);
    ++*p;
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace p2sim::archive
