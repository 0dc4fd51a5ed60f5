// Torn-write fuzzer for every durable artifact the simulator persists:
// the binary checkpoint container and its journal, the v2 record streams
// and the signature store.  The adversary is a crash (or bit rot) at an
// arbitrary byte: every prefix truncation and every single-byte corruption
// of each format must load to a precise, non-empty diagnosis — never a
// crash, never silently-adopted garbage, and for the all-or-nothing
// signature store never a partial prefix.  A damaged journal rejects
// exactly the generations whose prefix covers the damage; older ones
// still load.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/record_io.hpp"
#include "src/power2/kernel_desc.hpp"
#include "src/power2/signature.hpp"
#include "src/power2/signature_store.hpp"
#include "src/util/ckpt.hpp"
#include "src/workload/checkpoint.hpp"

namespace p2sim {
namespace {

// --- checkpoint container ------------------------------------------------

std::string sample_checkpoint() {
  util::CkptWriter w;
  w.put_u64(0xDEADBEEFCAFEF00DULL);
  w.put_str("campaign payload with enough bytes to be interesting");
  w.put_f64(2.718281828459045);
  w.put_i64(-12345);
  return workload::encode_checkpoint_file(0x1234ABCDu, 96, {4096, 77},
                                          w.bytes());
}

TEST(TornWriteFuzz, CheckpointEveryTruncationDiagnosedNeverCrashes) {
  const std::string full = sample_checkpoint();
  ASSERT_NO_THROW(workload::decode_checkpoint_file(full));
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string torn = full.substr(0, len);
    try {
      workload::decode_checkpoint_file(torn);
      FAIL() << "truncation to " << len << " bytes decoded successfully";
    } catch (const util::CkptError& e) {
      EXPECT_FALSE(std::string(e.what()).empty()) << "len=" << len;
    }
  }
}

TEST(TornWriteFuzz, CheckpointEveryByteFlipDiagnosedNeverCrashes) {
  const std::string full = sample_checkpoint();
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x80}) {
      std::string rotted = full;
      rotted[pos] = static_cast<char>(rotted[pos] ^ flip);
      try {
        workload::decode_checkpoint_file(rotted);
        FAIL() << "flip 0x" << std::hex << int{flip} << " at byte "
               << std::dec << pos << " decoded successfully";
      } catch (const util::CkptError& e) {
        EXPECT_FALSE(std::string(e.what()).empty())
            << "pos=" << pos << " flip=" << int{flip};
      }
    }
  }
}

TEST(TornWriteFuzz, CheckpointOversizedPayloadLengthIsBounded) {
  // A rotted payload_size must not drive an allocation or an out-of-range
  // read; the header checksum catches it first, but even a forged header
  // (checksum recomputed) must fail on the real byte count.
  std::string full = sample_checkpoint();
  full.append("trailing garbage the header does not account for");
  EXPECT_THROW(workload::decode_checkpoint_file(full), util::CkptError);
}

// --- checkpoint journal --------------------------------------------------

constexpr std::uint64_t kJournalHash = 0x1234ABCDu;

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A checkpoint directory with three generations (24, 48, 72), each
/// standing on one more frame of a shared journal.
struct ThreeFrameJournal {
  std::string dir;
  std::string journal_path;
  std::string bytes;           ///< the intact journal
  std::uint64_t prefix[3] = {};  ///< each generation's journal_bytes

  explicit ThreeFrameJournal(const char* name)
      : dir(testing::TempDir() + name),
        journal_path(dir + "/" + workload::kJournalFile) {
    std::filesystem::remove_all(dir);
    std::string err;
    workload::JournalWriter journal;
    EXPECT_TRUE(journal.start(dir, kJournalHash, &err)) << err;
    for (int k = 0; k < 3; ++k) {
      util::CkptWriter frame;
      frame.put_u64(static_cast<std::uint64_t>(k));
      frame.put_str(std::string(static_cast<std::size_t>(9 + 7 * k), 'r'));
      const std::int64_t t = 24 * (k + 1);
      EXPECT_TRUE(journal.append(frame.bytes(), t, &err)) << err;
      prefix[k] = journal.pos().bytes;
      EXPECT_TRUE(workload::write_checkpoint(dir, kJournalHash, t,
                                             journal.pos(), "live state",
                                             /*keep=*/0, &err))
          << err;
    }
    bytes = read_bytes(journal_path);
  }
  ~ThreeFrameJournal() { std::filesystem::remove_all(dir); }

  /// Loads from `dir` with `journal` in place and checks the verdict:
  /// the newest generation whose prefix ends at or before `intact_up_to`
  /// loads with its frames, every newer one is rejected with a reason.
  void expect_load(const std::string& journal, std::size_t intact_up_to,
                   const std::string& label) const {
    write_bytes(journal_path, journal);
    workload::ResumeReport rep;
    std::optional<workload::CheckpointImage> img;
    ASSERT_NO_THROW(img = workload::load_latest_checkpoint(
                        dir, kJournalHash, &rep))
        << label;
    int expect = -1;
    for (int k = 0; k < 3; ++k) {
      if (prefix[k] <= intact_up_to) expect = k;
    }
    ASSERT_EQ(rep.rejected.size(), static_cast<std::size_t>(2 - expect))
        << label;
    for (const std::string& why : rep.rejected) {
      EXPECT_NE(why.find("journal"), std::string::npos) << label << ": " << why;
    }
    if (expect < 0) {
      EXPECT_FALSE(img.has_value()) << label;
      return;
    }
    ASSERT_TRUE(img.has_value()) << label;
    EXPECT_EQ(img->resume_interval, 24 * (expect + 1)) << label;
    EXPECT_EQ(img->frames.size(), static_cast<std::size_t>(expect + 1))
        << label;
    EXPECT_EQ(img->journal, bytes.substr(0, prefix[expect])) << label;
  }
};

TEST(TornWriteFuzz, JournalEveryTruncationFallsBackToAnIntactGeneration) {
  const ThreeFrameJournal j("p2sim_fuzz_journal_trunc");
  ASSERT_EQ(j.bytes.size(), j.prefix[2]);
  for (std::size_t len = 0; len <= j.bytes.size(); ++len) {
    j.expect_load(j.bytes.substr(0, len), len,
                  "truncate@" + std::to_string(len));
  }
}

TEST(TornWriteFuzz, JournalEveryByteFlipRejectsTheGenerationsOnIt) {
  const ThreeFrameJournal j("p2sim_fuzz_journal_flip");
  for (std::size_t pos = 0; pos < j.bytes.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x80}) {
      std::string rotted = j.bytes;
      rotted[pos] = static_cast<char>(rotted[pos] ^ flip);
      // Generations whose prefix ends at or before the damaged byte are
      // untouched by it.
      j.expect_load(rotted, pos,
                    "flip " + std::to_string(flip) + "@" +
                        std::to_string(pos));
    }
  }
}

TEST(TornWriteFuzz, JournalTailIsIgnoredOnLoadAndCutOnResume) {
  const ThreeFrameJournal j("p2sim_fuzz_journal_tail");
  // A torn append after the newest generation: half a frame.
  workload::JournalPos past{j.prefix[2], 0};
  const std::string frame = workload::encode_journal_frame("not yet", &past);
  const std::string torn = j.bytes + frame.substr(0, frame.size() / 2);
  j.expect_load(torn, torn.size(), "torn tail");

  workload::ResumeReport rep;
  const auto img =
      workload::load_latest_checkpoint(j.dir, kJournalHash, &rep);
  ASSERT_TRUE(img.has_value());
  std::string err;
  workload::JournalWriter journal;
  ASSERT_TRUE(journal.resume(j.dir, *img, &err)) << err;
  EXPECT_EQ(read_bytes(j.journal_path), j.bytes);
  // The next frame lands where the tail was, and a generation on it loads.
  ASSERT_TRUE(journal.append("after resume", 96, &err)) << err;
  ASSERT_TRUE(workload::write_checkpoint(j.dir, kJournalHash, 96,
                                         journal.pos(), "live state", 0,
                                         &err))
      << err;
  const auto next =
      workload::load_latest_checkpoint(j.dir, kJournalHash, &rep);
  ASSERT_TRUE(next.has_value());
  ASSERT_EQ(next->frames.size(), 4u);
  EXPECT_EQ(next->frame(3), "after resume");
}

// --- v2 record streams ---------------------------------------------------

std::string sample_intervals_text(int n) {
  std::vector<rs2hpm::IntervalRecord> recs;
  for (int i = 0; i < n; ++i) {
    rs2hpm::IntervalRecord rec;
    rec.interval = i;
    rec.nodes_sampled = 16;
    rec.busy_nodes = i % 17;
    rec.quad_surplus = 1000 + static_cast<std::uint64_t>(i);
    for (std::size_t c = 0; c < hpm::kNumCounters; ++c) {
      rec.delta.user[c] =
          static_cast<std::uint64_t>(i) * 100 + (hpm::kNumCounters - c);
      rec.delta.system[c] =
          static_cast<std::uint64_t>(i) * 7 + (hpm::kNumCounters - c);
    }
    recs.push_back(rec);
  }
  std::ostringstream out;
  analysis::save_intervals(out, recs);
  return out.str();
}

/// Recovering-mode load of mutated record text: must return or throw a
/// std::runtime_error with a message — never crash, never hang.
void expect_diagnosed(const std::string& text, const char* label) {
  std::istringstream in(text);
  analysis::ParseReport report;
  try {
    const auto recs = analysis::load_intervals(in, &report);
    // Loaded: the verdict must be coherent — either a committed clean
    // file, or the report says what was lost.
    if (report.committed) {
      EXPECT_FALSE(report.truncated) << label;
    } else {
      EXPECT_TRUE(report.truncated || report.lines_skipped > 0 ||
                  recs.empty())
          << label << ": uncommitted yet nothing reported";
    }
  } catch (const std::runtime_error& e) {
    // Header damage is fatal even in recovering mode; the reason must
    // still be precise.
    EXPECT_FALSE(std::string(e.what()).empty()) << label;
  }
}

TEST(TornWriteFuzz, RecordsEveryTruncationDiagnosedNeverCrashes) {
  const std::string full = sample_intervals_text(6);
  for (std::size_t len = 0; len < full.size(); ++len) {
    expect_diagnosed(full.substr(0, len),
                     ("truncate@" + std::to_string(len)).c_str());
  }
}

TEST(TornWriteFuzz, RecordsHeaderAndTrailerByteFlipsDiagnosed) {
  const std::string full = sample_intervals_text(6);
  const std::size_t header_end = full.find('\n') + 1;
  const std::size_t trailer_start = full.rfind("C,");
  ASSERT_NE(trailer_start, std::string::npos);
  ASSERT_LT(trailer_start, full.size());
  auto flip_at = [&](std::size_t pos) {
    std::string rotted = full;
    rotted[pos] = static_cast<char>(rotted[pos] ^ 0x08);
    expect_diagnosed(rotted, ("flip@" + std::to_string(pos)).c_str());
  };
  for (std::size_t pos = 0; pos < header_end; ++pos) flip_at(pos);
  for (std::size_t pos = trailer_start; pos < full.size(); ++pos) {
    flip_at(pos);
  }
}

TEST(TornWriteFuzz, RecordsStrictModeNeverAcceptsTruncation) {
  const std::string full = sample_intervals_text(4);
  // Stop one byte early: dropping only the final newline still leaves a
  // complete committed trailer line, which strict mode rightly accepts.
  for (std::size_t len = 0; len + 1 < full.size(); ++len) {
    std::istringstream in(full.substr(0, len));
    EXPECT_THROW(analysis::load_intervals(in), std::runtime_error)
        << "strict load accepted a " << len << "-byte prefix";
  }
  std::istringstream in(full);
  EXPECT_NO_THROW(analysis::load_intervals(in));
}

// --- signature store -----------------------------------------------------

power2::KernelDesc fuzz_kernel(const char* name, int bytes) {
  power2::KernelBuilder b(name);
  const auto s = b.stream(bytes, 8);
  const auto l = b.load(s);
  b.fma(l);
  return b.warmup(32).measure(256).build();
}

std::string store_text() {
  static const std::string text = [] {
    const std::string path = testing::TempDir() + "p2sim_fuzz_store.txt";
    std::remove(path.c_str());
    power2::SignatureCache cache({}, {.path = path});
    (void)cache.get(fuzz_kernel("fuzz_a", 1 << 16));
    (void)cache.get(fuzz_kernel("fuzz_b", 1 << 14));
    EXPECT_TRUE(cache.flush());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    std::remove(path.c_str());
    return out.str();
  }();
  return text;
}

/// Loads mutated store text through the real file path and asserts the
/// all-or-nothing contract: adopt a committed set, or adopt nothing that
/// the report does not account for — and never a bare prefix of an
/// uncommitted v2 store.
void expect_all_or_nothing(const std::string& text, const char* label) {
  const std::string path = testing::TempDir() + "p2sim_fuzz_store_mut.txt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  std::map<std::uint64_t, power2::EventSignature> out;
  power2::SignatureStoreReport rep;
  ASSERT_NO_THROW(rep = power2::load_signature_store(
                      path, power2::core_config_hash({}), out))
      << label;
  if (rep.truncated || !rep.header_ok || !rep.core_hash_matched) {
    EXPECT_EQ(rep.loaded, 0u) << label;
    EXPECT_TRUE(out.empty()) << label;
  } else {
    // Committed store: every entry line is either adopted or individually
    // diagnosed as corrupt — none simply vanish.
    EXPECT_TRUE(rep.committed) << label;
    EXPECT_EQ(rep.loaded + rep.corrupt_lines, 2u) << label;
  }
  std::remove(path.c_str());
}

TEST(TornWriteFuzz, SignatureStoreEveryTruncationIsAllOrNothing) {
  const std::string full = store_text();
  // Any cut before the end of the trailer line un-commits the store.
  for (std::size_t len = 0; len < full.size(); ++len) {
    expect_all_or_nothing(full.substr(0, len),
                          ("truncate@" + std::to_string(len)).c_str());
  }
  expect_all_or_nothing(full, "full file");
}

TEST(TornWriteFuzz, SignatureStoreEveryByteFlipIsContained) {
  const std::string full = store_text();
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') continue;  // line-structure edits change counts
    std::string rotted = full;
    rotted[pos] = static_cast<char>(rotted[pos] ^ 0x04);
    expect_all_or_nothing(rotted, ("flip@" + std::to_string(pos)).c_str());
  }
}

}  // namespace
}  // namespace p2sim
