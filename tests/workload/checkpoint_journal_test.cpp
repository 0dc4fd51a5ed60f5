// Checkpoint journal contract: the append-only collections are written
// once, so a generation holds only live state and its size does not grow
// with campaign length, and the bytes a campaign writes for its
// checkpoints grow linearly with its length, not quadratically.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/workload/checkpoint.hpp"
#include "tests/workload/campaign_fingerprint.hpp"

namespace p2sim::workload {
namespace {

namespace fs = std::filesystem;

std::int64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
}

// The progress hook is a plain function pointer, so plain globals.
std::string g_dir;
std::int64_t g_generation_bytes = 0;

void count_generation(const char* point, std::int64_t value) {
  if (std::string_view(point) == "ckpt-committed") {
    g_generation_bytes += file_size(g_dir + "/" + checkpoint_file_name(value));
  }
}

struct CheckpointBytes {
  std::int64_t newest_generation = 0;
  std::int64_t journal = 0;
  /// Every generation committed plus the journal.
  std::int64_t written = 0;
  /// What is left on disk: the kept generations plus the journal.
  std::int64_t final_on_disk = 0;
};

CheckpointBytes run_and_measure(std::int64_t days) {
  const std::string dir = testing::TempDir() + "p2sim_journal_days_" +
                          std::to_string(days);
  fs::remove_all(dir);
  DriverConfig cfg = small_config(days, 16);
  cfg.checkpoint.dir = dir;
  // Every ten hours: 4 generations over 2 days, 14 over 6.
  cfg.checkpoint.every_intervals = 40;
  g_dir = dir;
  g_generation_bytes = 0;
  set_checkpoint_test_hook(&count_generation);
  (void)run_campaign(cfg);
  set_checkpoint_test_hook(nullptr);

  CheckpointBytes out;
  out.journal = file_size(dir + "/" + kJournalFile);
  out.written = g_generation_bytes + out.journal;
  out.final_on_disk = out.journal;
  for (const std::string& name : list_checkpoints(dir)) {
    out.newest_generation = file_size(dir + "/" + name);
    out.final_on_disk += out.newest_generation;
  }
  fs::remove_all(dir);
  return out;
}

TEST(CheckpointJournal, GenerationSizeDoesNotGrowWithDays) {
  const CheckpointBytes two = run_and_measure(2);
  const CheckpointBytes six = run_and_measure(6);
  ASSERT_GT(two.newest_generation, 0);
  ASSERT_GT(six.newest_generation, 0);
  // Same cadence, three times the campaign: the newest generation holds
  // the same kind of live state, so its size stays put...
  const double ratio = static_cast<double>(six.newest_generation) /
                       static_cast<double>(two.newest_generation);
  EXPECT_GT(ratio, 0.9) << two.newest_generation << " vs "
                        << six.newest_generation;
  EXPECT_LT(ratio, 1.1) << two.newest_generation << " vs "
                        << six.newest_generation;
  // ...while the journal grows with the records.
  EXPECT_GT(six.journal, 2 * two.journal);
  // Every record is written once: all generations plus the journal stay
  // within a small multiple of what is finally on disk.  Re-serializing
  // every record into every generation makes this quadratic in days.
  for (const CheckpointBytes& b : {two, six}) {
    EXPECT_LE(b.written, 3 * b.final_on_disk)
        << "written " << b.written << " final " << b.final_on_disk;
  }
}

TEST(CheckpointJournal, ResumeCutsFramesNoGenerationReferences) {
  // A campaign killed after appending a frame but before its generation
  // leaves a journal tail.  The resume stands on the newest generation,
  // cuts the tail off and finishes byte-identically; the journal it leaves
  // ends exactly where its newest generation's prefix does.
  const std::string dir = testing::TempDir() + "p2sim_journal_tail";
  fs::remove_all(dir);
  DriverConfig cfg = small_config(1, 16);
  cfg.checkpoint.dir = dir;
  cfg.checkpoint.every_intervals = 24;
  const std::string reference = campaign_fingerprint(cfg, 1);

  const std::string journal_path = dir + "/" + kJournalFile;
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::app);
    out << std::string(100, '\x5A');
  }
  cfg.checkpoint.resume = true;
  ResumeReport rep;
  cfg.checkpoint.report = &rep;
  expect_identical(reference, campaign_fingerprint(cfg, 2),
                   "resume over a journal tail");
  EXPECT_TRUE(rep.resumed);
  EXPECT_TRUE(rep.rejected.empty());

  const auto gens = list_checkpoints(dir);
  ASSERT_FALSE(gens.empty());
  std::ifstream in(dir + "/" + gens.back(), std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const CheckpointImage newest = decode_checkpoint_file(bytes.str());
  EXPECT_EQ(static_cast<std::uint64_t>(file_size(journal_path)),
            newest.journal_pos.bytes);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace p2sim::workload
