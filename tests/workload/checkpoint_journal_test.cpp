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

#include "src/util/checksum.hpp"
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

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return util::fnv1a64(bytes.str());
}

TEST(CheckpointJournal, LayoutIsPinned) {
  // The FNV-64 digests of a fixed campaign's newest generation and journal
  // pin the checkpoint layout: a change to any checkpointed type's fields
  // (or their order) moves them, even when save and restore still agree.
  // A deliberate layout change bumps kMagic (generation) or kJournalMagic
  // (journal) in src/workload/checkpoint.cpp; update these digests
  // together with the magic.
  //
  // Telemetry is on, so the registry and tracer walks are pinned too.
  // Nothing pinned may depend on wall time: a first run warms the
  // signature store, so the pinned run measures no kernel (the core's
  // wall-clock throughput histogram stays empty), and the trace keeps no
  // events (each carries its wall-clock window), only its counters.
  const std::string dir = testing::TempDir() + "p2sim_layout_pinned";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DriverConfig cfg = small_config(2, 8);
  cfg.jobgen.node_choices = {1, 2, 4, 8};
  cfg.jobgen.node_weights = {4, 3, 6, 14};
  cfg.faults = fault::FaultConfig::reference();
  cfg.faults.node_crashes_per_node_day = 0.5;
  cfg.signature_store_path = dir + "/store.sig";
  (void)run_campaign(cfg);

  cfg.checkpoint.dir = dir + "/ck";
  cfg.checkpoint.every_intervals = 24;
  telemetry::Session session({.max_trace_events = 0});
  {
    telemetry::ScopedSession scoped(session);
    const CampaignResult result = run_campaign(cfg);
    ASSERT_GT(result.faults.jobs_requeued, 0);
    ASSERT_EQ(result.signature_stats.measured, 0u);
  }
  const auto gens = list_checkpoints(cfg.checkpoint.dir);
  ASSERT_FALSE(gens.empty());
  EXPECT_EQ(gens.back(), checkpoint_file_name(168));
  const std::uint64_t generation =
      file_digest(cfg.checkpoint.dir + "/" + gens.back());
  const std::uint64_t journal =
      file_digest(cfg.checkpoint.dir + "/" + kJournalFile);
  EXPECT_EQ(generation, 0x3ed916af48616f66ULL) << std::hex << generation;
  EXPECT_EQ(journal, 0x1faed101e8a701a3ULL) << std::hex << journal;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace p2sim::workload
