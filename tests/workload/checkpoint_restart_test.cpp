// Checkpoint/restart unit contract: the container round-trips and rejects
// malformation precisely; checkpointing never perturbs a campaign's
// fingerprint; a resume from ANY generation — at any thread count — is
// byte-identical to the uninterrupted run; a corrupt newest generation
// falls back to the previous one with the reason on record; and a
// checkpoint from a different campaign configuration is refused outright.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/util/checksum.hpp"
#include "src/util/ckpt.hpp"
#include "src/workload/checkpoint.hpp"
#include "tests/workload/campaign_fingerprint.hpp"

namespace p2sim::workload {
namespace {

namespace fs = std::filesystem;

/// A dense two-day faulted campaign with a short checkpoint cadence: 192
/// intervals, generations every 24.
DriverConfig ck_config() {
  DriverConfig cfg = small_config(2, 16);
  cfg.faults = fault::FaultConfig::reference();
  cfg.checkpoint.every_intervals = 24;
  return cfg;
}

std::string fresh_dir(const char* name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CheckpointRestart, ContainerRoundTrips) {
  const std::string payload = "the campaign state, opaquely";
  const JournalPos pos{4242, 0x5EEDF00DCAFEull};
  const std::string bytes =
      encode_checkpoint_file(0xABCD1234u, 96, pos, payload);
  const CheckpointImage img = decode_checkpoint_file(bytes);
  EXPECT_EQ(img.config_hash, 0xABCD1234u);
  EXPECT_EQ(img.resume_interval, 96);
  EXPECT_EQ(img.journal_pos.bytes, pos.bytes);
  EXPECT_EQ(img.journal_pos.chain, pos.chain);
  EXPECT_EQ(img.payload, payload);
}

TEST(CheckpointRestart, FileNamesSortInIntervalOrder) {
  EXPECT_EQ(checkpoint_file_name(24), "ckpt-000000000024.p2ck");
  EXPECT_LT(checkpoint_file_name(96), checkpoint_file_name(1000));
  EXPECT_LT(checkpoint_file_name(999), checkpoint_file_name(10000));
}

TEST(CheckpointRestart, WriteListLoadAndPrune) {
  const std::string dir = fresh_dir("p2sim_ck_wll");
  std::string err;
  JournalWriter journal;
  ASSERT_TRUE(journal.start(dir, 7u, &err)) << err;
  for (std::int64_t t : {24, 48, 72}) {
    ASSERT_TRUE(journal.append("frame " + std::to_string(t), t, &err)) << err;
    ASSERT_TRUE(write_checkpoint(dir, 7u, t, journal.pos(), "payload",
                                 /*keep=*/2, &err))
        << err;
  }
  // keep=2: the oldest generation was pruned after the third commit.
  const auto gens = list_checkpoints(dir);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_NE(gens[0].find("ckpt-000000000048"), std::string::npos);
  EXPECT_NE(gens[1].find("ckpt-000000000072"), std::string::npos);

  ResumeReport rep;
  const auto img = load_latest_checkpoint(dir, 7u, &rep);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->resume_interval, 72);
  EXPECT_EQ(img->payload, "payload");
  // The pruned generation's frame stays: the kept ones stand on it.
  ASSERT_EQ(img->frames.size(), 3u);
  EXPECT_EQ(img->frame(0), "frame 24");
  EXPECT_EQ(img->frame(2), "frame 72");
  EXPECT_TRUE(rep.rejected.empty());
  fs::remove_all(dir);
}

TEST(CheckpointRestart, CheckpointingDoesNotPerturbTheCampaign) {
  const std::string dir = fresh_dir("p2sim_ck_perturb");
  DriverConfig with_ck = ck_config();
  with_ck.checkpoint.dir = dir;
  expect_identical(campaign_fingerprint(ck_config(), 1),
                   campaign_fingerprint(with_ck, 1),
                   "checkpointing on vs off");
  EXPECT_FALSE(list_checkpoints(dir).empty());
  fs::remove_all(dir);
}

TEST(CheckpointRestart, ResumeFromEveryGenerationIsByteIdentical) {
  const std::string dir = fresh_dir("p2sim_ck_gens");
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = dir;
  cfg.checkpoint.keep = 99;  // retain every generation
  const std::string reference = campaign_fingerprint(cfg, 1);

  const auto gens = list_checkpoints(dir);
  ASSERT_EQ(gens.size(), 7u);  // 24, 48, ..., 168 of 192 intervals
  for (std::size_t i = 0; i < gens.size(); ++i) {
    // Stage exactly one generation (and the journal every generation
    // shares) in its own directory, so the resume is forced through it.
    const std::string gen_dir =
        fresh_dir(("p2sim_ck_gen_" + std::to_string(i)).c_str());
    fs::create_directories(gen_dir);
    fs::copy_file(dir + "/" + gens[i], gen_dir + "/" + gens[i]);
    fs::copy_file(dir + "/" + kJournalFile, gen_dir + "/" + kJournalFile);

    DriverConfig resume_cfg = ck_config();
    resume_cfg.checkpoint.dir = gen_dir;
    resume_cfg.checkpoint.resume = true;
    ResumeReport rep;
    resume_cfg.checkpoint.report = &rep;
    const int threads = i % 3 == 2 ? 4 : 1;  // mix thread counts across gens
    const std::string resumed = campaign_fingerprint(resume_cfg, threads);
    EXPECT_TRUE(rep.resumed);
    EXPECT_EQ(rep.resume_interval, 24 * static_cast<std::int64_t>(i + 1));
    expect_identical(reference, resumed,
                     ("resume from generation " + std::to_string(i)).c_str());
    fs::remove_all(gen_dir);
  }
  fs::remove_all(dir);
}

TEST(CheckpointRestart, MidCampaignCheckpointResumesAcrossThreadCounts) {
  // A checkpoint cut mid-campaign by a wide (8-worker) run must resume
  // byte-identically under any other worker count: lane partitioning and
  // pass horizons are derived state, never checkpointed, so the image is
  // thread-count-agnostic in both directions.
  const std::string dir = fresh_dir("p2sim_ck_xthreads");
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = dir;
  const std::string reference = campaign_fingerprint(cfg, 8);
  ASSERT_FALSE(list_checkpoints(dir).empty());
  for (int threads : {1, 2, 3}) {
    DriverConfig resume_cfg = ck_config();
    resume_cfg.checkpoint.dir = dir;
    resume_cfg.checkpoint.resume = true;
    ResumeReport rep;
    resume_cfg.checkpoint.report = &rep;
    const std::string resumed = campaign_fingerprint(resume_cfg, threads);
    EXPECT_TRUE(rep.resumed);
    expect_identical(reference, resumed,
                     ("threads=8 checkpoint resumed at threads=" +
                      std::to_string(threads))
                         .c_str());
  }
  fs::remove_all(dir);
}

TEST(CheckpointRestart, CorruptNewestGenerationFallsBackWithReason) {
  const std::string dir = fresh_dir("p2sim_ck_fallback");
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = dir;
  const std::string reference = campaign_fingerprint(cfg, 1);

  auto gens = list_checkpoints(dir);
  ASSERT_EQ(gens.size(), 2u);  // keep=2 default
  // Rot one payload byte of the newest generation.
  const std::string newest = dir + "/" + gens[1];
  std::string bytes = read_file(newest);
  bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x40);
  std::ofstream(newest, std::ios::binary | std::ios::trunc) << bytes;

  DriverConfig resume_cfg = ck_config();
  resume_cfg.checkpoint.dir = dir;
  resume_cfg.checkpoint.resume = true;
  ResumeReport rep;
  resume_cfg.checkpoint.report = &rep;
  const std::string resumed = campaign_fingerprint(resume_cfg, 1);

  EXPECT_TRUE(rep.resumed);
  EXPECT_EQ(rep.resume_interval, 144);  // fell back from 168 to 144
  ASSERT_EQ(rep.rejected.size(), 1u);
  EXPECT_NE(rep.rejected[0].find("checksum"), std::string::npos)
      << rep.rejected[0];
  expect_identical(reference, resumed, "resume after fallback");
  fs::remove_all(dir);
}

TEST(CheckpointRestart, OldGenerationMagicIsRefusedCleanly) {
  // Generations written by earlier layouts must be refused by name, and
  // the campaign must then run from scratch, byte-identical to a fresh
  // run: P2SIMCK3 still carried the daemon's baselines, P2SIMCK4 the
  // master stream, the pending arrivals, the job generator and the
  // registry's id counter, which the config now recomputes, and P2SIMCK5
  // a random stream per node lane that nothing drew from.
  const std::string src = fresh_dir("p2sim_ck_old_magic_src");
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = src;
  const std::string reference = campaign_fingerprint(cfg, 1);
  const auto gens = list_checkpoints(src);
  ASSERT_FALSE(gens.empty());
  const std::string current = read_file(src + "/" + gens.back());
  ASSERT_EQ(current.compare(0, 8, "P2SIMCK6"), 0);

  for (const char* old_magic : {"P2SIMCK3", "P2SIMCK4", "P2SIMCK5"}) {
    // The newest generation alone on its journal, with the old magic and
    // a header checksum that matches it, so the magic is the only thing
    // wrong with the generation.
    const std::string dir = fresh_dir("p2sim_ck_old_magic");
    fs::create_directories(dir);
    fs::copy_file(src + "/" + kJournalFile, dir + "/" + kJournalFile);
    std::string bytes = current;
    bytes.replace(0, 8, old_magic);
    const std::uint64_t header_sum =
        util::fnv1a64(std::string_view(bytes.data(), 56));
    for (int i = 0; i < 8; ++i) {
      bytes[56 + static_cast<std::size_t>(i)] =
          static_cast<char>((header_sum >> (8 * i)) & 0xFF);
    }
    std::ofstream(dir + "/" + gens.back(), std::ios::binary) << bytes;

    DriverConfig resume_cfg = ck_config();
    resume_cfg.checkpoint.dir = dir;
    resume_cfg.checkpoint.resume = true;
    ResumeReport rep;
    resume_cfg.checkpoint.report = &rep;
    const std::string resumed = campaign_fingerprint(resume_cfg, 1);

    EXPECT_TRUE(rep.attempted) << old_magic;
    EXPECT_FALSE(rep.resumed) << old_magic;
    ASSERT_EQ(rep.rejected.size(), 1u) << old_magic;
    EXPECT_NE(rep.rejected[0].find("bad magic"), std::string::npos)
        << old_magic << ": " << rep.rejected[0];
    const std::string label = std::string(old_magic) + " refused vs fresh";
    expect_identical(reference, resumed, label.c_str());
    fs::remove_all(dir);
  }
  fs::remove_all(src);
}

TEST(CheckpointRestart, ConfigMismatchRejectsEveryGeneration) {
  const std::string dir = fresh_dir("p2sim_ck_mismatch");
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = dir;
  (void)campaign_fingerprint(cfg, 1);
  const std::size_t gens = list_checkpoints(dir).size();
  ASSERT_GT(gens, 0u);

  DriverConfig other = ck_config();
  other.seed ^= 1;  // a different campaign entirely
  other.checkpoint.dir = dir;
  other.checkpoint.resume = true;
  ResumeReport rep;
  other.checkpoint.report = &rep;
  const std::string resumed = campaign_fingerprint(other, 1);

  EXPECT_TRUE(rep.attempted);
  EXPECT_FALSE(rep.resumed);
  EXPECT_EQ(rep.rejected.size(), gens);
  for (const std::string& why : rep.rejected) {
    EXPECT_NE(why.find("config_hash"), std::string::npos) << why;
  }
  // The refused resume ran the other campaign from scratch, correctly.
  DriverConfig other_fresh = ck_config();
  other_fresh.seed ^= 1;
  expect_identical(campaign_fingerprint(other_fresh, 1), resumed,
                   "refused resume vs fresh run");
  fs::remove_all(dir);
}

TEST(CheckpointRestart, TornTmpFileIsIgnored) {
  const std::string dir = fresh_dir("p2sim_ck_tmp");
  fs::create_directories(dir);
  std::ofstream(dir + "/ckpt-000000000048.p2ck.tmp") << "half a checkpoint";
  EXPECT_TRUE(list_checkpoints(dir).empty());

  // A resume over nothing but the torn tmp starts from the beginning.
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = dir;
  cfg.checkpoint.resume = true;
  ResumeReport rep;
  cfg.checkpoint.report = &rep;
  const std::string run = campaign_fingerprint(cfg, 1);
  EXPECT_FALSE(rep.resumed);
  expect_identical(campaign_fingerprint(ck_config(), 1), run,
                   "resume over torn tmp vs fresh");
  fs::remove_all(dir);
}

TEST(CheckpointRestart, UnwritableCheckpointDirIsNonFatal) {
  // Point the checkpoint dir at a path blocked by a regular file: every
  // write fails, the campaign still completes identically.
  const std::string blocker = testing::TempDir() + "p2sim_ck_blocker";
  std::ofstream(blocker, std::ios::trunc) << "not a directory";
  DriverConfig cfg = ck_config();
  cfg.checkpoint.dir = blocker + "/nested";
  expect_identical(campaign_fingerprint(ck_config(), 1),
                   campaign_fingerprint(cfg, 1),
                   "failing checkpoint writes vs none");
  std::remove(blocker.c_str());
}

TEST(CheckpointRestart, FreshRunReplacesStaleGenerations) {
  // A longer campaign leaves generations whose higher interval numbers
  // sort after everything a shorter fresh run writes.  Unless the fresh
  // run clears them, keep=2 prunes every generation it commits and the
  // survivors belong to the other campaign.
  const std::string dir = fresh_dir("p2sim_ck_stale");
  DriverConfig longer = small_config(4, 16);
  longer.checkpoint.every_intervals = 24;
  longer.checkpoint.dir = dir;
  (void)campaign_fingerprint(longer, 1, /*include_telemetry=*/false);
  auto gens = list_checkpoints(dir);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_NE(gens.back().find("ckpt-000000000360"), std::string::npos);

  DriverConfig shorter = ck_config();
  shorter.checkpoint.dir = dir;
  const std::string reference = campaign_fingerprint(shorter, 1);
  gens = list_checkpoints(dir);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_NE(gens[0].find("ckpt-000000000144"), std::string::npos);
  EXPECT_NE(gens[1].find("ckpt-000000000168"), std::string::npos);

  ResumeReport rep;
  const auto img = load_latest_checkpoint(
      dir, config_fingerprint(shorter), &rep);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->resume_interval, 168);
  EXPECT_TRUE(rep.rejected.empty());

  shorter.checkpoint.resume = true;
  expect_identical(reference, campaign_fingerprint(shorter, 1),
                   "resume after replacing stale generations");
  fs::remove_all(dir);
}

TEST(CheckpointRestart, ConfigFingerprintCoversDeterminismKnobsOnly) {
  const DriverConfig base = ck_config();
  // Wall-clock-only knobs do not change the fingerprint...
  DriverConfig same = base;
  same.threads = 7;
  same.signature_store_path = "somewhere.txt";
  same.checkpoint.dir = "elsewhere";
  same.checkpoint.every_intervals = 3;
  same.checkpoint.keep = 42;
  EXPECT_EQ(config_fingerprint(base), config_fingerprint(same));
  // ...every determinism-relevant knob does.
  DriverConfig seed = base;
  seed.seed ^= 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(seed));
  DriverConfig faults = base;
  faults.faults.interval_miss_prob += 0.01;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(faults));
  DriverConfig jobs = base;
  jobs.jobgen.node_weights.back() += 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(jobs));
  DriverConfig node = base;
  node.node.clock_hz *= 2.0;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(node));
  DriverConfig days = base;
  days.days += 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(days));
}

}  // namespace
}  // namespace p2sim::workload
