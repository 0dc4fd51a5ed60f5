// Look-ahead signature measurement: at each day's first interval the driver
// measures the kernels of every job the day will submit in one parallel
// batch, and launches adopt the results serially in start order.  The
// contract is that nothing observable moves: a cold campaign from day 0
// never falls back to on-demand measurement, the signature store and the
// campaign fingerprint are byte-identical at every thread count, a resume in
// the middle of a day rebuilds the look-ahead without changing a byte, and
// faulted campaigns (kills, requeues) keep the same records as a warm-store
// run that measures nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "src/workload/checkpoint.hpp"
#include "tests/workload/campaign_fingerprint.hpp"

namespace p2sim::workload {
namespace {

namespace fs = std::filesystem;

struct AheadRun {
  std::string fingerprint;
  std::string store;  ///< the signature store's bytes after the campaign
  power2::SignatureCache::Stats stats;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A per-process path under the test temp dir (ctest runs tests in
/// parallel processes).
std::string fresh_path(const std::string& name) {
  const std::string path = testing::TempDir() + "p2sim_ahead_" +
                           std::to_string(::getpid()) + "_" + name;
  fs::remove_all(path);
  return path;
}

/// Runs `cfg` cold (an empty store at a fresh path) under a telemetry
/// session, keeping the fingerprint, the store bytes and the cache stats.
AheadRun run_cold(DriverConfig cfg, int threads, const std::string& tag) {
  cfg.threads = threads;
  cfg.signature_store_path = fresh_path(tag + ".sig");
  telemetry::Session session;
  CampaignResult result;
  {
    telemetry::ScopedSession scoped(session);
    result = run_campaign(cfg);
  }
  AheadRun out{fingerprint_result(result, &session),
               read_file(cfg.signature_store_path), result.signature_stats};
  std::remove(cfg.signature_store_path.c_str());
  return out;
}

TEST(MeasureAhead, ColdCampaignNeverMeasuresOnDemand) {
  const AheadRun run = run_cold(small_config(), 1, "on_demand");
  EXPECT_GT(run.stats.measured, 0u);
  EXPECT_EQ(run.stats.measured_on_demand, 0u);
  EXPECT_FALSE(run.store.empty());
}

TEST(MeasureAhead, StoreAndFingerprintAreIdenticalAcrossThreads) {
  const AheadRun serial = run_cold(small_config(), 1, "t1");
  for (int threads : {3, 4}) {
    const std::string tag = "t" + std::to_string(threads);
    const AheadRun par = run_cold(small_config(), threads, tag);
    expect_identical(serial.fingerprint, par.fingerprint,
                     ("fingerprint threads=" + tag).c_str());
    EXPECT_EQ(serial.store, par.store) << "store bytes at threads=" << tag;
    EXPECT_EQ(serial.stats.measured, par.stats.measured);
    EXPECT_EQ(par.stats.measured_on_demand, 0u);
  }
}

TEST(MeasureAhead, MidDayResumeRebuildsTheLookAhead) {
  // Generations every 40 intervals: 40, 80, ..., 280 of 288.  None lands
  // on a day boundary (96, 192), so each resume starts mid-day.
  DriverConfig cfg = small_config(3, 16);
  cfg.checkpoint.every_intervals = 40;
  cfg.checkpoint.keep = 99;
  cfg.checkpoint.dir = fresh_path("ckpt");
  const AheadRun reference = run_cold(cfg, 1, "resume_ref");
  const std::vector<std::string> gens = list_checkpoints(cfg.checkpoint.dir);
  ASSERT_EQ(gens.size(), 7u);

  for (std::size_t i : {0u, 2u, 5u}) {
    const std::string gen_dir = fresh_path("gen_" + std::to_string(i));
    fs::create_directories(gen_dir);
    fs::copy_file(cfg.checkpoint.dir + "/" + gens[i], gen_dir + "/" + gens[i]);
    fs::copy_file(cfg.checkpoint.dir + "/" + kJournalFile,
                  gen_dir + "/" + kJournalFile);
    DriverConfig resume_cfg = cfg;
    resume_cfg.checkpoint.dir = gen_dir;
    resume_cfg.checkpoint.resume = true;
    ResumeReport rep;
    resume_cfg.checkpoint.report = &rep;
    const int threads = i == 2 ? 4 : 3;
    const AheadRun resumed =
        run_cold(resume_cfg, threads, "resume_" + std::to_string(i));
    ASSERT_TRUE(rep.resumed);
    ASSERT_NE(rep.resume_interval % util::kIntervalsPerDay, 0);
    const std::string label = "resume from interval " +
                              std::to_string(rep.resume_interval);
    expect_identical(reference.fingerprint, resumed.fingerprint,
                     label.c_str());
    EXPECT_EQ(reference.store, resumed.store) << label;
    // The queued jobs' kernels and the rest of the day were planned again.
    EXPECT_EQ(resumed.stats.measured_on_demand, 0u) << label;
    fs::remove_all(gen_dir);
  }
  fs::remove_all(cfg.checkpoint.dir);
}

TEST(MeasureAhead, FaultedCampaignIsUnchanged) {
  // Kills and requeues relaunch jobs whose kernels are already cached; the
  // look-ahead must neither re-measure them nor move a record.
  const AheadRun serial = run_cold(faulted_config(), 1, "faulted_t1");
  const AheadRun par = run_cold(faulted_config(), 4, "faulted_t4");
  expect_identical(serial.fingerprint, par.fingerprint, "faulted threads=4");
  EXPECT_EQ(serial.store, par.store);
  EXPECT_EQ(serial.stats.measured_on_demand, 0u);
  // Records, loss report and totals match a run that measures nothing at
  // all: every signature comes from a warm store.
  const std::string store = fresh_path("faulted_warm.sig");
  {
    std::ofstream out(store, std::ios::binary);
    out << serial.store;
  }
  DriverConfig warm = faulted_config();
  warm.signature_store_path = store;
  const std::string cold_records = campaign_fingerprint(
      faulted_config(), 1, /*include_telemetry=*/false);
  expect_identical(cold_records,
                   campaign_fingerprint(warm, 4, /*include_telemetry=*/false),
                   "faulted warm store vs cold");
  std::remove(store.c_str());
}

}  // namespace
}  // namespace p2sim::workload
