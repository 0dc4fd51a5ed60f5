// Batched signature measurement: before the first pass the driver measures
// every kernel its submission schedule names that the cache lacks, in one
// parallel batch, and each pass adopts its starts' results serially in
// start order.  The contract is that nothing observable moves: a cold
// campaign from day 0 never falls back to on-demand measurement, the
// signature store and the campaign fingerprint are byte-identical at every
// thread count, a resume (mid-day, at a day boundary, or with queued and
// requeued jobs open) rebuilds the schedule and the batch without changing
// a byte, and faulted campaigns (kills, requeues) keep the same records as
// a warm-store run that measures nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

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
  std::vector<pbs::JobRecord> jobs;  ///< the accounting records
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
               read_file(cfg.signature_store_path), result.signature_stats,
               result.jobs.all()};
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

/// Runs `cfg` cold with a generation every `every` intervals (all kept),
/// returning the uninterrupted run.
AheadRun run_checkpointed(DriverConfig& cfg, std::int64_t every,
                          const std::string& tag) {
  cfg.checkpoint.every_intervals = every;
  cfg.checkpoint.keep = 99;
  cfg.checkpoint.dir = fresh_path(tag + "_ckpt");
  return run_cold(cfg, 1, tag + "_ref");
}

/// The interval a generation resumes at, from its file name.
std::int64_t generation_interval(const std::string& name) {
  return std::stoll(name.substr(5, 12));  // "ckpt-%012lld.p2ck"
}

/// Resumes `cfg`'s campaign from generation `gen` alone, cold, at
/// `threads` threads, and expects the uninterrupted run's fingerprint and
/// store with nothing measured on demand: the queued jobs' kernels and
/// every later one were planned again.  Returns the resume interval.
std::int64_t expect_resume_identical(const DriverConfig& cfg,
                                     const AheadRun& reference,
                                     const std::string& gen, int threads) {
  const std::string gen_dir = fresh_path("gen_" + gen);
  fs::create_directories(gen_dir);
  fs::copy_file(cfg.checkpoint.dir + "/" + gen, gen_dir + "/" + gen);
  fs::copy_file(cfg.checkpoint.dir + "/" + kJournalFile,
                gen_dir + "/" + kJournalFile);
  DriverConfig resume_cfg = cfg;
  resume_cfg.checkpoint.dir = gen_dir;
  resume_cfg.checkpoint.resume = true;
  ResumeReport rep;
  resume_cfg.checkpoint.report = &rep;
  const AheadRun resumed = run_cold(resume_cfg, threads, "resume_" + gen);
  fs::remove_all(gen_dir);
  EXPECT_TRUE(rep.resumed) << gen;
  const std::string label =
      "resume from interval " + std::to_string(rep.resume_interval);
  expect_identical(reference.fingerprint, resumed.fingerprint,
                   label.c_str());
  EXPECT_EQ(reference.store, resumed.store) << label;
  EXPECT_EQ(resumed.stats.measured_on_demand, 0u) << label;
  return rep.resume_interval;
}

TEST(MeasureAhead, MidDayResumeRebuildsTheLookAhead) {
  {
    // Generations every 40 intervals: 40, 80, ..., 280 of 288.  None lands
    // on a day boundary (96, 192), so each resume starts mid-day.
    DriverConfig cfg = small_config(3, 16);
    const AheadRun reference = run_checkpointed(cfg, 40, "mid_day");
    const std::vector<std::string> gens =
        list_checkpoints(cfg.checkpoint.dir);
    ASSERT_EQ(gens.size(), 7u);
    for (std::size_t i : {0u, 2u, 5u}) {
      const std::int64_t at =
          expect_resume_identical(cfg, reference, gens[i], i == 2 ? 4 : 3);
      EXPECT_NE(at % util::kIntervalsPerDay, 0) << gens[i];
    }
    fs::remove_all(cfg.checkpoint.dir);
  }
  {
    // Generations every 48 intervals: the second lands on day 1's start.
    DriverConfig cfg = small_config(3, 16);
    const AheadRun reference = run_checkpointed(cfg, 48, "day_start");
    const std::vector<std::string> gens =
        list_checkpoints(cfg.checkpoint.dir);
    ASSERT_GE(gens.size(), 2u);
    EXPECT_EQ(expect_resume_identical(cfg, reference, gens[1], 3),
              util::kIntervalsPerDay);
    fs::remove_all(cfg.checkpoint.dir);
  }
  {
    // Faults: resume from the first generation at which a job waits in the
    // queue and a crash-killed job's rerun is still open.  The reference
    // outage profile alone kills no job in 6 days on 16 nodes, so node
    // crashes come far more often here.
    DriverConfig cfg = faulted_config();
    cfg.faults.node_crashes_per_node_day = 0.5;
    const AheadRun reference = run_checkpointed(cfg, 40, "faulted");
    const std::vector<std::string> gens =
        list_checkpoints(cfg.checkpoint.dir);
    const auto open_at = [&reference](std::int64_t at) {
      const double cut = static_cast<double>(at * util::kIntervalSeconds);
      std::map<std::int64_t, int> runs;  // records per job id so far
      bool queued = false;
      bool requeued = false;
      for (const pbs::JobRecord& rec : reference.jobs) {
        const int run = runs[rec.spec.job_id]++;
        if (rec.spec.submit_time_s >= cut || rec.end_time_s <= cut) continue;
        queued = queued || rec.start_time_s >= cut;
        requeued = requeued || run > 0;
      }
      return queued && requeued;
    };
    std::string pick;
    for (const std::string& gen : gens) {
      if (open_at(generation_interval(gen))) {
        pick = gen;
        break;
      }
    }
    ASSERT_FALSE(pick.empty()) << "no generation with queued and requeued "
                                  "jobs open";
    expect_resume_identical(cfg, reference, pick, 4);
    fs::remove_all(cfg.checkpoint.dir);
  }
}

TEST(MeasureAhead, FaultedCampaignIsUnchanged) {
  // Kills and requeues relaunch jobs whose kernels are already cached; the
  // batch must neither re-measure them nor move a record.  The reference
  // outage profile alone kills no job in 6 days on 16 nodes, so node
  // crashes come far more often here.
  DriverConfig cfg = faulted_config();
  cfg.faults.node_crashes_per_node_day = 0.5;
  const AheadRun serial = run_cold(cfg, 1, "faulted_t1");
  std::map<std::int64_t, int> runs;  // records per job id
  for (const pbs::JobRecord& rec : serial.jobs) ++runs[rec.spec.job_id];
  int requeued = 0;
  for (const auto& [id, n] : runs) requeued += n > 1 ? 1 : 0;
  EXPECT_GT(requeued, 0) << "no job was killed and requeued";

  const AheadRun par = run_cold(cfg, 4, "faulted_t4");
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
  DriverConfig warm = cfg;
  warm.signature_store_path = store;
  const std::string cold_records =
      campaign_fingerprint(cfg, 1, /*include_telemetry=*/false);
  expect_identical(cold_records,
                   campaign_fingerprint(warm, 4, /*include_telemetry=*/false),
                   "faulted warm store vs cold");
  std::remove(store.c_str());
}

}  // namespace
}  // namespace p2sim::workload
