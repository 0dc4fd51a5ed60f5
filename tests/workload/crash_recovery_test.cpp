// Kill-injection harness: forks a checkpointing campaign, SIGKILLs the
// child at a chosen deterministic execution point — between intervals,
// mid-journal-append (torn frame), after the frame is durable but before
// its generation exists, mid-checkpoint-write (torn tmp file), after the
// tmp is complete but before the atomic rename, and right after a commit —
// then resumes in a fresh process and asserts the finished campaign's
// fingerprint is byte-identical to an uninterrupted run's.  The schedule
// covers 13 generation kill points plus the journal points at threads=1
// and threads=4, and crash chains (crash, resume, crash again, ...).
//
// POSIX-only by construction (fork/waitpid/SIGKILL); the whole file is
// compiled out elsewhere, and the rest of the crash_recovery_tests binary
// still runs.
#if defined(__unix__) || defined(__APPLE__)

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/workload/checkpoint.hpp"
#include "tests/workload/campaign_fingerprint.hpp"

namespace p2sim::workload {
namespace {

namespace fs = std::filesystem;

/// Two faulted days on 16 nodes with a one-quarter-day checkpoint cadence:
/// 192 intervals, generations committed at 24, 48, ..., 168.
DriverConfig crash_config() {
  DriverConfig cfg = small_config(2, 16);
  cfg.faults = fault::FaultConfig::reference();
  cfg.checkpoint.every_intervals = 24;
  return cfg;
}

/// One deterministic execution point: the hook fires SIGKILL when `point`
/// ticks with exactly `value` ("interval-end" carries the interval index,
/// the journal-* and ckpt-* points carry the generation's resume
/// interval).
struct KillSpec {
  const char* point = nullptr;
  std::int64_t value = -1;
};

// Hook state crosses into the child through fork(); the hook itself is a
// plain function pointer, so plain globals rather than captures.
KillSpec g_kill;

void kill_hook(const char* point, std::int64_t value) {
  if (g_kill.point != nullptr && value == g_kill.value &&
      std::strcmp(point, g_kill.point) == 0) {
    ::kill(::getpid(), SIGKILL);
  }
}

enum class Outcome { kKilled, kClean, kBroken };

/// Forks one campaign attempt.  The child arms the kill hook, runs the
/// campaign, writes its fingerprint to `fp_path` and exits 0; if the kill
/// point fires first, SIGKILL takes it mid-flight.  The parent reports
/// which of the two happened.
Outcome run_attempt(const DriverConfig& cfg, int threads, bool resume,
                    const KillSpec& kill_at, const std::string& fp_path) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed: " << std::strerror(errno);
    return Outcome::kBroken;
  }
  if (pid == 0) {
    g_kill = kill_at;
    set_checkpoint_test_hook(&kill_hook);
    DriverConfig run = cfg;
    run.checkpoint.resume = resume;
    std::ofstream out(fp_path, std::ios::binary | std::ios::trunc);
    out << campaign_fingerprint(run, threads);
    out.flush();
    ::_exit(out.good() ? 0 : 3);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    ADD_FAILURE() << "waitpid failed: " << std::strerror(errno);
    return Outcome::kBroken;
  }
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    return Outcome::kKilled;
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Outcome::kClean;
  ADD_FAILURE() << "child neither SIGKILLed nor clean: status=" << status;
  return Outcome::kBroken;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

/// Kills one child at `kill_at`, then re-forks resume attempts (no kill)
/// until one finishes, and returns the finished campaign's fingerprint.
std::string kill_then_recover(const std::string& tag, int threads,
                              const KillSpec& kill_at) {
  const std::string dir = fresh_dir("p2sim_crash_" + tag);
  const std::string fp_path = dir + ".fp";
  DriverConfig cfg = crash_config();
  cfg.checkpoint.dir = dir;

  EXPECT_EQ(run_attempt(cfg, threads, /*resume=*/false, kill_at, fp_path),
            Outcome::kKilled)
      << tag << ": kill point never fired";
  EXPECT_EQ(run_attempt(cfg, threads, /*resume=*/true, KillSpec{}, fp_path),
            Outcome::kClean)
      << tag << ": resume did not finish";

  const std::string fp = read_file(fp_path);
  fs::remove_all(dir);
  std::remove(fp_path.c_str());
  return fp;
}

/// The 13-point kill schedule.  interval-end values are interval indices
/// (0..191); the ckpt-* values are generation resume intervals (24k).
/// 24/47 bracket a commit; 5 precedes the first generation entirely;
/// mid-write tears the tmp file of an early, middle and final generation.
const KillSpec kSchedule[] = {
    {"interval-end", 5},      {"interval-end", 23},
    {"interval-end", 24},     {"interval-end", 47},
    {"interval-end", 60},     {"interval-end", 101},
    {"interval-end", 150},    {"interval-end", 183},
    {"ckpt-mid-write", 24},   {"ckpt-mid-write", 96},
    {"ckpt-mid-write", 168},  {"ckpt-pre-rename", 48},
    {"ckpt-committed", 72},
};

TEST(CrashRecovery, EveryKillPointResumesByteIdentical) {
  const std::string reference = campaign_fingerprint(crash_config(), 1);
  for (const KillSpec& kill_at : kSchedule) {
    const std::string tag =
        std::string(kill_at.point) + "_" + std::to_string(kill_at.value);
    expect_identical(reference, kill_then_recover(tag, 1, kill_at),
                     tag.c_str());
  }
}

/// The journal's kill points: a torn frame, and a durable frame no
/// generation references yet.  Either way the resume stands on the
/// previous generation and cuts the journal back to its prefix.
const KillSpec kJournalSchedule[] = {
    {"journal-mid-append", 24},  {"journal-mid-append", 96},
    {"journal-appended", 48},    {"journal-appended", 168},
};

TEST(CrashRecovery, JournalKillPointsResumeByteIdentical) {
  const std::string reference = campaign_fingerprint(crash_config(), 1);
  for (const int threads : {1, 4}) {
    for (const KillSpec& kill_at : kJournalSchedule) {
      const std::string tag = "t" + std::to_string(threads) + "_" +
                              kill_at.point + "_" +
                              std::to_string(kill_at.value);
      expect_identical(reference, kill_then_recover(tag, threads, kill_at),
                       tag.c_str());
    }
  }
}

TEST(CrashRecovery, ParallelCampaignSurvivesKillsToo) {
  // threads=4 exercises the pool teardown path under SIGKILL; the
  // fingerprint must match the serial uninterrupted reference — crash,
  // resume and parallelism are all invisible to the campaign bytes.
  const std::string reference = campaign_fingerprint(crash_config(), 1);
  for (const KillSpec& kill_at :
       {KillSpec{"interval-end", 60}, KillSpec{"ckpt-mid-write", 96},
        KillSpec{"ckpt-pre-rename", 48}}) {
    const std::string tag = std::string("t4_") + kill_at.point + "_" +
                            std::to_string(kill_at.value);
    expect_identical(reference, kill_then_recover(tag, 4, kill_at),
                     tag.c_str());
  }
}

TEST(CrashRecovery, RepeatedCrashesAcrossResumesStillConverge) {
  // Crash the fresh run, crash the first resume, crash the second resume
  // (mid-checkpoint-write), then let the third resume finish.  Each crash
  // lands deeper into the campaign than the last so every attempt makes
  // forward progress through a different generation.
  const std::string dir = fresh_dir("p2sim_crash_chain");
  const std::string fp_path = dir + ".fp";
  DriverConfig cfg = crash_config();
  cfg.checkpoint.dir = dir;

  const KillSpec chain[] = {{"interval-end", 40},
                            {"ckpt-mid-write", 96},
                            {"interval-end", 150}};
  bool resume = false;
  for (const KillSpec& kill_at : chain) {
    ASSERT_EQ(run_attempt(cfg, 1, resume, kill_at, fp_path),
              Outcome::kKilled)
        << kill_at.point << " " << kill_at.value;
    resume = true;
  }
  ASSERT_EQ(run_attempt(cfg, 1, /*resume=*/true, KillSpec{}, fp_path),
            Outcome::kClean);
  expect_identical(campaign_fingerprint(crash_config(), 1),
                   read_file(fp_path), "three-crash chain");
  fs::remove_all(dir);
  std::remove(fp_path.c_str());
}

TEST(CrashRecovery, ResumeThatCutsTheJournalCanCrashAgain) {
  // The first crash tears a frame; the second attempt resumes, cuts the
  // torn tail off the journal, appends past it and is killed with a
  // durable frame no generation references; the third attempt cuts that
  // one too and finishes.
  const std::string dir = fresh_dir("p2sim_crash_journal_chain");
  const std::string fp_path = dir + ".fp";
  DriverConfig cfg = crash_config();
  cfg.checkpoint.dir = dir;

  const KillSpec chain[] = {{"journal-mid-append", 96},
                            {"journal-appended", 144}};
  bool resume = false;
  for (const KillSpec& kill_at : chain) {
    ASSERT_EQ(run_attempt(cfg, 1, resume, kill_at, fp_path),
              Outcome::kKilled)
        << kill_at.point << " " << kill_at.value;
    resume = true;
  }
  ASSERT_EQ(run_attempt(cfg, 4, /*resume=*/true, KillSpec{}, fp_path),
            Outcome::kClean);
  expect_identical(campaign_fingerprint(crash_config(), 1),
                   read_file(fp_path), "journal crash chain");
  fs::remove_all(dir);
  std::remove(fp_path.c_str());
}

TEST(CrashRecovery, MidWriteKillLeavesNoCommittedGarbage) {
  // SIGKILL between the two halves of the tmp write: the torn tmp must
  // never surface as a generation, and the newest committed generation is
  // still the previous one.
  const std::string dir = fresh_dir("p2sim_crash_torn");
  const std::string fp_path = dir + ".fp";
  DriverConfig cfg = crash_config();
  cfg.checkpoint.dir = dir;
  ASSERT_EQ(run_attempt(cfg, 1, false, KillSpec{"ckpt-mid-write", 96},
                        fp_path),
            Outcome::kKilled);
  const auto gens = list_checkpoints(dir);
  ASSERT_FALSE(gens.empty());
  EXPECT_NE(gens.back().find("ckpt-000000000072"), std::string::npos)
      << gens.back();
  // The torn tmp is still on disk — proof the kill really landed mid-write
  // — but invisible to the generation listing.
  bool saw_tmp = false;
  for (const auto& ent : fs::directory_iterator(dir)) {
    if (ent.path().string().find(".tmp") != std::string::npos) {
      saw_tmp = true;
    }
  }
  EXPECT_TRUE(saw_tmp);
  fs::remove_all(dir);
  std::remove(fp_path.c_str());
}

}  // namespace
}  // namespace p2sim::workload

#endif  // __unix__ || __APPLE__
