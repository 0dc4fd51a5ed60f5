#include "src/fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace p2sim::fault {
namespace {

FaultConfig all_on() {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.node_crashes_per_node_day = 0.5;
  cfg.interval_miss_prob = 0.1;
  cfg.node_sample_loss_prob = 0.1;
  cfg.prologue_loss_prob = 0.1;
  cfg.epilogue_loss_prob = 0.1;
  cfg.record_corruption_prob = 0.1;
  return cfg;
}

TEST(FaultSchedule, DisabledNeverFires) {
  FaultConfig cfg = all_on();
  cfg.enabled = false;
  const FaultSchedule sched(cfg);
  for (std::int64_t t = 0; t < 500; ++t) {
    EXPECT_FALSE(sched.node_crashes(3, t));
    EXPECT_FALSE(sched.interval_missed(t));
    EXPECT_FALSE(sched.node_sample_lost(3, t));
    EXPECT_FALSE(sched.prologue_lost(t));
    EXPECT_FALSE(sched.epilogue_lost(t));
    EXPECT_FALSE(sched.record_corrupted(t));
  }
}

TEST(FaultSchedule, ZeroRatesNeverFire) {
  FaultConfig cfg;
  cfg.enabled = true;  // enabled but every rate left at zero
  const FaultSchedule sched(cfg);
  for (std::int64_t t = 0; t < 500; ++t) {
    EXPECT_FALSE(sched.node_crashes(0, t));
    EXPECT_FALSE(sched.interval_missed(t));
    EXPECT_FALSE(sched.node_sample_lost(0, t));
  }
}

TEST(FaultSchedule, DeterministicAndOrderIndependent) {
  const FaultSchedule a(all_on());
  const FaultSchedule b(all_on());
  // Query b in the reverse order: answers must still match a's.
  std::vector<bool> fwd;
  for (std::int64_t t = 0; t < 300; ++t) {
    fwd.push_back(a.node_sample_lost(static_cast<int>(t % 7), t));
  }
  for (std::int64_t t = 299; t >= 0; --t) {
    EXPECT_EQ(b.node_sample_lost(static_cast<int>(t % 7), t),
              fwd[static_cast<std::size_t>(t)]);
  }
}

TEST(FaultSchedule, SeedChangesTheSchedule) {
  FaultConfig other = all_on();
  other.seed ^= 0x1234;
  const FaultSchedule a(all_on());
  const FaultSchedule b(other);
  int differing = 0;
  for (std::int64_t t = 0; t < 1000; ++t) {
    differing += a.interval_missed(t) != b.interval_missed(t);
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultSchedule, DomainsAreIndependent) {
  // The same coordinates through different fault domains must not be
  // correlated: a missed interval must not imply a lost node sample.
  const FaultSchedule sched(all_on());
  int both = 0, misses = 0;
  for (std::int64_t t = 0; t < 5000; ++t) {
    const bool miss = sched.interval_missed(t);
    misses += miss;
    both += miss && sched.node_sample_lost(0, t);
  }
  ASSERT_GT(misses, 0);
  // P(both) ~ 0.01 of 5000 = ~50; perfect correlation would give ~500.
  EXPECT_LT(both, misses / 2);
}

TEST(FaultSchedule, RatesMatchProbabilities) {
  const FaultSchedule sched(all_on());
  int hits = 0;
  const int trials = 20000;
  for (std::int64_t t = 0; t < trials; ++t) {
    hits += sched.node_sample_lost(1, t);
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(FaultSchedule, CrashRateMatchesPerDayExpectation) {
  FaultConfig cfg = all_on();
  cfg.node_crashes_per_node_day = 0.5;
  const FaultSchedule sched(cfg);
  int crashes = 0;
  const std::int64_t days = 2000;
  for (std::int64_t t = 0; t < days * 96; ++t) {
    crashes += sched.node_crashes(0, t);
  }
  const double per_day = static_cast<double>(crashes) / days;
  EXPECT_NEAR(per_day, 0.5, 0.05);
}

TEST(FaultSchedule, AttemptNumberVariesJobDraws) {
  FaultConfig cfg = all_on();
  cfg.prologue_loss_prob = 0.5;
  const FaultSchedule sched(cfg);
  int differing = 0;
  for (std::int64_t id = 0; id < 200; ++id) {
    differing += sched.prologue_lost(id, 0) != sched.prologue_lost(id, 1);
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultSchedule, RejectsInvalidConfig) {
  FaultConfig cfg = all_on();
  cfg.interval_miss_prob = 1.5;
  EXPECT_THROW(FaultSchedule{cfg}, std::invalid_argument);
  cfg = all_on();
  cfg.node_crashes_per_node_day = -1.0;
  EXPECT_THROW(FaultSchedule{cfg}, std::invalid_argument);
  cfg = all_on();
  cfg.reboot_downtime_intervals = 0;
  EXPECT_THROW(FaultSchedule{cfg}, std::invalid_argument);
}

TEST(FaultSchedule, ReferenceProfileIsValidAndEnabled) {
  const FaultConfig ref = FaultConfig::reference();
  EXPECT_TRUE(ref.enabled);
  EXPECT_GT(ref.node_crashes_per_node_day, 0.0);
  EXPECT_GT(ref.epilogue_loss_prob, 0.0);
  EXPECT_NO_THROW(FaultSchedule{ref});
}

TEST(FaultInjector, LogsOnlyWhenFaultsFire) {
  FaultConfig cfg = all_on();
  cfg.interval_miss_prob = 1.0;
  cfg.node_sample_loss_prob = 0.0;
  FaultInjector inject(cfg);
  EXPECT_TRUE(inject.miss_interval(0));
  EXPECT_TRUE(inject.miss_interval(1));
  EXPECT_EQ(inject.log().intervals_missed, 2);
  EXPECT_EQ(inject.log().node_samples_lost, 0);
}

TEST(FaultInjector, SideEffectNotesAccumulate) {
  FaultInjector inject(all_on());
  inject.note_node_down();
  inject.note_node_down();
  inject.note_job_killed(true);
  inject.note_job_killed(false);
  inject.note_job_requeued();
  EXPECT_EQ(inject.log().down_node_intervals, 2);
  EXPECT_EQ(inject.log().jobs_killed, 2);
  EXPECT_EQ(inject.log().jobs_killed_sans_prologue, 1);
  EXPECT_EQ(inject.log().jobs_requeued, 1);
}

TEST(CorruptRecords, DeterministicAndCountsMutations) {
  FaultConfig cfg = all_on();
  cfg.record_corruption_prob = 0.5;
  const FaultSchedule sched(cfg);
  std::string base = "header line\n";
  for (int i = 0; i < 40; ++i) {
    base += "I,1,2,3,4,5,6\n";
  }
  std::string a = base;
  std::string b = base;
  const std::int64_t na = corrupt_records(a, sched);
  const std::int64_t nb = corrupt_records(b, sched);
  EXPECT_EQ(na, nb);
  EXPECT_EQ(a, b);
  EXPECT_GT(na, 0);
  EXPECT_NE(a, base);
  // The header line is never touched.
  EXPECT_EQ(a.substr(0, a.find('\n')), "header line");
}

TEST(CorruptRecords, ZeroProbabilityLeavesFileAlone) {
  FaultConfig cfg = all_on();
  cfg.record_corruption_prob = 0.0;
  const FaultSchedule sched(cfg);
  std::string text = "header\nI,1,2\nI,3,4\n";
  const std::string before = text;
  EXPECT_EQ(corrupt_records(text, sched), 0);
  EXPECT_EQ(text, before);
}

}  // namespace
}  // namespace p2sim::fault
