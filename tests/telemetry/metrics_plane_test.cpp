// Lock-free metrics plane contracts: exact concurrent counting, seqlock
// coherence of histogram reads under write fire, lock-free registry
// snapshots racing registration, and Prometheus exposition conformance of
// the renderer.
#include "src/telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace p2sim::telemetry {
namespace {

TEST(MetricsPlane, ConcurrentCounterIncrementsAreExact) {
  Registry reg;
  Counter& c = reg.counter("p2sim_test_plane_total", "concurrent bumps");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPer = 100000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPer; ++i) c.inc();
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(c.value(), kThreads * kPer);
}

TEST(MetricsPlane, ConcurrentGaugeAddsAreExact) {
  Registry reg;
  Gauge& g = reg.gauge("p2sim_test_plane_gauge", "concurrent adds");
  constexpr int kThreads = 8;
  constexpr int kPer = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&g] {
      for (int i = 0; i < kPer; ++i) g.add(1.0);
    });
  }
  for (std::thread& t : writers) t.join();
  // Integer-valued doubles below 2^53: every add is exact regardless of
  // interleaving, so the total is too.
  EXPECT_EQ(g.value(), static_cast<double>(kThreads * kPer));
}

TEST(MetricsPlane, HistogramReadsAreCoherentUnderWriteFire) {
  Registry reg;
  Histogram& h = reg.histogram("p2sim_test_plane_seconds", "seqlock probe",
                               {0.25, 0.5, 0.75});
  constexpr int kWriters = 4;
  constexpr int kPer = 50000;
  std::atomic<bool> go{true};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&h, &go, &torn] {
      std::vector<std::uint64_t> counts;
      std::uint64_t n = 0;
      double sum = 0.0;
      while (go.load(std::memory_order_relaxed)) {
        h.read_coherent(&counts, &n, &sum);
        std::uint64_t total = 0;
        for (std::uint64_t c : counts) total += c;
        // The seqlock invariant: bucket totals and the count are from one
        // writer-quiescent window, so they always agree.
        if (total != n) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      for (int i = 0; i < kPer; ++i) {
        h.observe(static_cast<double>((i + w) % 10) / 10.0);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  go.store(false, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kWriters * kPer));
  std::uint64_t total = 0;
  for (std::uint64_t c : h.bucket_counts()) total += c;
  EXPECT_EQ(total, h.count());
}

TEST(MetricsPlane, SnapshotNeverBlocksOnRegistration) {
  Registry reg;
  reg.counter("p2sim_test_plane_seed_total", "pre-registered");
  std::atomic<bool> go{true};
  std::thread registrar([&reg, &go] {
    for (int i = 0; i < 500; ++i) {
      reg.counter("p2sim_test_plane_r" + std::to_string(i) + "_total",
                  "registered mid-scrape")
          .inc();
    }
    go.store(false, std::memory_order_relaxed);
  });
  std::size_t last = 0;
  while (go.load(std::memory_order_relaxed)) {
    const MetricsSnapshot snap = reg.snapshot();
    // Present entries are fully materialized and sorted by name.
    ASSERT_GE(snap.size(), last);
    ASSERT_GE(snap.size(), 1u);
    for (std::size_t i = 1; i < snap.size(); ++i) {
      ASSERT_LT(snap[i - 1].name, snap[i].name);
    }
    last = snap.size();
  }
  registrar.join();
  EXPECT_EQ(reg.snapshot().size(), 501u);
}

TEST(MetricsPlane, PrometheusRenderingEscapesHelpText) {
  Registry reg;
  reg.counter("p2sim_test_plane_escaped_total",
              "line one\nline two with a \\ backslash");
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("line one\\nline two with a \\\\ backslash"),
            std::string::npos);
  // The raw newline must not have leaked into the exposition stream.
  EXPECT_EQ(text.find("line one\nline two"), std::string::npos);
}

TEST(MetricsPlane, PrometheusHistogramFamilyIsComplete) {
  Registry reg;
  Histogram& h = reg.histogram("p2sim_test_plane_hist_seconds",
                               "family completeness", {0.25, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("p2sim_test_plane_hist_seconds_bucket{le=\"0.25\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("p2sim_test_plane_hist_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("p2sim_test_plane_hist_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("p2sim_test_plane_hist_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("p2sim_test_plane_hist_seconds_sum"),
            std::string::npos);
}

TEST(MetricsPlane, SnapshotAllocatesNoMetricObjects) {
  Registry reg;
  reg.counter("p2sim_test_plane_quiet_total", "no allocations on scrape");
  reg.histogram("p2sim_test_plane_quiet_seconds", "ditto", {1.0});
  const std::uint64_t before = metrics_created();
  for (int i = 0; i < 100; ++i) {
    (void)reg.snapshot();
    (void)reg.prometheus_text();
    (void)reg.jsonl();
  }
  EXPECT_EQ(metrics_created(), before);
}

}  // namespace
}  // namespace p2sim::telemetry
