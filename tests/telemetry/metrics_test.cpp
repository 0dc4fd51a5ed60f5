// Registry semantics: counter monotonicity, name validation, kind clashes,
// histogram bucket boundaries and the exact export formats.
#include "src/telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/util/ckpt.hpp"

namespace p2sim::telemetry {
namespace {

TEST(Metrics, CounterIsMonotone) {
  Registry reg;
  Counter& c = reg.counter("p2sim_test_events_total", "test");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Re-registration under the same name is idempotent: same object, value
  // preserved.
  EXPECT_EQ(&reg.counter("p2sim_test_events_total", "test"), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, NameValidation) {
  EXPECT_TRUE(valid_metric_name("p2sim_core_run_cycles"));
  EXPECT_TRUE(valid_metric_name("p2sim_x9"));
  EXPECT_FALSE(valid_metric_name("p2sim_"));           // empty suffix
  EXPECT_FALSE(valid_metric_name("core_run_cycles"));  // missing prefix
  EXPECT_FALSE(valid_metric_name("p2sim_BadCase"));
  EXPECT_FALSE(valid_metric_name("p2sim_dash-name"));

  Registry reg;
  EXPECT_THROW(reg.counter("bad_name", "x"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("p2sim_Upper", "x"), std::invalid_argument);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Metrics, KindClashThrows) {
  Registry reg;
  reg.counter("p2sim_test_metric", "as counter");
  EXPECT_THROW(reg.gauge("p2sim_test_metric", "as gauge"),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("p2sim_test_metric", "as histogram", {1.0}),
               std::invalid_argument);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  // Prometheus semantics: upper bounds are inclusive, +Inf catches rest.
  h.observe(0.5);  // le=1
  h.observe(1.0);  // le=1 (inclusive)
  h.observe(1.5);  // le=2
  h.observe(2.0);  // le=2 (inclusive)
  h.observe(4.0);  // le=4
  h.observe(9.0);  // +Inf
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, ExponentialBuckets) {
  const auto b = exponential_buckets(1e3, 10.0, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0], 1e3);
  EXPECT_DOUBLE_EQ(b[1], 1e4);
  EXPECT_DOUBLE_EQ(b[2], 1e5);
  EXPECT_THROW(exponential_buckets(0.0, 10.0, 3), std::invalid_argument);
  EXPECT_THROW(exponential_buckets(1.0, 1.0, 3), std::invalid_argument);
}

TEST(Metrics, PrometheusTextGolden) {
  Registry reg;
  reg.counter("p2sim_test_events_total", "Events seen").inc(3);
  reg.gauge("p2sim_test_depth", "Queue depth").set(2.5);
  Histogram& h =
      reg.histogram("p2sim_test_latency", "Latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);
  const char* expected =
      "# HELP p2sim_test_depth Queue depth\n"
      "# TYPE p2sim_test_depth gauge\n"
      "p2sim_test_depth 2.5\n"
      "# HELP p2sim_test_events_total Events seen\n"
      "# TYPE p2sim_test_events_total counter\n"
      "p2sim_test_events_total 3\n"
      "# HELP p2sim_test_latency Latency\n"
      "# TYPE p2sim_test_latency histogram\n"
      "p2sim_test_latency_bucket{le=\"1\"} 1\n"
      "p2sim_test_latency_bucket{le=\"2\"} 2\n"
      "p2sim_test_latency_bucket{le=\"+Inf\"} 3\n"
      "p2sim_test_latency_sum 101\n"
      "p2sim_test_latency_count 3\n";
  EXPECT_EQ(reg.prometheus_text(), expected);
}

TEST(Metrics, JsonlExcludesWallClockByDefault) {
  Registry reg;
  reg.counter("p2sim_test_sim_total", "simulated").inc(7);
  reg.gauge("p2sim_test_wall_seconds", "wall", /*wall_clock=*/true).set(1.25);
  const std::string sim_only = reg.jsonl();
  EXPECT_NE(sim_only.find("p2sim_test_sim_total"), std::string::npos);
  EXPECT_EQ(sim_only.find("p2sim_test_wall_seconds"), std::string::npos);
  const std::string all = reg.jsonl(/*include_wall_clock=*/true);
  EXPECT_NE(all.find("p2sim_test_wall_seconds"), std::string::npos);
  EXPECT_NE(all.find("\"wall_clock\":true"), std::string::npos);
}

TEST(Metrics, MetricsCreatedCountsConstructions) {
  const std::uint64_t before = metrics_created();
  Registry reg;
  reg.counter("p2sim_test_a_total", "a");
  reg.gauge("p2sim_test_b", "b");
  reg.histogram("p2sim_test_c", "c", {1.0});
  EXPECT_EQ(metrics_created() - before, 3u);
  // Idempotent re-registration allocates nothing further.
  reg.counter("p2sim_test_a_total", "a");
  EXPECT_EQ(metrics_created() - before, 3u);
}

TEST(Metrics, RestoreKeepsWallClockEntriesAndEveryReference) {
  Registry saved;
  saved.counter("p2sim_test_sim_total", "simulated").inc(5);
  saved.counter("p2sim_test_wall_total", "wall", /*wall_clock=*/true).inc(7);
  saved.gauge("p2sim_test_wall_only", "wall", /*wall_clock=*/true).set(2.5);
  util::CkptWriter w;
  saved.save_ckpt(w);

  // A process that registered its own wall-clock counter and a
  // simulated-time counter before resuming, and holds references to both.
  Registry reg;
  Counter& wall = reg.counter("p2sim_test_wall_total", "wall", true);
  wall.inc(2);
  Counter& stale = reg.counter("p2sim_test_stale_total", "simulated");
  stale.inc(1);
  util::CkptReader r(w.bytes());
  reg.restore_ckpt(r);
  r.expect_end("registry");

  EXPECT_EQ(reg.counter("p2sim_test_sim_total", "simulated").value(), 5u);
  EXPECT_EQ(reg.gauge("p2sim_test_wall_only", "wall", true).value(), 2.5);
  EXPECT_FALSE(reg.contains("p2sim_test_stale_total"));
  // The process's own wall-clock counter kept its value and stays live.
  wall.inc();
  EXPECT_EQ(reg.counter("p2sim_test_wall_total", "wall", true).value(), 3u);
  // A retired entry is still a valid object; it is just not exported.
  stale.inc();
  EXPECT_EQ(stale.value(), 2u);
  EXPECT_EQ(reg.size(), 3u);
}

}  // namespace
}  // namespace p2sim::telemetry
