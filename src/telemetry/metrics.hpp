// Metrics registry: the measurement pipeline's own counters.
//
// Bergeron could only discover after the fact that 240 of 270 days had been
// lost to the collection stack; a self-observing pipeline counts its own
// work as it runs.  This registry holds three metric kinds — monotone
// counters, gauges and fixed-bucket histograms — keyed by Prometheus-style
// names (`^p2sim_[a-z0-9_]+$`, enforced at registration and by
// tools/lint_events.py), and exports them as Prometheus text format and as
// JSONL.
//
// Concurrency model (the always-on monitoring plane): the writer hot path
// and N scraping readers never share a lock.
//   - Every metric value lives in std::atomic storage; writers use relaxed
//     increments (a counter bump is one uncontended fetch_add).
//   - A histogram keeps its buckets/count/sum coherent for readers with a
//     per-histogram seqlock: rare concurrent writers serialize on an odd
//     sequence, readers retry on a torn window.  Readers never block
//     writers and vice versa.
//   - The registry itself uses two-level publication: registration
//     (rare, mutex-guarded) republishes an immutable snapshot list;
//     scrapes walk the published list with one acquire load and never
//     touch the map or the mutex.  Retired lists
//     stay alive until the Registry dies, so a reader mid-walk is always
//     safe.  restore_ckpt likewise retires the entries it replaces
//     rather than destroying them.
//
// Determinism contract: metrics derived from simulated quantities are
// bit-stable across identical campaigns.  Metrics fed from wall-clock
// measurements must be registered with `wall_clock = true`; the JSONL
// export excludes them by default so a telemetry dump of simulated-time
// metrics is byte-identical between identical runs.
//
// Registration is idempotent: calling `counter(name, ...)` again returns
// the existing instance (the source-level lint additionally requires each
// metric name literal to appear at exactly one registration site, so a
// name cannot drift between meanings).  Registering the same name as a
// different kind throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::telemetry {

/// Process-wide count of metric objects ever constructed.  The overhead
/// guard tests assert this stays flat across a telemetry-disabled campaign
/// *and* across the scrape path: serving /metrics must allocate no metric
/// objects.
std::uint64_t metrics_created();

/// True when `name` matches `^p2sim_[a-z0-9_]+$`.
bool valid_metric_name(std::string_view name);

/// Monotonically increasing event count.  No decrement exists by design.
class Counter {
 public:
  Counter();
  void inc(std::uint64_t n = 1) {
    cval_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cval_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> cval_{0};
};

/// A value that goes up and down (queue depth, coverage fraction).
class Gauge {
 public:
  Gauge();
  void set(double v) { gval_.store(v, std::memory_order_relaxed); }
  void add(double d) { gval_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return gval_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> gval_{0.0};
};

/// Fixed-bucket histogram with Prometheus semantics: `upper_bounds` are
/// inclusive bucket upper bounds, and an implicit +Inf bucket catches the
/// rest.  Bounds are fixed at registration — no re-bucketing mid-campaign.
///
/// observe() serializes concurrent writers through the per-histogram
/// seqlock; read_coherent() gives readers a coherent (buckets, count, sum)
/// triple without ever blocking a writer for more than one retry window.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  /// Coherent with respect to concurrent observe() calls.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return hnum_.load(std::memory_order_relaxed); }
  double sum() const { return hsum_.load(std::memory_order_relaxed); }

  /// Coherent triple: sum(counts) == count and sum matches, even while
  /// writers are observing concurrently.
  void read_coherent(std::vector<std::uint64_t>* counts, std::uint64_t* count,
                     double* sum) const;

  /// Checkpoint support: replaces the observation counts and the running
  /// sum (an order-dependent double accumulation, so a checkpoint restores
  /// it rather than replaying observations).  `counts` holds one entry per
  /// bucket, +Inf included.
  void restore(const std::vector<std::uint64_t>& counts, std::uint64_t count,
               double sum);

 private:
  std::uint64_t writer_lock();
  void writer_unlock(std::uint64_t entry_seq);

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> hbkt_;
  std::atomic<std::uint64_t> hnum_{0};
  std::atomic<double> hsum_{0.0};
  // Seqlock word: odd while a writer mutates, bumped by 2 per mutation.
  // Mutable: a reader's validation step is an RMW (see sample()).
  mutable std::atomic<std::uint64_t> hseq_{0};
};

/// `n` exponential bucket bounds: start, start*factor, start*factor^2, ...
std::vector<double> exponential_buckets(double start, double factor, int n);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// A plain-value copy of one metric, decoupled from live storage; what a
/// scrape works with after the one lock-free walk of the registry.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  bool wall_clock = false;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t observations = 0;
  double sum = 0.0;
};

using MetricsSnapshot = std::vector<MetricSample>;

/// JSON rendering of a double (Inf has no JSON literal; it renders as a
/// string).  Shared by the JSONL export and the monitoring endpoints.
std::string json_double(double v);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) a metric.  Throws std::invalid_argument on a
  /// malformed name or a kind clash with an existing registration.
  /// Thread-safe; the returned reference stays valid for the Registry's
  /// lifetime.
  Counter& counter(std::string_view name, std::string_view help,
                   bool wall_clock = false);
  Gauge& gauge(std::string_view name, std::string_view help,
               bool wall_clock = false);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> upper_bounds,
                       bool wall_clock = false);

  std::size_t size() const;
  bool contains(std::string_view name) const;

  /// Plain-value copy of every registered metric, in name order.  Entirely
  /// lock-free: one acquire load of the published registration list, then
  /// relaxed/seqlocked value reads.  Never allocates metric objects.
  MetricsSnapshot snapshot() const;

  /// Prometheus text exposition format, metrics in name order.
  std::string prometheus_text() const;

  /// One JSON object per metric per line, in name order.  Wall-clock
  /// metrics are excluded unless asked for, so the default export is
  /// bit-stable across identical simulated campaigns.
  std::string jsonl(bool include_wall_clock = false) const;
  static std::string render_jsonl(const MetricsSnapshot& snap,
                                  bool include_wall_clock);

  /// Checkpoint support: every registered metric (name, kind, help,
  /// wall-clock flag and current value) round-trips, so a resumed
  /// campaign's exports are byte-identical to the uninterrupted run's.
  /// restore_ckpt replaces the simulated-time metrics and keeps the
  /// wall-clock ones this process registered (with their values); the
  /// replaced entries are retired, never destroyed, so it may race a
  /// scrape and every reference a registration returned stays valid.
  void save_ckpt(util::CkptWriter& w) const;
  void restore_ckpt(util::CkptReader& r);

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    bool wall_clock = false;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  /// One published registration: name and entry live in the map, whose
  /// nodes are pointer-stable for the Registry's lifetime.
  struct View {
    const std::string* name = nullptr;
    const Entry* entry = nullptr;
  };
  using SnapList = std::vector<View>;

  /// Finds or creates a fully materialized entry; republishes on create.
  /// Caller must hold reg_mu_.
  Entry& entry_for(std::string_view name, std::string_view help,
                   MetricKind kind, bool wall_clock,
                   std::vector<double>* upper_bounds);
  void republish();

  mutable std::mutex reg_mu_;
  // std::map keeps exports in deterministic (sorted) name order, and its
  // nodes never move, so published Views stay valid across registrations.
  std::map<std::string, Entry, std::less<>> entries_
      P2SIM_GUARDED_BY(reg_mu_);
  // Every list ever published, newest last; retired lists are kept alive
  // (bounded by the registration count) so a concurrent reader can finish
  // walking one.
  std::vector<std::unique_ptr<const SnapList>> retired_
      P2SIM_GUARDED_BY(reg_mu_);
  // Entries restore_ckpt replaced, kept alive for the same reason.
  std::vector<std::map<std::string, Entry, std::less<>>> retired_entries_
      P2SIM_GUARDED_BY(reg_mu_);
  std::atomic<const SnapList*> snap_head_{nullptr};
};

}  // namespace p2sim::telemetry
