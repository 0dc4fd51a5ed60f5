#include "src/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace p2sim::telemetry {
namespace {

// Atomic since the monitoring plane constructs metrics from any thread;
// the counter still only feeds the overhead-guard tests.
std::atomic<std::uint64_t> g_metrics_created{0};

/// Round-trip double formatting: integers print bare, everything else with
/// enough digits to reconstruct the bits (so exports are reproducible).
std::string format_number(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else if (std::isinf(v)) {
    return v > 0 ? "+Inf" : "-Inf";
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// JSON has no Inf literal; histogram bounds export as a string there.
std::string json_number(double v) {
  if (std::isinf(v)) return v > 0 ? "\"+Inf\"" : "\"-Inf\"";
  return format_number(v);
}

/// Prometheus exposition escaping for HELP text: backslash and newline.
std::string escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Prometheus exposition escaping for label values: backslash, quote,
/// newline.
std::string escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::uint64_t metrics_created() {
  return g_metrics_created.load(std::memory_order_relaxed);
}

std::string json_double(double v) { return json_number(v); }

bool valid_metric_name(std::string_view name) {
  if (name.size() < 7 || name.substr(0, 6) != "p2sim_") return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

Counter::Counter() {
  g_metrics_created.fetch_add(1, std::memory_order_relaxed);
}

Gauge::Gauge() {
  g_metrics_created.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), hbkt_(bounds_.size() + 1) {
  g_metrics_created.fetch_add(1, std::memory_order_relaxed);
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram needs >= 1 bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram bounds must be strictly increasing");
  }
}

std::uint64_t Histogram::writer_lock() {
  // CAS the sequence from even to odd; a concurrent writer holds it odd,
  // so spin until the window opens.  Windows are a handful of relaxed
  // stores — no syscalls, no allocation — so the spin is short.  Returns
  // the even sequence the writer entered from.
  std::uint64_t s = hseq_.load(std::memory_order_relaxed);
  for (;;) {
    if ((s & 1U) == 0 &&
        hseq_.compare_exchange_weak(s, s + 1, std::memory_order_acquire)) {
      return s;
    }
    s = hseq_.load(std::memory_order_relaxed);
  }
}

void Histogram::writer_unlock(std::uint64_t entry_seq) {
  hseq_.store(entry_seq + 2, std::memory_order_release);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  const std::uint64_t entry = writer_lock();
  hbkt_[idx].fetch_add(1, std::memory_order_relaxed);
  hnum_.fetch_add(1, std::memory_order_relaxed);
  const double cur = hsum_.load(std::memory_order_relaxed);
  hsum_.store(cur + v, std::memory_order_relaxed);
  writer_unlock(entry);
}

void Histogram::read_coherent(std::vector<std::uint64_t>* counts,
                              std::uint64_t* count, double* sum) const {
  counts->assign(hbkt_.size(), 0);
  for (;;) {
    const std::uint64_t s1 = hseq_.load(std::memory_order_acquire);
    if ((s1 & 1U) != 0) continue;  // writer in the window; retry
    for (std::size_t i = 0; i < hbkt_.size(); ++i) {
      (*counts)[i] = hbkt_[i].load(std::memory_order_relaxed);
    }
    *count = hnum_.load(std::memory_order_relaxed);
    *sum = hsum_.load(std::memory_order_relaxed);
    // The validation read is an acq_rel RMW so the data loads above cannot
    // sink past it (release) nor float above s1 (acquire on entry).
    if (hseq_.fetch_add(0, std::memory_order_acq_rel) == s1) return;
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts;
  std::uint64_t n = 0;
  double s = 0.0;
  read_coherent(&counts, &n, &s);
  return counts;
}

std::vector<double> exponential_buckets(double start, double factor, int n) {
  if (start <= 0.0 || factor <= 1.0 || n < 1) {
    throw std::invalid_argument("exponential_buckets: bad parameters");
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  double b = start;
  for (int i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

Registry::Entry& Registry::entry_for(std::string_view name,
                                     std::string_view help, MetricKind kind,
                                     bool wall_clock,
                                     std::vector<double>* upper_bounds) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("metric name '" + std::string(name) +
                                "' does not match ^p2sim_[a-z0-9_]+$");
  }
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered with another kind");
    }
    return it->second;
  }
  // Materialize the metric object *before* publication so a lock-free
  // reader never sees a half-built entry.
  Entry e;
  e.kind = kind;
  e.help = std::string(help);
  e.wall_clock = wall_clock;
  switch (kind) {
    case MetricKind::kCounter:
      e.c = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e.g = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e.h = std::make_unique<Histogram>(std::move(*upper_bounds));
      break;
  }
  Entry& inserted =
      entries_.emplace(std::string(name), std::move(e)).first->second;
  republish();
  return inserted;
}

void Registry::republish() {
  auto next = std::make_unique<SnapList>();
  next->reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    next->push_back(View{&name, &e});
  }
  snap_head_.store(next.get(), std::memory_order_release);
  retired_.push_back(std::move(next));
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           bool wall_clock) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return *entry_for(name, help, MetricKind::kCounter, wall_clock, nullptr).c;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       bool wall_clock) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return *entry_for(name, help, MetricKind::kGauge, wall_clock, nullptr).g;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> upper_bounds,
                               bool wall_clock) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return *entry_for(name, help, MetricKind::kHistogram, wall_clock,
                    &upper_bounds)
              .h;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return entries_.size();
}

bool Registry::contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return entries_.find(name) != entries_.end();
}

MetricsSnapshot Registry::snapshot() const {
  const SnapList* list = snap_head_.load(std::memory_order_acquire);
  MetricsSnapshot out;
  if (list == nullptr) return out;
  out.reserve(list->size());
  for (const View& v : *list) {
    MetricSample s;
    s.name = *v.name;
    s.kind = v.entry->kind;
    s.help = v.entry->help;
    s.wall_clock = v.entry->wall_clock;
    switch (v.entry->kind) {
      case MetricKind::kCounter:
        s.counter_value = v.entry->c->value();
        break;
      case MetricKind::kGauge:
        s.gauge_value = v.entry->g->value();
        break;
      case MetricKind::kHistogram:
        s.bounds = v.entry->h->upper_bounds();
        v.entry->h->read_coherent(&s.bucket_counts, &s.observations,
                                  &s.sum);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Registry::prometheus_text() const {
  std::ostringstream os;
  for (const MetricSample& s : snapshot()) {
    os << "# HELP " << s.name << ' ' << escape_help(s.help) << '\n';
    os << "# TYPE " << s.name << ' ';
    switch (s.kind) {
      case MetricKind::kCounter:
        os << "counter\n" << s.name << ' ' << s.counter_value << '\n';
        break;
      case MetricKind::kGauge:
        os << "gauge\n"
           << s.name << ' ' << format_number(s.gauge_value) << '\n';
        break;
      case MetricKind::kHistogram: {
        os << "histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          cum += s.bucket_counts[i];
          os << s.name << "_bucket{le=\""
             << escape_label(format_number(s.bounds[i])) << "\"} " << cum
             << '\n';
        }
        cum += s.bucket_counts[s.bounds.size()];
        os << s.name << "_bucket{le=\"+Inf\"} " << cum << '\n';
        os << s.name << "_sum " << format_number(s.sum) << '\n';
        os << s.name << "_count " << s.observations << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::render_jsonl(const MetricsSnapshot& snap,
                                   bool include_wall_clock) {
  std::ostringstream os;
  for (const MetricSample& s : snap) {
    if (s.wall_clock && !include_wall_clock) continue;
    os << "{\"metric\":\"" << s.name << "\",";
    switch (s.kind) {
      case MetricKind::kCounter:
        os << "\"type\":\"counter\",\"value\":" << s.counter_value;
        break;
      case MetricKind::kGauge:
        os << "\"type\":\"gauge\",\"value\":" << json_number(s.gauge_value);
        break;
      case MetricKind::kHistogram: {
        os << "\"type\":\"histogram\",\"buckets\":[";
        for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
          if (i > 0) os << ',';
          const std::string le =
              i < s.bounds.size() ? json_number(s.bounds[i]) : "\"+Inf\"";
          os << "{\"le\":" << le << ",\"count\":" << s.bucket_counts[i]
             << '}';
        }
        os << "],\"sum\":" << json_number(s.sum)
           << ",\"count\":" << s.observations;
        break;
      }
    }
    if (s.wall_clock) os << ",\"wall_clock\":true";
    os << "}\n";
  }
  return os.str();
}

std::string Registry::jsonl(bool include_wall_clock) const {
  return render_jsonl(snapshot(), include_wall_clock);
}

void Histogram::save_ckpt(util::CkptWriter& w) const {
  std::vector<std::uint64_t> counts;
  std::uint64_t n = 0;
  double s = 0.0;
  read_coherent(&counts, &n, &s);
  for (std::uint64_t c : counts) w.put_u64(c);
  w.put_u64(n);
  w.put_f64(s);
}

void Histogram::restore_ckpt(util::CkptReader& r) {
  const std::uint64_t entry = writer_lock();
  for (std::size_t i = 0; i < hbkt_.size(); ++i) {
    hbkt_[i].store(r.read_u64("histogram.bucket"), std::memory_order_relaxed);
  }
  hnum_.store(r.read_u64("histogram.count"), std::memory_order_relaxed);
  hsum_.store(r.read_f64("histogram.sum"), std::memory_order_relaxed);
  writer_unlock(entry);
}

void Registry::save_ckpt(util::CkptWriter& w) const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  w.put_u64(entries_.size());
  for (const auto& [name, e] : entries_) {
    w.put_str(name);
    w.put_u8(static_cast<std::uint8_t>(e.kind));
    w.put_str(e.help);
    w.put_bool(e.wall_clock);
    switch (e.kind) {
      case MetricKind::kCounter:
        w.put_u64(e.c != nullptr ? e.c->value() : 0);
        break;
      case MetricKind::kGauge:
        w.put_f64(e.g != nullptr ? e.g->value() : 0.0);
        break;
      case MetricKind::kHistogram: {
        const auto& bounds = e.h->upper_bounds();
        w.put_u64(bounds.size());
        for (double b : bounds) w.put_f64(b);
        e.h->save_ckpt(w);
        break;
      }
    }
  }
}

void Registry::restore_ckpt(util::CkptReader& r) {
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    // Retire the simulated-time entries instead of destroying them, so a
    // concurrent scrape and every reference a registration returned stay
    // valid; wall-clock entries describe this process, not the campaign,
    // and stay registered with their values.
    std::map<std::string, Entry, std::less<>> live;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const auto next = std::next(it);
      if (it->second.wall_clock) live.insert(entries_.extract(it));
      it = next;
    }
    retired_entries_.push_back(std::move(entries_));
    entries_ = std::move(live);
    republish();
  }
  std::uint64_t n = r.read_u64("registry.entries");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.read_str("registry.name");
    const std::uint8_t raw_kind = r.read_u8("registry.kind");
    if (raw_kind > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      throw util::CkptError("registry.kind: unknown metric kind");
    }
    const MetricKind kind = static_cast<MetricKind>(raw_kind);
    const std::string help = r.read_str("registry.help");
    const bool wall = r.read_bool("registry.wall_clock");
    // A wall-clock metric this process already has keeps its own value.
    const bool keep = wall && contains(name);
    switch (kind) {
      case MetricKind::kCounter: {
        const std::uint64_t v = r.read_u64("registry.counter_value");
        if (!keep) counter(name, help, wall).inc(v);
        break;
      }
      case MetricKind::kGauge: {
        const double v = r.read_f64("registry.gauge_value");
        if (!keep) gauge(name, help, wall).set(v);
        break;
      }
      case MetricKind::kHistogram: {
        std::uint64_t nb = r.read_u64("registry.histogram_bounds");
        std::vector<double> bounds(static_cast<std::size_t>(nb));
        for (double& b : bounds) b = r.read_f64("registry.histogram_bound");
        if (keep) {
          Histogram(std::move(bounds)).restore_ckpt(r);
        } else {
          histogram(name, help, std::move(bounds), wall).restore_ckpt(r);
        }
        break;
      }
    }
  }
}

}  // namespace p2sim::telemetry
