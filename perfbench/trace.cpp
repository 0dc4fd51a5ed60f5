#include "perfbench/trace.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "perfbench/bench.hpp"
#include "src/workload/checkpoint.hpp"

namespace p2sim::perfbench {

int Tracer::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  // Aggregate spans sit on a track of their own per run: they carry totals,
  // not moments, so they must not overlap the timeline of real calls.
  constexpr int kAggregateTrack = 100000;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%d,"
                  "\"aggregate\":%s}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                  (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                  s.aggregate ? kAggregateTrack + s.run : s.run, i, s.parent,
                  s.run, s.aggregate ? "true" : "false");
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<std::pair<std::string, double>> Tracer::self_time_by_layer(
    const std::function<bool(const Span&)>& keep) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (keep(spans_[i])) by_layer[spans_[i].layer] += self[i];
  }
  std::vector<std::pair<std::string, double>> rows(by_layer.begin(),
                                                   by_layer.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return rows;
}

namespace {

// The driver's hook is a plain function pointer, so the recorder's state
// is file-global; the hook is called only from the campaign's serial path.
struct CkptLog {
  std::string dir;
  double last_interval_end = 0.0;
  double mid = 0.0;
  std::vector<CkptSpan> spans;
};
CkptLog g_log;

void on_progress(const char* point, std::int64_t value) {
  const std::string_view p(point);
  if (p == "interval-end") {
    g_log.last_interval_end = now_s();
  } else if (p == "ckpt-mid-write") {
    g_log.mid = now_s();
  } else if (p == "ckpt-committed") {
    CkptSpan s;
    s.start = g_log.last_interval_end;
    s.mid = g_log.mid;
    s.end = now_s();
    struct stat st {};
    const std::string path =
        g_log.dir + "/" + workload::checkpoint_file_name(value);
    if (::stat(path.c_str(), &st) == 0) s.bytes = st.st_size;
    g_log.spans.push_back(s);
  }
}

}  // namespace

CkptRecorder::CkptRecorder(const std::string& dir) {
  g_log = CkptLog{};
  g_log.dir = dir;
  workload::set_checkpoint_test_hook(&on_progress);
}

CkptRecorder::~CkptRecorder() { workload::set_checkpoint_test_hook(nullptr); }

std::vector<CkptSpan> CkptRecorder::spans() const { return g_log.spans; }

}  // namespace p2sim::perfbench
