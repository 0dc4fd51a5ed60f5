#include "src/telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

namespace p2sim::telemetry {

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Minimal JSON string escape (names are string literals, but a stray
/// quote must not produce an unloadable trace).
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

void append_us(std::string& out, double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  out += buf;
}

void append_value(std::string& out, double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "\"%s\"", v > 0 ? "+Inf" : "-Inf");
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void save_event(util::CkptWriter& w, const TraceEvent& ev) {
  w.put_str(ev.category);
  w.put_str(ev.name);
  w.put_f64(ev.sim_begin_s);
  w.put_f64(ev.sim_end_s);
  w.put_i64(ev.wall_begin_us);
  w.put_i64(ev.wall_end_us);
  w.put_i32(ev.depth);
  w.put_u64(ev.args.size());
  for (const TraceEvent::Arg& a : ev.args) {
    w.put_str(a.key);
    w.put_f64(a.value);
  }
}

}  // namespace

Tracer::Tracer(std::size_t max_events) : max_events_(max_events) {}

std::size_t Tracer::begin(const char* category, const char* name,
                          double sim_begin_s) {
  ++depth_;
  if (events_.size() >= max_events_) {
    ++dropped_;
    return 0;
  }
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.sim_begin_s = sim_begin_s;
  ev.sim_end_s = sim_begin_s;
  ev.wall_begin_us = wall_now_us();
  ev.wall_end_us = ev.wall_begin_us;
  ev.depth = depth_;
  events_.push_back(std::move(ev));
  open_.push_back(events_.size());
  return events_.size();  // index + 1
}

void Tracer::end(std::size_t handle, double sim_end_s) {
  if (depth_ > 0) --depth_;
  if (handle == 0 || handle > events_.size()) return;
  // Spans nearly always end innermost-first, so search from the back.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it == handle) {
      open_.erase(std::next(it).base());
      break;
    }
  }
  TraceEvent& ev = events_[handle - 1];
  ev.sim_end_s = sim_end_s;
  ev.wall_end_us = wall_now_us();
}

void Tracer::arg(std::size_t handle, const char* key, double value) {
  if (handle == 0 || handle > events_.size()) return;
  events_[handle - 1].args.push_back({key, value});
}

std::string Tracer::chrome_trace_json(bool include_wall) const {
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    append_escaped(out, ev.name);
    out += "\",\"cat\":\"";
    append_escaped(out, ev.category);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    append_us(out, ev.sim_begin_s);
    out += ",\"dur\":";
    append_us(out, ev.sim_end_s - ev.sim_begin_s);
    out += ",\"args\":{\"depth\":";
    append_value(out, ev.depth);
    for (const TraceEvent::Arg& a : ev.args) {
      out += ",\"";
      append_escaped(out, a.key);
      out += "\":";
      append_value(out, a.value);
    }
    if (include_wall) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ",\"wall_us\":%lld",
                    static_cast<long long>(ev.wall_end_us -
                                           ev.wall_begin_us));
      out += buf;
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

const char* Tracer::intern(const std::string& s) {
  for (const std::string& have : interned_) {
    if (have == s) return have.c_str();
  }
  interned_.push_back(s);
  return interned_.back().c_str();
}

std::size_t Tracer::settled() const {
  std::size_t n = events_.size();
  for (std::size_t handle : open_) n = std::min(n, handle - 1);
  return n;
}

void Tracer::append_event(util::CkptReader& r) {
  TraceEvent ev;
  ev.category = intern(r.read_str("tracer.category"));
  ev.name = intern(r.read_str("tracer.name"));
  ev.sim_begin_s = r.read_f64("tracer.sim_begin");
  ev.sim_end_s = r.read_f64("tracer.sim_end");
  ev.wall_begin_us = r.read_i64("tracer.wall_begin");
  ev.wall_end_us = r.read_i64("tracer.wall_end");
  ev.depth = r.read_i32("tracer.event_depth");
  std::uint64_t na = r.read_u64("tracer.num_args");
  for (std::uint64_t j = 0; j < na; ++j) {
    const char* key = intern(r.read_str("tracer.arg_key"));
    ev.args.push_back({key, r.read_f64("tracer.arg_value")});
  }
  events_.push_back(std::move(ev));
}

void Tracer::save_ckpt(util::CkptWriter& w, std::size_t journaled) const {
  w.put_u64(dropped_);
  w.put_i32(depth_);
  w.put_u64(open_.size());
  for (std::size_t handle : open_) w.put_u64(handle);
  w.put_u64(events_.size() - journaled);
  for (std::size_t i = journaled; i < events_.size(); ++i) {
    save_event(w, events_[i]);
  }
}

void Tracer::restore_ckpt(util::CkptReader& r) {
  dropped_ = r.read_u64("tracer.dropped");
  depth_ = r.read_i32("tracer.depth");
  open_.clear();
  const std::uint64_t num_open = r.read_u64("tracer.open_spans");
  for (std::uint64_t i = 0; i < num_open; ++i) {
    open_.push_back(static_cast<std::size_t>(r.read_u64("tracer.open_span")));
  }
  const std::uint64_t n = r.read_u64("tracer.events");
  for (std::uint64_t i = 0; i < n; ++i) append_event(r);
}

void Tracer::save_journal(util::CkptWriter& w, std::size_t from) const {
  const std::size_t to = settled();
  w.put_u64(from);
  w.put_u64(to - from);
  for (std::size_t i = from; i < to; ++i) save_event(w, events_[i]);
}

void Tracer::replay_journal(util::CkptReader& r) {
  if (util::journal_section_restarts(r.read_u64("tracer.events"),
                                     events_.size(), "tracer.events")) {
    events_.clear();
  }
  const std::uint64_t n = r.read_u64("tracer.events");
  for (std::uint64_t i = 0; i < n; ++i) append_event(r);
}

Span::Span(Tracer* tracer, const char* category, const char* name,
           double sim_begin_s)
    : tracer_(tracer), sim_begin_s_(sim_begin_s) {
  if (tracer_ == nullptr) return;
  handle_ = tracer_->begin(category, name, sim_begin_s);
  open_ = true;
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      handle_(other.handle_),
      sim_begin_s_(other.sim_begin_s_),
      open_(other.open_) {
  other.tracer_ = nullptr;
  other.open_ = false;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    if (open_) close(sim_begin_s_);
    tracer_ = other.tracer_;
    handle_ = other.handle_;
    sim_begin_s_ = other.sim_begin_s_;
    open_ = other.open_;
    other.tracer_ = nullptr;
    other.open_ = false;
  }
  return *this;
}

Span::~Span() {
  if (open_) close(sim_begin_s_);
}

void Span::arg(const char* key, double value) {
  if (tracer_ != nullptr && open_) tracer_->arg(handle_, key, value);
}

void Span::close(double sim_end_s) {
  if (tracer_ == nullptr || !open_) return;
  tracer_->end(handle_, sim_end_s);
  open_ = false;
}

}  // namespace p2sim::telemetry
