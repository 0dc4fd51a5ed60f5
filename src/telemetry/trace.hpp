// Tracing spans: where the pipeline's time goes, on both clocks.
//
// Every span carries two timelines: *simulated* time (the campaign clock —
// bit-stable across identical runs) and *wall* time (how long the simulator
// itself took — inherently nondeterministic).  The Chrome trace_event
// export places spans on the simulated timeline (`ts`/`dur`), so a trace
// loads into chrome://tracing or Perfetto as a picture of the campaign;
// wall-clock figures ride along under clearly segregated `wall_*` args and
// can be omitted entirely for byte-identical exports.
//
// Spans are RAII (`Span`) and nest; category/name must be string literals
// (the tracer stores the pointers).  A span on a null tracer costs one
// branch and touches nothing — that is the disabled path.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::telemetry {

/// The simulator's one sanctioned wall-clock read: microseconds on
/// std::chrono::steady_clock.  Wall time is inherently nondeterministic,
/// so tools/detlint.py confines clock access to this module; callers tag
/// anything derived from it as wall-clock data (trace `wall_*` args, the
/// registry's wall_clock metric flag) so byte-identical exports can strip
/// it.
/// Thread-safe (a bare steady_clock read), so parallel measurement workers
/// may stamp wall durations with it; determinism is unaffected because
/// every consumer tags the result as wall-clock data.
P2SIM_PAR_SAFE std::int64_t wall_now_us();

struct TraceEvent {
  const char* category = "";
  const char* name = "";
  /// Simulated-time window (seconds on the campaign clock).
  double sim_begin_s = 0.0;
  double sim_end_s = 0.0;
  /// Wall-clock window (microseconds on std::chrono::steady_clock) —
  /// segregated from the simulated fields and never mixed into them.
  std::int64_t wall_begin_us = 0;
  std::int64_t wall_end_us = 0;
  /// Nesting depth at open (1 = top level).
  int depth = 0;

  struct Arg {
    const char* key = "";
    double value = 0.0;
  };
  std::vector<Arg> args;
};

class Tracer {
 public:
  /// `max_events` bounds memory on long campaigns; spans beyond the cap
  /// are counted in dropped() instead of silently vanishing.
  explicit Tracer(std::size_t max_events = 1u << 20);

  /// Opens a span; returns a handle (0 when dropped by the cap — still a
  /// valid argument to end()/arg(), which then no-op).
  std::size_t begin(const char* category, const char* name,
                    double sim_begin_s);
  void end(std::size_t handle, double sim_end_s);
  void arg(std::size_t handle, const char* key, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  int open_depth() const { return depth_; }

  /// Chrome trace_event JSON ("X" complete events on the simulated
  /// timeline, ts/dur in microseconds).  With include_wall false the
  /// wall-clock args are omitted and the export is bit-stable across
  /// identical campaigns.
  std::string chrome_trace_json(bool include_wall = true) const;

  /// The number of leading events no open span can change any more (all
  /// of them while no span is open): the prefix the checkpoint journal may
  /// carry, since end() and arg() only ever touch an open span's event.
  std::size_t settled() const;

  /// Checkpoint support: the recorded event stream round-trips (wall-clock
  /// fields included, faithfully — they stay segregated in the export).
  /// Restored category/name/key strings are interned in an owned pool, so
  /// the string-literal lifetime contract still holds for future spans.
  /// The settled prefix travels in the checkpoint journal (save_journal
  /// writes events [from, settled()), replay_journal appends one such
  /// section); save_ckpt writes the counters, the open spans and the
  /// events from `journaled` on, and restore_ckpt appends those after the
  /// replayed journal.
  void save_ckpt(util::CkptWriter& w, std::size_t journaled) const;
  void restore_ckpt(util::CkptReader& r);
  void save_journal(util::CkptWriter& w, std::size_t from) const;
  void replay_journal(util::CkptReader& r);

 private:
  const char* intern(const std::string& s);
  void append_event(util::CkptReader& r);

  std::vector<TraceEvent> events_;
  /// Handles of the spans begun and not yet ended, oldest first.
  std::vector<std::size_t> open_;
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  int depth_ = 0;
  /// Owned backing for strings revived from a checkpoint (deque: stable
  /// element addresses under growth).
  std::deque<std::string> interned_;
};

/// RAII span.  Default-constructed (or on a null tracer) it is inert.
/// Close with the simulated end time; a span destroyed while open closes
/// with zero simulated duration (wall duration is still recorded).
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, const char* category, const char* name,
       double sim_begin_s);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void arg(const char* key, double value);
  void close(double sim_end_s);
  bool open() const { return open_; }
  explicit operator bool() const { return tracer_ != nullptr; }

  /// Checkpoint support for long-lived spans (the driver's day span stays
  /// open across checkpoints): the handle and begin time round-trip, and
  /// adopt_ckpt revives the span against the restored tracer, whose event
  /// stream was rebuilt with identical handles.
  void save_ckpt(util::CkptWriter& w) const {
    w.put_u64(handle_);
    w.put_f64(sim_begin_s_);
    w.put_bool(open_);
  }
  static Span adopt_ckpt(Tracer* tracer, util::CkptReader& r) {
    Span s;
    s.handle_ = static_cast<std::size_t>(r.read_u64("span.handle"));
    s.sim_begin_s_ = r.read_f64("span.sim_begin_s");
    const bool was_open = r.read_bool("span.open");
    s.tracer_ = tracer;
    s.open_ = was_open && tracer != nullptr;
    return s;
  }

 private:
  Tracer* tracer_ = nullptr;
  std::size_t handle_ = 0;
  double sim_begin_s_ = 0.0;
  bool open_ = false;
};

}  // namespace p2sim::telemetry
