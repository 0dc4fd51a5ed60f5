// Telemetry session: the one switch every instrumentation hook checks.
//
// A Session owns a metrics Registry and a Tracer.  Nothing is global by
// default: telemetry is *off* until a session is installed (ScopedSession),
// and every hook in the simulator reads `telemetry::current()` first — a
// single pointer load returning nullptr on the disabled path, so a
// campaign run without telemetry performs no metric allocations and no
// tracing work at all.
//
// Compile-time kill switch: configuring with -DP2SIM_TELEMETRY=OFF defines
// P2SIM_TELEMETRY_COMPILED=0, which pins current() to nullptr so the
// compiler deletes every hook body outright.  The library itself (registry,
// tracer, reporter) still builds either way.
#pragma once

#include <cstddef>

#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

#ifndef P2SIM_TELEMETRY_COMPILED
#define P2SIM_TELEMETRY_COMPILED 1
#endif

namespace p2sim::telemetry {

struct SessionConfig {
  /// Cap on recorded trace events (excess spans count as dropped).
  std::size_t max_trace_events = std::size_t{1} << 20;
};

class Session {
 public:
  explicit Session(const SessionConfig& cfg = {});

  Registry registry;
  Tracer tracer;

  /// Kernel-engine timeline (seconds): Level A kernel runs are not on the
  /// campaign clock, so their spans advance this deterministic cursor —
  /// one session, one engine timeline.
  double engine_clock_s = 0.0;
};

namespace detail {
extern Session* g_current;
}  // namespace detail

/// The installed session, or nullptr when telemetry is off (runtime or
/// compile time).  Hooks must treat nullptr as "do nothing".
inline Session* current() {
#if P2SIM_TELEMETRY_COMPILED
  return detail::g_current;
#else
  return nullptr;
#endif
}

/// Installs `session` as current for the enclosing scope; restores the
/// previous (usually null) session on destruction.
class ScopedSession {
 public:
  explicit ScopedSession(Session& session);
  ~ScopedSession();
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;

 private:
  Session* prev_;
};

/// Opens a span on the current session's tracer; inert when telemetry is
/// off.  `category`/`name` must be string literals.
inline Span span(const char* category, const char* name,
                 double sim_begin_s) {
  Session* s = current();
  return Span(s != nullptr ? &s->tracer : nullptr, category, name,
              sim_begin_s);
}

}  // namespace p2sim::telemetry
