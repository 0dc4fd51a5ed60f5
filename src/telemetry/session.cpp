#include "src/telemetry/session.hpp"

namespace p2sim::telemetry {

namespace detail {
Session* g_current = nullptr;
}  // namespace detail

Session::Session(const SessionConfig& cfg) : tracer(cfg.max_trace_events) {}

ScopedSession::ScopedSession(Session& session) : prev_(detail::g_current) {
  detail::g_current = &session;
}

ScopedSession::~ScopedSession() { detail::g_current = prev_; }

}  // namespace p2sim::telemetry
