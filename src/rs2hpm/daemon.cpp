#include "src/rs2hpm/daemon.hpp"

#include "src/check/check.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::rs2hpm {

void SamplingDaemon::ingest(const IntervalRecord& rec, int unreachable) {
  // Debug-only bookkeeping diagnostic: every expected node must be
  // accounted for as sampled, re-primed or unreachable.
  P2SIM_CHECK(rec.nodes_sampled + rec.nodes_reprimed + unreachable ==
                  rec.nodes_expected,
              "daemon coverage accounting must partition the fleet");
  if (auto* tel = telemetry::current()) {
    const double ival_s = static_cast<double>(util::kIntervalSeconds);
    auto span = telemetry::span("rs2hpm", "daemon_collect",
                                static_cast<double>(rec.interval) * ival_s);
    span.arg("nodes_sampled", static_cast<double>(rec.nodes_sampled));
    span.arg("nodes_reprimed", static_cast<double>(rec.nodes_reprimed));
    span.close(static_cast<double>(rec.interval + 1) * ival_s);
    tel->registry
        .gauge("p2sim_daemon_coverage",
               "Fraction of expected node-samples in the last collect")
        .set(rec.nodes_expected > 0
                 ? static_cast<double>(rec.nodes_sampled) /
                       static_cast<double>(rec.nodes_expected)
                 : 0.0);
    if (rec.nodes_reprimed > 0) {
      tel->registry
          .counter("p2sim_daemon_reprimes_total",
                   "Node baselines re-established after a counter reset")
          .inc(static_cast<std::uint64_t>(rec.nodes_reprimed));
    }
    if (unreachable > 0) {
      tel->registry
          .counter("p2sim_daemon_unreachable_total",
                   "Node-samples skipped because the node was unreachable")
          .inc(static_cast<std::uint64_t>(unreachable));
    }
  }
  records_.push_back(rec);
}

}  // namespace p2sim::rs2hpm
