#include "src/rs2hpm/daemon.hpp"

#include <stdexcept>

#include "src/check/check.hpp"
#include "src/telemetry/session.hpp"
#include "src/util/sim_time.hpp"

namespace p2sim::rs2hpm {

SamplingDaemon::SamplingDaemon(std::size_t num_nodes)
    : prev_(num_nodes), prev_quads_(num_nodes, 0), primed_(num_nodes, 0) {
  if (num_nodes == 0) throw std::invalid_argument("daemon needs >= 1 node");
}

void SamplingDaemon::collect(std::int64_t interval,
                             std::span<const ModeTotals> node_totals,
                             std::span<const std::uint64_t> node_quads,
                             int busy_nodes) {
  const std::vector<std::uint8_t> all(prev_.size(), 1);
  collect(interval, node_totals, node_quads, all, busy_nodes);
}

void SamplingDaemon::collect(std::int64_t interval,
                             std::span<const ModeTotals> node_totals,
                             std::span<const std::uint64_t> node_quads,
                             std::span<const std::uint8_t> reachable,
                             int busy_nodes) {
  if (node_totals.size() != prev_.size() ||
      node_quads.size() != prev_.size() ||
      reachable.size() != prev_.size()) {
    throw std::invalid_argument("collect: span size != node count");
  }
  // A record only makes sense once at least one baseline exists; the very
  // first collect of a campaign primes the fleet and emits nothing.
  bool any_primed = false;
  for (std::uint8_t p : primed_) {
    if (p) {
      any_primed = true;
      break;
    }
  }

  IntervalRecord rec;
  rec.interval = interval;
  rec.nodes_expected = static_cast<int>(prev_.size());
  rec.busy_nodes = busy_nodes;
  int newly_primed = 0;
  int unreachable = 0;
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    if (!reachable[i]) {
      // The baseline stays: when the node reappears, its delta covers the
      // gap (nothing is lost unless it also rebooted, which the monotone
      // guard below catches).
      ++unreachable;
      continue;
    }
    // The guard is unconditional in every build: subtracting a baseline
    // from reset counters would wrap the uint64 deltas into astronomical
    // garbage that no downstream check could attribute.  (Before this
    // guard existed, Release builds silently underflowed here.)
    const bool monotone = primed_[i] && node_totals[i].covers(prev_[i]) &&
                          node_quads[i] >= prev_quads_[i];
    if (monotone) {
      rec.delta += node_totals[i].since(prev_[i]);
      rec.quad_surplus += node_quads[i] - prev_quads_[i];
      ++rec.nodes_sampled;
    } else if (primed_[i]) {
      // Counter reset (node reboot) between samples: drop this node's
      // interval contribution and re-establish the baseline.
      ++rec.nodes_reprimed;
    } else {
      ++newly_primed;
    }
    prev_[i] = node_totals[i];
    prev_quads_[i] = node_quads[i];
    primed_[i] = 1;
  }
  ingest(rec, unreachable, newly_primed, any_primed);
}

void SamplingDaemon::ingest(const IntervalRecord& rec, int unreachable,
                            int newly_primed, bool any_primed) {
  // Debug-only bookkeeping diagnostic: every expected node must be
  // accounted for as sampled, re-primed, newly primed or unreachable.
  P2SIM_CHECK(rec.nodes_sampled + rec.nodes_reprimed + newly_primed +
                      unreachable ==
                  rec.nodes_expected,
              "daemon coverage accounting must partition the fleet");
  total_reprimes_ += rec.nodes_reprimed;
  total_unreachable_ += unreachable;
  // Telemetry: one span per real collect (a priming call, interval < 0,
  // establishes baselines and is not a campaign sample).
  if (rec.interval >= 0) {
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
  }
  if (any_primed) records_.push_back(rec);
}

void SamplingDaemon::save_ckpt(util::CkptWriter& w) const {
  // A node's baseline is live only once primed (priming overwrites it and
  // nothing unprimes a node), so unprimed nodes save just the flag.
  w.put_u64(prev_.size());
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    w.put_u8(primed_[i]);
    if (primed_[i] == 0) continue;
    prev_[i].save_ckpt(w);
    w.put_u64(prev_quads_[i]);
  }
  w.put_i64(total_reprimes_);
  w.put_i64(total_unreachable_);
}

void SamplingDaemon::restore_ckpt(util::CkptReader& r) {
  std::uint64_t n = r.read_u64("daemon.num_nodes");
  if (n != prev_.size()) {
    throw util::CkptError("daemon.num_nodes: node count mismatch");
  }
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    primed_[i] = r.read_u8("daemon.primed");
    prev_[i] = ModeTotals{};
    prev_quads_[i] = 0;
    if (primed_[i] == 0) continue;
    prev_[i].restore_ckpt(r);
    prev_quads_[i] = r.read_u64("daemon.prev_quad");
  }
  total_reprimes_ = r.read_i64("daemon.total_reprimes");
  total_unreachable_ = r.read_i64("daemon.total_unreachable");
}

}  // namespace p2sim::rs2hpm
