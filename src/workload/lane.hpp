// NodeLane: everything one node's worker thread may touch, and nothing else.
//
// The campaign driver's lane-pipeline phase runs the 144 lanes in parallel
// (util::TaskPool, static sharding), each lane draining a whole horizon of
// intervals end-to-end.  The determinism and data-race story both reduce to
// one ownership rule: inside the parallel region a worker reads and writes
// exactly one lane at a time — the Node with its counters, the lane's
// private RNG stream and its read-only fault view — plus two per-pass
// outputs: its own shard's ProbeTally row (one tally per horizon offset,
// shared by the shard's lanes and by no other worker) and the lane's own
// busy-seconds slot per offset.  Everything else it reads is immutable
// shared input (configs, the job's EventSignature, this horizon's LaneStep
// and miss bitmap).  Cross-node state (scheduler, daemon, job monitor, the
// metrics registry, the driver's master RNG) is touched only in the serial
// phases.  The serial fold adds the shards' tallies — integer sums, the
// same bits under any grouping, including the busy/idle/down node-interval
// counts behind the p2sim_lane_* counters — and folds the busy seconds,
// the one floating-point output, in a fixed pairwise tree
// (telemetry::tree_fold), so campaign results are bit-identical for every
// thread count.
//
// RNG ownership: the lane stream is seeded from (campaign seed, node id)
// through splitmix64 — never from the master stream, whose draw sequence
// belongs to the serial schedule build, and never from iteration order.
// Any future per-node stochastic effect (OS-noise jitter, local
// degradation) must draw from lane.rng so that adding it, or changing the
// thread count, perturbs nothing else.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/check/annotate.hpp"
#include "src/cluster/node.hpp"
#include "src/fault/fault.hpp"
#include "src/power2/signature.hpp"
#include "src/rs2hpm/snapshot.hpp"
#include "src/util/rng.hpp"

namespace p2sim::workload {

/// One horizon's work order for a lane, written by the serial
/// scheduling/launch phases and read only inside the parallel region.  The
/// order stays valid for every interval of the horizon because the horizon
/// phase only extends a pass across intervals where no cross-node event
/// (arrival, start, crash, reboot, completion) intervenes.
struct LaneStep {
  /// Kernel signature of the job holding this node; nullptr when idle.
  const power2::EventSignature* sig = nullptr;
  /// Activity mix for the busy part of the interval (valid when sig set).
  cluster::ActivityProfile activity{};
  /// Seconds of the current interval spent running the job (<= interval
  /// length); recomputed per interval by run_pipeline from end_s.
  double busy_s = 0.0;
  /// Absolute sim time the job ends (valid when sig set): the pipeline
  /// derives each interval's busy_s as min(end_s, interval end) - now.
  double end_s = 0.0;
};

/// Some lanes' work for one interval, summed: what each node spent the
/// interval doing, and the daemon probes.  The node-interval fields count
/// every interval; each probe field counts one arm of NodeLane::probe, and
/// a cron-missed interval adds no probe.
/// Every field is an integer sum, so the total is the same whichever lanes
/// are added in whichever order: a worker adds its lanes into its shard's
/// tally while they run, and the serial fold adds the shards' tallies.
struct ProbeTally {
  std::uint64_t busy_node_intervals = 0;  ///< servicing a PBS job
  std::uint64_t idle_node_intervals = 0;  ///< idle (OS noise only)
  std::uint64_t down_node_intervals = 0;  ///< out of service after a crash
  rs2hpm::ModeTotals delta;        ///< counter deltas of the sampled nodes
  std::uint64_t quad_surplus = 0;  ///< quad diagnostic deltas, likewise
  int sampled = 0;   ///< clean monotone delta
  int reprimed = 0;  ///< counter reset detected; baseline re-established
  int down = 0;      ///< node was down: unreachable, baseline kept
  int lost = 0;      ///< node up but its fetch was dropped in flight

  P2SIM_PAR_SAFE void add(const ProbeTally& o) {
    busy_node_intervals += o.busy_node_intervals;
    idle_node_intervals += o.idle_node_intervals;
    down_node_intervals += o.down_node_intervals;
    delta += o.delta;
    quad_surplus += o.quad_surplus;
    sampled += o.sampled;
    reprimed += o.reprimed;
    down += o.down;
    lost += o.lost;
  }
};

/// The per-node bundle owned by exactly one worker during the parallel
/// lane-pipeline phase.
class NodeLane {
 public:
  /// `rng_seed` is the campaign seed; the lane derives its private stream
  /// from (rng_seed, id) so streams are keyed to the node, not to order.
  ///
  /// The probe baseline starts at zero: a fresh node's counters are
  /// all-zero, so its first probe is a clean delta like any other.
  NodeLane(int id, const cluster::NodeConfig& cfg, std::uint64_t rng_seed,
           const fault::FaultSchedule* fault_view)
      : node(id, cfg),
        rng(util::SplitMix64(rng_seed ^
                             (0x9e3779b97f4a7c15ULL *
                              (static_cast<std::uint64_t>(id) + 1)))
                .next()),
        fault_view(fault_view) {}

  /// The parallel-region body: advance this lane's node through one
  /// interval according to `step`, exactly as the serial driver did —
  /// busy seconds under the job's signature, the remainder idle — and
  /// count the interval as busy, idle or down in `tally`.  The count lives
  /// here, not in probe(), because a cron-missed interval skips the probe
  /// but not the node.  Touches only lane-local state and `tally`.
  P2SIM_PAR_SAFE void advance_interval(double interval_s,
                                       ProbeTally& tally) {
    interval_busy_s = 0.0;
    if (!node.is_up()) {
      ++tally.down_node_intervals;
      return;
    }
    if (step.sig == nullptr) {
      node.advance_idle(interval_s);
      ++tally.idle_node_intervals;
      return;
    }
    node.advance(step.busy_s, step.sig, step.activity);
    if (step.busy_s < interval_s) {
      node.advance_idle(interval_s - step.busy_s);
    }
    interval_busy_s = step.busy_s;
    ++tally.busy_node_intervals;
  }

  /// Drains `h` consecutive intervals starting at t0 end-to-end: per
  /// interval, derive the busy split from the work order, advance the
  /// node, then probe its counters.  `miss[k]` marks horizon offset k as
  /// a whole-interval cron miss (no probe draw, baseline kept).  Offset
  /// k's node-interval count and probe are added into `tally[k]`, the
  /// calling shard's row, and the interval's busy seconds are written to
  /// `busy[k * busy_stride]`, this lane's slot.  Touches only lane-local state and those two outputs;
  /// the horizon phase guarantees the work order holds for every interval.
  P2SIM_PAR_SAFE void run_pipeline(std::int64_t t0, std::int64_t h,
                                   double interval_s,
                                   const std::uint8_t* miss,
                                   ProbeTally* tally, double* busy,
                                   std::size_t busy_stride) {
    for (std::int64_t k = 0; k < h; ++k) {
      const double now = static_cast<double>(t0 + k) * interval_s;
      if (step.sig != nullptr) {
        step.busy_s = std::min(step.end_s, now + interval_s) - now;
      }
      const auto ku = static_cast<std::size_t>(k);
      advance_interval(interval_s, tally[ku]);
      busy[ku * busy_stride] = interval_busy_s;
      probe(t0 + k, miss[k] != 0, tally[ku]);
    }
  }

  /// One daemon probe of this lane's node, added into `tally`: the node's
  /// delta over the lane-owned baseline, through the shared reboot guard.
  /// A down, lost or cron-missed node keeps its baseline, so its next
  /// clean delta spans the gap; a reset node is re-primed.
  P2SIM_PAR_SAFE void probe(std::int64_t interval, bool missed,
                            ProbeTally& tally) {
    if (missed) return;  // the whole sample never happened; baseline kept
    if (!node.is_up()) {
      ++tally.down;  // unreachable, baseline kept
      return;
    }
    if (fault_view != nullptr &&
        fault_view->node_sample_lost(node.id(), interval)) {
      ++tally.lost;  // dropped in flight, baseline kept
      return;
    }
    const rs2hpm::ModeTotals& totals = node.totals();
    const std::uint64_t quad = node.quad_total();
    if (rs2hpm::add_delta_if_monotone(baseline, totals, quad, tally.delta,
                                      tally.quad_surplus)) {
      ++tally.sampled;
    } else {
      // Counter reset (node reboot) between samples: drop this interval's
      // contribution and re-establish the baseline.
      ++tally.reprimed;
    }
    baseline.totals = totals;
    baseline.quad = quad;
  }

  cluster::Node node;
  /// Lane-private RNG stream (see the ownership rule above).
  util::Xoshiro256StarStar rng;
  /// Read-only view of the deterministic fault schedule: lanes may query
  /// it (stateless, keyed draws) but never log through the injector —
  /// fault accounting is a serial-phase concern.  Null when faults are off.
  const fault::FaultSchedule* fault_view = nullptr;

  /// Input for the current horizon (serial phases write, lane reads).
  LaneStep step;
  /// Busy seconds this lane contributed in the most recent interval.
  double interval_busy_s = 0.0;

  /// Lane-owned daemon baseline: the node's values at its last probe.
  rs2hpm::NodeSample baseline;
};

}  // namespace p2sim::workload
