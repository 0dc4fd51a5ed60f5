// System-wide data collection (section 3, "System-wide data collection").
//
// On the real machine a cron script ran every 15 minutes, pulled the
// extended counter totals from the RS2HPM daemon on every node available
// for user jobs, and appended them to a file for later analysis.  This
// class is that pipeline: it receives each node's 64-bit totals once per
// interval, forms wrap-free deltas per node, and stores one aggregated
// record per interval.  The daemon samples whether or not user processes
// are executing — idle nodes simply contribute near-zero deltas.
//
// Production hardening: over nine months the collection is lossy.  Nodes
// reboot (their counters restart from zero) and single-node fetches time
// out.  The daemon therefore primes each node independently, detects
// non-monotone totals and *re-primes* that node rather than forming a
// wrapped uint64 delta, and records per-interval coverage (nodes_sampled
// vs nodes_expected) so the analysis can weight or discard thin samples.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/rs2hpm/snapshot.hpp"

namespace p2sim::rs2hpm {

/// One 15-minute system-wide sample.
struct IntervalRecord {
  std::int64_t interval = 0;     ///< global 15-minute interval index
  ModeTotals delta;              ///< counter deltas summed over sampled nodes
  std::uint64_t quad_surplus = 0;///< diagnostic: quad memory instructions
  int nodes_sampled = 0;         ///< nodes that contributed a clean delta
  int nodes_expected = 0;        ///< nodes the daemon should have reached
  int nodes_reprimed = 0;        ///< counter reset detected; baseline redone
  int busy_nodes = 0;            ///< nodes servicing PBS jobs (utilization)

  /// Fraction of the expected node-samples actually collected.
  double coverage() const {
    return nodes_expected > 0
               ? static_cast<double>(nodes_sampled) / nodes_expected
               : 1.0;
  }

  /// Checkpoint support.
  void save_ckpt(util::CkptWriter& w) const {
    w.put_i64(interval);
    delta.save_ckpt(w);
    w.put_u64(quad_surplus);
    w.put_i32(nodes_sampled);
    w.put_i32(nodes_expected);
    w.put_i32(nodes_reprimed);
    w.put_i32(busy_nodes);
  }
  void restore_ckpt(util::CkptReader& r) {
    interval = r.read_i64("record.interval");
    delta.restore_ckpt(r);
    quad_surplus = r.read_u64("record.quad_surplus");
    nodes_sampled = r.read_i32("record.nodes_sampled");
    nodes_expected = r.read_i32("record.nodes_expected");
    nodes_reprimed = r.read_i32("record.nodes_reprimed");
    busy_nodes = r.read_i32("record.busy_nodes");
  }
};

class SamplingDaemon {
 public:
  explicit SamplingDaemon(std::size_t num_nodes);

  /// Ingests one interval: `node_totals[i]` is node i's monotone 64-bit
  /// extended totals at the end of the interval, `node_quads[i]` its
  /// cumulative quad-instruction diagnostic.  `busy_nodes` comes from the
  /// batch system.  Spans must cover all nodes.  Equivalent to the lossy
  /// overload with every node reachable.
  P2SIM_SERIAL_ONLY void collect(std::int64_t interval,
                                 std::span<const ModeTotals> node_totals,
                                 std::span<const std::uint64_t> node_quads,
                                 int busy_nodes);

  /// Lossy collection: `reachable[i] == 0` means node i could not be
  /// sampled this interval (down, or the fetch was dropped).  Unreachable
  /// nodes keep their previous baseline — their next clean delta simply
  /// spans the gap.  A node whose totals went backwards (counter reset)
  /// is re-primed at the new values and contributes nothing this interval.
  P2SIM_SERIAL_ONLY void collect(std::int64_t interval,
                                 std::span<const ModeTotals> node_totals,
                                 std::span<const std::uint64_t> node_quads,
                                 std::span<const std::uint8_t> reachable,
                                 int busy_nodes);

  /// Adopts one already-merged interval record: the accounting tail of
  /// collect(), split out for callers that form per-node deltas themselves
  /// (the campaign driver's lane pipeline probes nodes inside the parallel
  /// region and tree-merges the samples before handing the result here).
  /// `unreachable` counts nodes that could not be sampled (down or dropped
  /// in flight), `newly_primed` first-contact nodes, and `any_primed`
  /// gates record emission exactly as collect() does — a fleet with no
  /// baseline yet emits nothing.  Emits the same telemetry as collect().
  P2SIM_SERIAL_ONLY void ingest(const IntervalRecord& rec, int unreachable,
                                int newly_primed, bool any_primed);

  const std::vector<IntervalRecord>& records() const { return records_; }
  std::size_t num_nodes() const { return prev_.size(); }

  /// Lifetime counts of the degradations the daemon absorbed.
  std::int64_t total_reprimes() const { return total_reprimes_; }
  std::int64_t total_unreachable() const { return total_unreachable_; }

  /// Checkpoint support: primed flags, the primed nodes' baselines and
  /// the lifetime degradation tallies.  The append-only record stream travels
  /// in the checkpoint journal instead: save_journal writes the records
  /// from index `from` on, replay_journal appends one such section.
  void save_ckpt(util::CkptWriter& w) const;
  void restore_ckpt(util::CkptReader& r);
  void save_journal(util::CkptWriter& w, std::size_t from) const {
    util::save_journal_section(w, records_, from);
  }
  void replay_journal(util::CkptReader& r) {
    util::replay_journal_section(r, records_, "daemon.records");
  }

 private:
  std::vector<ModeTotals> prev_;
  std::vector<std::uint64_t> prev_quads_;
  std::vector<std::uint8_t> primed_;
  std::vector<IntervalRecord> records_;
  std::int64_t total_reprimes_ = 0;
  std::int64_t total_unreachable_ = 0;
};

}  // namespace p2sim::rs2hpm
