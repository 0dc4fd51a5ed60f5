// System-wide data collection (section 3, "System-wide data collection").
//
// On the real machine a cron script ran every 15 minutes, pulled the
// extended counter totals from the RS2HPM daemon on every node available
// for user jobs, and appended them to a file for later analysis.  Here each
// node's probe forms its wrap-free delta once per interval, the campaign
// sums them, and this log stores one aggregated record per interval.  The
// daemon samples whether or not user processes are executing — idle nodes
// simply contribute near-zero deltas.
//
// Production hardening: over nine months the collection is lossy.  Nodes
// reboot (their counters restart from zero) and single-node fetches time
// out.  Each node's baseline is therefore kept independently; a node whose
// totals went backwards is *re-primed* rather than forming a wrapped uint64
// delta (add_delta_if_monotone), and each record carries its coverage
// (nodes_sampled vs nodes_expected) so the analysis can weight or discard
// thin samples.
#pragma once

#include <cstdint>
#include <utility>
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

/// The daemon's record log.  Each node's probe (workload::NodeLane::probe,
/// through the shared reboot guard) forms that node's wrap-free delta
/// against its own baseline; the campaign sums the probes of an interval
/// and hands the merged record to ingest(), which appends it here.
class SamplingDaemon {
 public:
  /// Appends one merged interval record and emits its telemetry.
  /// `unreachable` counts the nodes that could not be sampled (down, or
  /// the fetch was dropped in flight); with the sampled and re-primed
  /// nodes they partition the fleet.
  P2SIM_SERIAL_ONLY void ingest(const IntervalRecord& rec, int unreachable);

  const std::vector<IntervalRecord>& records() const { return records_; }
  /// Hands the log over at campaign end, leaving it empty.
  std::vector<IntervalRecord> take_records() { return std::move(records_); }

  /// Checkpoint support: the append-only record stream travels in the
  /// checkpoint journal.  save_journal writes the records from index
  /// `from` on, replay_journal appends one such section.
  void save_journal(util::CkptWriter& w, std::size_t from) const {
    util::save_journal_section(w, records_, from);
  }
  void replay_journal(util::CkptReader& r) {
    util::replay_journal_section(r, records_, "daemon.records");
  }

 private:
  std::vector<IntervalRecord> records_;
};

}  // namespace p2sim::rs2hpm
