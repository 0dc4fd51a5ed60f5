// Communication-fraction model: from message sizes to wait shares.
//
// Section 4 describes the dominant parallel structure: domain decomposition
// with one or more blocks per processor and nearest-neighbour exchanges
// each step.  Given the per-step compute time and the exchange shape, the
// switch parameters (45 us latency, 34 MB/s) determine the communication
// share of wall time — and its growth with node count, since smaller
// per-node blocks mean less compute per exchanged byte (surface-to-volume
// scaling).  Synchronous codes additionally serialize their exchanges.
#pragma once

#include <algorithm>
#include <cmath>

#include "src/cluster/switch.hpp"

namespace p2sim::cluster {

/// One parallel code's communication shape at a reference decomposition.
struct CommShape {
  /// Grid points per node at the reference node count (e.g. 50^3 = 125000).
  double points_per_node_ref = 125000.0;
  int ref_nodes = 16;
  /// Seconds of compute per point between consecutive exchange phases
  /// (implicit solvers exchange several times per timestep; ~70 flops per
  /// point per phase at the workload's ~25 Mflops).
  double compute_s_per_point = 2.8e-6;
  /// Bytes exchanged per *surface* point per step (solution variables on
  /// the halo).
  double bytes_per_surface_point = 200.0;
  /// Messages per exchange phase (one per face for a 3-D decomposition).
  int msgs_per_exchange = 6;
  /// Synchronous codes cannot overlap communication with compute.
  bool synchronous = true;
  /// Overlap efficiency for asynchronous codes (fraction of comm hidden).
  double overlap = 0.6;
};

/// Estimates the communication-wait share of wall time when the same
/// global problem runs on `nodes` nodes (fixed total size: per-node volume
/// shrinks as 1/nodes, surface as 1/nodes^(2/3)).
inline double comm_fraction(const HpsSwitch& sw, const CommShape& shape,
                            int nodes) {
  if (nodes <= 1) return 0.0;
  const double scale =
      static_cast<double>(shape.ref_nodes) / static_cast<double>(nodes);
  const double points = shape.points_per_node_ref * scale;
  // Surface of a roughly cubic block: 6 * points^(2/3).
  const double surface = 6.0 * std::pow(points, 2.0 / 3.0);
  const double compute_s = points * shape.compute_s_per_point;
  const double bytes = surface * shape.bytes_per_surface_point /
                       std::max(1, shape.msgs_per_exchange);
  double comm_s = sw.exchange_time(shape.msgs_per_exchange, bytes);
  if (!shape.synchronous) comm_s *= (1.0 - shape.overlap);
  if (compute_s + comm_s <= 0.0) return 0.0;
  return std::clamp(comm_s / (compute_s + comm_s), 0.0, 0.95);
}

}  // namespace p2sim::cluster
