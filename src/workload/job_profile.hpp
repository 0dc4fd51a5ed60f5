// Job behaviour profiles: everything about a job that is not scheduling.
//
// A profile binds a kernel (what the CPU does between messages) to the
// job's parallel behaviour: how much of wall time goes to communication at
// a given node count, how much message and filesystem traffic it moves,
// and its per-node memory demand (which the paging model turns into the
// system-mode overhead of section 6).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/cluster/comm_model.hpp"
#include "src/power2/kernel_desc.hpp"

namespace p2sim::workload {

struct JobProfile {
  std::int64_t id = 0;
  power2::KernelDesc kernel;

  /// Communication-wait share of wall time when run on `ref_nodes` nodes.
  double comm_fraction_base = 0.25;
  int ref_nodes = 16;
  /// Scaling exponent: comm share grows ~ (nodes/ref)^exponent; nearest-
  /// neighbour asynchronous codes ~0.15, synchronous/global codes ~0.5.
  double comm_scaling_exponent = 0.2;
  /// Message traffic per node per busy second (DMA-visible bytes).
  double msg_bytes_per_s = 1.2e6;
  /// NFS traffic per node (bytes/s), split between reads and writes.
  double disk_read_bytes_per_s = 8e3;
  double disk_write_bytes_per_s = 15e3;
  double memory_mb_per_node = 64.0;
  /// Load-imbalance efficiency: the share of non-communication time the
  /// node actually computes (domain decompositions rarely balance
  /// perfectly; the slowest block gates each step).
  double imbalance_efficiency = 1.0;
  /// Fraction of the allocation during which the code actually runs.
  /// 1.0 for production batch jobs; development sessions hold their
  /// dedicated nodes (NAS "configured the SP2 for code development") while
  /// the user edits, compiles and debugs — mostly idle.
  double duty_cycle = 1.0;
  /// Code-quality draw in [0,1] used when synthesizing the kernel.
  double quality = 0.4;
  std::string family = "cfd";

  /// When set, communication is derived from first principles (block
  /// geometry + switch parameters) instead of the statistical power law.
  std::optional<cluster::CommShape> comm_shape;

  /// Communication-wait fraction at a node count, clamped to [0, 0.9]
  /// (statistical power-law path).
  double comm_fraction(int nodes) const {
    if (nodes <= 1) return 0.0;
    const double scale =
        std::pow(static_cast<double>(nodes) / std::max(1, ref_nodes),
                 comm_scaling_exponent);
    return std::clamp(comm_fraction_base * scale, 0.0, 0.9);
  }

  /// Communication-wait fraction using the physical model when a shape is
  /// attached, else the power law.
  double comm_fraction(int nodes, const cluster::HpsSwitch& sw) const {
    if (comm_shape.has_value()) {
      return std::min(cluster::comm_fraction(sw, *comm_shape, nodes), 0.9);
    }
    return comm_fraction(nodes);
  }
};

/// Owns profiles by id; the scheduler carries only the id.
class ProfileRegistry {
 public:
  std::int64_t add(JobProfile p) {
    const std::int64_t id = next_id_++;
    p.id = id;
    profiles_.emplace(id, std::move(p));
    return id;
  }
  const JobProfile& get(std::int64_t id) const {
    auto it = profiles_.find(id);
    if (it == profiles_.end()) {
      throw std::out_of_range("unknown profile id");
    }
    return it->second;
  }
  std::size_t size() const { return profiles_.size(); }

  /// Visits every registered profile in id order (e.g. to plan the
  /// signature measurements of a campaign's whole job population).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [id, profile] : profiles_) f(profile);
  }

 private:
  std::int64_t next_id_ = 1;
  std::map<std::int64_t, JobProfile> profiles_;
};

}  // namespace p2sim::workload
