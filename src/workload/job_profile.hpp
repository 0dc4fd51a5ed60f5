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
#include <iterator>
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

  /// Checkpoint support.
  void save_ckpt(util::CkptWriter& w) const {
    w.put_i64(id);
    kernel.save_ckpt(w);
    w.put_f64(comm_fraction_base);
    w.put_i32(ref_nodes);
    w.put_f64(comm_scaling_exponent);
    w.put_f64(msg_bytes_per_s);
    w.put_f64(disk_read_bytes_per_s);
    w.put_f64(disk_write_bytes_per_s);
    w.put_f64(memory_mb_per_node);
    w.put_f64(imbalance_efficiency);
    w.put_f64(duty_cycle);
    w.put_f64(quality);
    w.put_str(family);
    w.put_bool(comm_shape.has_value());
    if (comm_shape.has_value()) comm_shape->save_ckpt(w);
  }
  void restore_ckpt(util::CkptReader& r) {
    id = r.read_i64("profile.id");
    kernel.restore_ckpt(r);
    comm_fraction_base = r.read_f64("profile.comm_fraction_base");
    ref_nodes = r.read_i32("profile.ref_nodes");
    comm_scaling_exponent = r.read_f64("profile.comm_scaling_exponent");
    msg_bytes_per_s = r.read_f64("profile.msg_bytes_per_s");
    disk_read_bytes_per_s = r.read_f64("profile.disk_read_bytes_per_s");
    disk_write_bytes_per_s = r.read_f64("profile.disk_write_bytes_per_s");
    memory_mb_per_node = r.read_f64("profile.memory_mb_per_node");
    imbalance_efficiency = r.read_f64("profile.imbalance_efficiency");
    duty_cycle = r.read_f64("profile.duty_cycle");
    quality = r.read_f64("profile.quality");
    family = r.read_str("profile.family");
    if (r.read_bool("profile.has_comm_shape")) {
      comm_shape.emplace();
      comm_shape->restore_ckpt(r);
    } else {
      comm_shape.reset();
    }
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

  /// Visits every registered profile in id order (e.g. to pre-warm the
  /// signature cache with the known kernel population).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [id, profile] : profiles_) f(profile);
  }

  /// Checkpoint support: the id counter continues where it left off.
  /// Profiles are append-only (ids only grow), so they travel in the
  /// checkpoint journal: save_journal writes the profiles from the
  /// `from`-th on, replay_journal appends one such section.
  void save_ckpt(util::CkptWriter& w) const { w.put_i64(next_id_); }
  void restore_ckpt(util::CkptReader& r) {
    next_id_ = r.read_i64("registry.next_id");
  }
  void save_journal(util::CkptWriter& w, std::size_t from) const {
    w.put_u64(from);
    w.put_u64(profiles_.size() - from);
    for (auto it = std::next(profiles_.begin(),
                             static_cast<std::ptrdiff_t>(from));
         it != profiles_.end(); ++it) {
      it->second.save_ckpt(w);
    }
  }
  void replay_journal(util::CkptReader& r) {
    if (util::journal_section_restarts(r.read_u64("registry.profiles"),
                                       profiles_.size(),
                                       "registry.profiles")) {
      profiles_.clear();
    }
    const std::uint64_t n = r.read_u64("registry.profiles");
    for (std::uint64_t i = 0; i < n; ++i) {
      JobProfile p;
      p.restore_ckpt(r);
      const std::int64_t id = p.id;
      profiles_.emplace(id, std::move(p));
    }
  }

 private:
  std::int64_t next_id_ = 1;
  std::map<std::int64_t, JobProfile> profiles_;
};

}  // namespace p2sim::workload
