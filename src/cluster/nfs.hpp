// NFS-mounted home filesystem model (section 2): three 8 GB filesystems
// shared by all nodes, reached over the switch.  The model's role in the
// reproduction is to (a) generate the disk component of the DMA counters
// ("the average value for disk I/O traffic is 3.2 Mbytes/second") and
// (b) throttle aggregate filesystem traffic to a server-side limit.
#pragma once

#include <algorithm>

#include "src/util/ckpt.hpp"

namespace p2sim::cluster {

struct NfsConfig {
  int num_filesystems = 3;
  double capacity_gb_each = 8.0;
  /// Aggregate server bandwidth across all home filesystems.
  double server_bandwidth_bytes_per_s = 3 * 12e6;
};

class NfsModel {
 public:
  explicit NfsModel(const NfsConfig& cfg = {}) : cfg_(cfg) {}

  /// Given the cluster-wide requested disk byte rate this interval, returns
  /// the granted rate (uniform throttling when the server saturates).
  double grant(double requested_bytes_per_s) const {
    return std::min(requested_bytes_per_s, cfg_.server_bandwidth_bytes_per_s);
  }

  /// Fraction of the request each node actually achieves.
  double grant_fraction(double requested_bytes_per_s) const {
    if (requested_bytes_per_s <= 0.0) return 1.0;
    return grant(requested_bytes_per_s) / requested_bytes_per_s;
  }

  void account(double bytes) { total_bytes_ += bytes; }
  double total_bytes() const { return total_bytes_; }
  const NfsConfig& config() const { return cfg_; }

  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "nfs.total_bytes", self.total_bytes_);
  }

 private:
  NfsConfig cfg_;
  double total_bytes_ = 0.0;
};

}  // namespace p2sim::cluster
