// Batch job descriptions for the Portable Batch System model.
//
// PBS gave users dedicated nodes and enforced allocation policy directly
// (section 2).  A JobSpec is what the scheduler sees at submission; the
// fields that drive the *performance* of the job (which kernel it runs,
// its communication pattern, its memory demand) are carried opaquely in
// `profile_id` and `memory_mb_per_node` — the scheduler allocates nodes,
// it does not interpret the science.
#pragma once

#include <cstdint>

#include "src/util/ckpt.hpp"

namespace p2sim::pbs {

enum class JobKind : std::uint8_t {
  kBatch = 0,
  kInteractive = 1,  ///< PBS also provided interactive logins for debugging
};

struct JobSpec {
  std::int64_t job_id = 0;
  std::int32_t user_id = 0;
  int nodes_requested = 1;
  double submit_time_s = 0.0;
  /// Actual runtime once started (the simulator knows it; a real scheduler
  /// would only know the user's request).
  double runtime_s = 0.0;
  /// Requested wall time (PBS limit; >= runtime_s for well-behaved jobs).
  double walltime_request_s = 0.0;
  /// Per-node memory demand in MB (drives the paging model).
  double memory_mb_per_node = 64.0;
  /// Opaque handle to the workload profile (kernel + comm pattern).
  std::int64_t profile_id = 0;
  JobKind kind = JobKind::kBatch;

  template <class Io, class Self>
  static void ckpt_fields(Io& io, Self& self) {
    util::ckpt_field(io, "job.id", self.job_id);
    util::ckpt_field(io, "job.user_id", self.user_id);
    util::ckpt_field(io, "job.nodes_requested", self.nodes_requested);
    util::ckpt_field(io, "job.submit_time", self.submit_time_s);
    util::ckpt_field(io, "job.runtime", self.runtime_s);
    util::ckpt_field(io, "job.walltime_request", self.walltime_request_s);
    util::ckpt_field(io, "job.memory_mb_per_node", self.memory_mb_per_node);
    util::ckpt_field(io, "job.profile_id", self.profile_id);
    util::ckpt_field(io, "job.kind", self.kind);
  }
};

}  // namespace p2sim::pbs
