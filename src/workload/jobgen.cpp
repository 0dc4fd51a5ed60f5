#include "src/workload/jobgen.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/workload/kernels.hpp"

namespace p2sim::workload {

JobGenerator::JobGenerator(const JobGenConfig& cfg, ProfileRegistry& registry)
    : cfg_(cfg), registry_(&registry), rng_(cfg.seed) {
  if (cfg_.node_choices.size() != cfg_.node_weights.size() ||
      cfg_.node_choices.empty()) {
    throw std::invalid_argument("node choice/weight mismatch");
  }
  if (cfg_.family_weights.size() != 6) {
    throw std::invalid_argument("expected 6 family weights");
  }
}

JobProfile JobGenerator::make_profile(int nodes, bool interactive) {
  JobProfile p;
  const std::size_t fam =
      util::sample_discrete(rng_, std::span<const double>(cfg_.family_weights));
  const std::uint64_t variant = rng_.below(1u << 20);
  const double quality = std::clamp(
      rng_.normal(cfg_.quality_mean, cfg_.quality_sigma), 0.02, 0.98);
  p.quality = quality;

  switch (fam) {
    case 0:
      p.kernel = cfd_multiblock(variant, quality);
      p.family = "cfd";
      p.comm_fraction_base = rng_.uniform(0.18, 0.42);
      p.comm_scaling_exponent =
          rng_.chance(0.25) ? rng_.uniform(0.4, 0.6)   // synchronous codes
                            : rng_.uniform(0.1, 0.25); // nearest-neighbour
      p.msg_bytes_per_s = rng_.uniform(0.6e6, 2.2e6);
      // A share of the CFD population gets a physical communication
      // shape (block geometry + switch parameters) instead of the
      // statistical power law — the section 4 domain decomposition,
      // "a cube with 50 grid points on a side with 25 variables".
      if (rng_.chance(0.35)) {
        cluster::CommShape shape;
        const double side = rng_.uniform(36.0, 64.0);
        shape.points_per_node_ref = side * side * side;
        shape.compute_s_per_point = rng_.uniform(1.5e-6, 5.0e-6);
        shape.bytes_per_surface_point = rng_.uniform(120.0, 280.0);
        shape.synchronous = rng_.chance(0.3);
        shape.overlap = rng_.uniform(0.4, 0.8);
        p.comm_shape = shape;
      }
      break;
    case 1:
      p.kernel = mdo_ensemble(variant);
      p.family = "mdo";
      // Independent configuration evaluations: nearly no communication.
      p.comm_fraction_base = rng_.uniform(0.02, 0.08);
      p.comm_scaling_exponent = 0.05;
      p.msg_bytes_per_s = rng_.uniform(0.05e6, 0.3e6);
      break;
    case 2:
      p.kernel = npb_bt_like();
      p.family = "bt";
      p.comm_fraction_base = rng_.uniform(0.10, 0.2);
      p.comm_scaling_exponent = 0.18;
      p.msg_bytes_per_s = rng_.uniform(1.0e6, 2.5e6);
      break;
    case 3:
      p.kernel = io_heavy(variant);
      p.family = "io";
      p.comm_fraction_base = rng_.uniform(0.1, 0.25);
      p.comm_scaling_exponent = 0.2;
      p.msg_bytes_per_s = rng_.uniform(0.2e6, 0.8e6);
      p.disk_read_bytes_per_s = rng_.uniform(0.2e6, 0.8e6);
      p.disk_write_bytes_per_s = rng_.uniform(0.3e6, 1.2e6);
      break;
    case 4:
      p.kernel = strided_transpose();
      p.family = "strided";
      p.comm_fraction_base = rng_.uniform(0.05, 0.2);
      p.comm_scaling_exponent = 0.2;
      p.msg_bytes_per_s = rng_.uniform(0.2e6, 1.0e6);
      break;
    default:
      p.kernel = naive_matmul();
      p.family = "naive";
      p.comm_fraction_base = rng_.uniform(0.02, 0.1);
      p.comm_scaling_exponent = 0.1;
      p.msg_bytes_per_s = rng_.uniform(0.05e6, 0.4e6);
      break;
  }

  if (p.family != "io") {
    p.disk_read_bytes_per_s = rng_.uniform(2e3, 20e3);
    p.disk_write_bytes_per_s = rng_.uniform(5e3, 40e3);
  }

  // Domain decompositions rarely balance perfectly; the slowest block
  // gates every step.  Embarrassingly parallel sweeps balance well.
  p.imbalance_efficiency = p.family == "mdo" ? rng_.uniform(0.9, 0.98)
                                             : rng_.uniform(0.70, 0.95);

  assign_memory(p, nodes, interactive);
  return p;
}

void JobGenerator::assign_memory(JobProfile& p, int nodes,
                                 bool interactive) {
  // Memory demand: the section 6 pathology.  Wide jobs frequently
  // oversubscribe; narrow jobs mostly during paging episodes.  Demand is
  // a per-run property ("automatic arrays whose memory requirements
  // appear only at runtime"), so reused codes still redraw it.
  const bool wide = nodes > cfg_.paging_node_threshold;
  const double paging_prob =
      wide ? cfg_.wide_paging_prob
           : (episode_days_left_ > 0 ? cfg_.paging_episode_narrow_prob
                                     : cfg_.narrow_paging_prob);
  if (!interactive && rng_.chance(paging_prob)) {
    p.memory_mb_per_node =
        128.0 * rng_.uniform(cfg_.paging_demand_min, cfg_.paging_demand_max);
  } else {
    p.memory_mb_per_node = std::clamp(
        rng_.lognormal_median(cfg_.memory_median_mb, cfg_.memory_sigma),
        8.0, 126.0);
  }
}

void JobGenerator::update_episode(double submit_time_s) {
  const auto day = static_cast<std::int64_t>(submit_time_s / 86400.0);
  if (day == last_day_) return;
  last_day_ = day;
  if (episode_days_left_ > 0) {
    --episode_days_left_;
  } else if (rng_.chance(cfg_.paging_episode_start_prob)) {
    episode_days_left_ =
        cfg_.paging_episode_min_days +
        static_cast<int>(rng_.below(static_cast<std::uint64_t>(
            cfg_.paging_episode_max_days - cfg_.paging_episode_min_days + 1)));
  }
}

pbs::JobSpec JobGenerator::next(double submit_time_s) {
  update_episode(submit_time_s);
  pbs::JobSpec spec;
  spec.job_id = next_job_id_++;
  spec.user_id = next_user_ = (next_user_ + 7) % 97;
  spec.submit_time_s = submit_time_s;

  const bool interactive = rng_.chance(cfg_.interactive_prob);
  const bool dev_session = !interactive && rng_.chance(cfg_.dev_session_prob);
  spec.kind = interactive ? pbs::JobKind::kInteractive : pbs::JobKind::kBatch;

  const std::size_t pick = util::sample_discrete(
      rng_, std::span<const double>(cfg_.node_weights));
  spec.nodes_requested =
      interactive ? static_cast<int>(1 + rng_.below(4))
                  : cfg_.node_choices[pick];
  if (dev_session) {
    spec.nodes_requested = std::min(spec.nodes_requested, cfg_.dev_max_nodes);
  }

  if (interactive) {
    spec.runtime_s = rng_.uniform(60.0, 540.0);
  } else if (dev_session) {
    spec.runtime_s = rng_.uniform(0.75 * 3600.0, 8.0 * 3600.0);
  } else {
    spec.runtime_s =
        std::clamp(rng_.lognormal_median(cfg_.runtime_median_s,
                                         cfg_.runtime_sigma),
                   cfg_.runtime_min_s, cfg_.runtime_max_s);
  }
  spec.walltime_request_s = spec.runtime_s * rng_.uniform(1.1, 2.5);

  // Persistent codes: a production batch submission usually reruns its
  // user's existing application on a new configuration.
  JobProfile prof;
  const auto existing = user_codes_.find(spec.user_id);
  if (!interactive && !dev_session && existing != user_codes_.end() &&
      rng_.chance(cfg_.code_reuse_prob)) {
    prof = existing->second;
    assign_memory(prof, spec.nodes_requested, interactive);
  } else {
    prof = make_profile(spec.nodes_requested, interactive);
    if (!interactive && !dev_session) {
      user_codes_.insert_or_assign(spec.user_id, prof);
    }
  }
  if (dev_session) {
    prof.duty_cycle = rng_.uniform(cfg_.dev_duty_min, cfg_.dev_duty_max);
    prof.family = "dev";
    prof.memory_mb_per_node = std::min(prof.memory_mb_per_node, 110.0);
    prof.msg_bytes_per_s *= prof.duty_cycle;
  }
  spec.memory_mb_per_node = prof.memory_mb_per_node;
  spec.profile_id = registry_->add(std::move(prof));
  return spec;
}

std::vector<power2::KernelDesc> JobGenerator::peek_kernels(
    const std::vector<double>& submit_times_s) const {
  ProfileRegistry scratch;
  JobGenerator ahead = *this;
  ahead.registry_ = &scratch;
  std::vector<power2::KernelDesc> kernels;
  kernels.reserve(submit_times_s.size());
  for (double t : submit_times_s) {
    kernels.push_back(scratch.get(ahead.next(t).profile_id).kernel);
  }
  return kernels;
}

void JobGenerator::save_ckpt(util::CkptWriter& w) const {
  rng_.save_ckpt(w);
  w.put_i64(next_job_id_);
  w.put_i32(next_user_);
  w.put_i64(last_day_);
  w.put_i32(episode_days_left_);
  w.put_u64(user_codes_.size());
  for (const auto& [user, code] : user_codes_) {
    w.put_i32(user);
    code.save_ckpt(w);
  }
}

void JobGenerator::restore_ckpt(util::CkptReader& r) {
  rng_.restore_ckpt(r);
  next_job_id_ = r.read_i64("jobgen.next_job_id");
  next_user_ = r.read_i32("jobgen.next_user");
  last_day_ = r.read_i64("jobgen.last_day");
  episode_days_left_ = r.read_i32("jobgen.episode_days_left");
  user_codes_.clear();
  std::uint64_t n = r.read_u64("jobgen.user_codes_size");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int32_t user = r.read_i32("jobgen.user_id");
    JobProfile code;
    code.restore_ckpt(r);
    user_codes_.emplace(user, std::move(code));
  }
}

}  // namespace p2sim::workload
