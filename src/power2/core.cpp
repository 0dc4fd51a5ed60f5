#include "src/power2/core.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/check/invariants.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/session.hpp"
#include "src/telemetry/trace.hpp"

namespace p2sim::power2 {
namespace {

/// Bytes of instruction text per body instruction (fixed 32-bit encoding).
constexpr std::uint64_t kInstBytes = 4;

}  // namespace

double RunResult::mflops(double clock_hz) const {
  if (counts.cycles == 0) return 0.0;
  const double flops_per_cycle = static_cast<double>(counts.flops()) /
                                 static_cast<double>(counts.cycles);
  return flops_per_cycle * clock_hz / 1e6;
}

Power2Core::Power2Core(const CoreConfig& cfg)
    : cfg_(cfg),
      dcache_(cfg.dcache),
      icache_(cfg.icache),
      tlb_(cfg.tlb),
      rng_(cfg.rng_seed) {
  if (cfg_.dispatch_width == 0) {
    throw std::invalid_argument("dispatch_width must be > 0");
  }
  if (cfg_.tlb_miss_min > cfg_.tlb_miss_max) {
    throw std::invalid_argument("tlb miss window inverted");
  }
}

void Power2Core::reset() {
  dcache_.flush();
  icache_.flush();
  tlb_.flush();
  fxu_free_[0] = fxu_free_[1] = 0;
  fpu_free_[0] = fpu_free_[1] = 0;
  icu_free_ = 0;
  fpu_rr_toggle_ = fxu_rr_toggle_ = false;
  pipe_cycle_ = 0;
  pipe_issued_ = 0;
  bound_kernel_ = nullptr;
}

void Power2Core::bind(const KernelDesc& kernel) {
  if (auto err = kernel.validate(); !err.empty()) {
    throw std::invalid_argument("kernel '" + kernel.name + "': " + err);
  }
  ready_cur_.assign(kernel.body.size(), 0);
  ready_prev_.assign(kernel.body.size(), 0);
  stream_cursor_.assign(kernel.streams.size(), 0);
  stream_base_.clear();
  stream_base_.reserve(kernel.streams.size());
  // Streams occupy disjoint page-aligned regions with a guard gap, so that
  // distinct arrays never alias in the cache by construction (conflict
  // misses still arise from set contention, as in reality).
  std::uint64_t next = 1ULL << 20;
  for (const MemStream& s : kernel.streams) {
    stream_base_.push_back(next);
    const std::uint64_t page = tlb_.config().page_bytes;
    const std::uint64_t span = (s.footprint_bytes + page - 1) / page * page;
    next += span + 16 * page;
  }
  bound_kernel_ = &kernel;
}

std::uint64_t Power2Core::run_iteration(const KernelDesc& kernel,
                                        std::uint64_t now, bool counting,
                                        EventCounts& ev) {
  // `issue_cycle` / `issued` implement the 4-wide ICU dispatch limit; they
  // persist across iterations (the loop branch does not reset the
  // dispatcher), so the width bound holds at iteration boundaries too.
  std::uint64_t& issue_cycle = pipe_cycle_;
  std::uint32_t& issued = pipe_issued_;
  if (now > issue_cycle) {
    issue_cycle = now;
    issued = 0;
  }

  const std::size_t n = kernel.body.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& in = kernel.body[i];
    if (counting) ev.dispatched_inst += 1;

    // Earliest issue: program order + dispatch slots + data dependencies.
    const std::uint64_t slot_earliest =
        issued >= cfg_.dispatch_width ? issue_cycle + 1 : issue_cycle;
    std::uint64_t earliest = slot_earliest;
    if (in.dep != kNoDep) {
      earliest = std::max(earliest, ready_cur_[static_cast<std::size_t>(in.dep)]);
    }
    if (in.carried_dep != kNoDep) {
      earliest = std::max(
          earliest, ready_prev_[static_cast<std::size_t>(in.carried_dep)]);
    }
    std::uint64_t issue_at = earliest;
    std::uint64_t ready = earliest + 1;
    int unit_used = 0;
    bool ev_dmiss = false;
    bool ev_tmiss = false;

    if (is_floating_point(in.op)) {
      int u;
      switch (cfg_.fpu_steering) {
        case FpuSteering::kFpu0First: {
          // Section 5 semantics: FPU0 is the default target; the stream
          // spills to FPU1 only while FPU0 is occupied (a multicycle op in
          // flight, or a same-cycle instruction already issued there).
          // Dependence-bound code therefore concentrates on FPU0 — by the
          // time a chained consumer can issue, FPU0 is idle again — while
          // independent bursts dual-issue and split evenly.  This is the
          // mechanism behind the paper's measured FPU0/FPU1 ratio of 1.7
          // and its note that high-ILP workloads sit closer to 1.
          if (fpu_free_[0] <= earliest) {
            u = 0;
          } else if (fpu_free_[1] <= earliest) {
            u = 1;
          } else {
            u = fpu_free_[0] <= fpu_free_[1] ? 0 : 1;
          }
          break;
        }
        case FpuSteering::kRoundRobin:
          u = fpu_rr_toggle_ ? 1 : 0;
          fpu_rr_toggle_ = !fpu_rr_toggle_;
          break;
        case FpuSteering::kEarliestFree:
        default:
          u = fpu_free_[0] <= fpu_free_[1] ? 0 : 1;
          break;
      }
      issue_at = std::max(earliest, fpu_free_[u]);
      fpu_free_[u] = issue_at + static_cast<std::uint64_t>(fp_busy(in.op));
      ready = issue_at + static_cast<std::uint64_t>(fp_latency(in.op));
      unit_used = u;
      if (counting) {
        (u == 0 ? ev.fpu0_inst : ev.fpu1_inst) += 1;
        switch (in.op) {
          case OpClass::kFpAdd:
            (u == 0 ? ev.fp_add0 : ev.fp_add1) += 1;
            break;
          case OpClass::kFpMul:
            (u == 0 ? ev.fp_mul0 : ev.fp_mul1) += 1;
            break;
          case OpClass::kFpDiv:
            (u == 0 ? ev.fp_div0 : ev.fp_div1) += 1;
            break;
          case OpClass::kFpFma:
            // The fma multiply lands in the fma counter and its add in the
            // add counter (paper, section 5).
            (u == 0 ? ev.fp_fma0 : ev.fp_fma1) += 1;
            (u == 0 ? ev.fp_add0 : ev.fp_add1) += 1;
            break;
          case OpClass::kFpSqrt:
            break;  // no dedicated HPM operation counter
          default:
            break;
        }
      }
    } else if (is_fixed_point(in.op)) {
      int u;
      const bool fxu1_only =
          in.op == OpClass::kFxAddrMul || in.op == OpClass::kFxAddrDiv;
      if (fxu1_only) {
        u = 1;  // "FXU1 has the sole responsibility for divide and multiply"
      } else {
        switch (cfg_.fxu_steering) {
          case FxuSteering::kFxu1Preferred:
            if (fxu_free_[1] <= earliest) {
              u = 1;
            } else if (fxu_free_[0] <= earliest) {
              u = 0;
            } else {
              u = fxu_free_[1] <= fxu_free_[0] ? 1 : 0;
            }
            break;
          case FxuSteering::kRoundRobin:
          default:
            u = fxu_rr_toggle_ ? 1 : 0;
            fxu_rr_toggle_ = !fxu_rr_toggle_;
            break;
        }
      }
      issue_at = std::max(earliest, fxu_free_[u]);
      unit_used = u;
      std::uint64_t busy = 1;
      // Address multiply/divide are multicycle on FXU1.
      if (in.op == OpClass::kFxAddrMul) busy = 3;
      if (in.op == OpClass::kFxAddrDiv) busy = 13;
      ready = issue_at + busy;

      std::uint64_t halt = 0;
      if (is_memory(in.op)) {
        MemStream const& s = kernel.streams[in.stream];
        std::uint64_t& cur = stream_cursor_[in.stream];
        const std::uint64_t addr = stream_base_[in.stream] + cur;
        // Advance the cursor, wrapping within the footprint (negative
        // strides walk backwards).  The cursor stays in [0, fp), so a
        // step that lands inside the footprint needs no division; only a
        // wrap takes the signed remainder, which yields the same offset.
        const std::int64_t fp = static_cast<std::int64_t>(s.footprint_bytes);
        std::int64_t nxt = static_cast<std::int64_t>(cur) + s.stride_bytes;
        if (nxt < 0 || nxt >= fp) {
          nxt %= fp;
          if (nxt < 0) nxt += fp;
        }
        cur = static_cast<std::uint64_t>(nxt);

        const bool is_store = in.op == OpClass::kFxStore;
        if (!tlb_.access(addr)) {
          const std::uint64_t pen =
              cfg_.tlb_miss_min +
              rng_.below(cfg_.tlb_miss_max - cfg_.tlb_miss_min + 1);
          halt += pen;
          ev_tmiss = true;
          if (counting) {
            ev.tlb_miss += 1;
            ev.stall_tlb += pen;
          }
        }
        const CacheAccess acc = dcache_.access(addr, is_store);
        if (!acc.hit) {
          ev_dmiss = true;
          halt += cfg_.dcache_miss_halt;
          if (counting) {
            ev.dcache_miss += 1;
            ev.stall_dcache += cfg_.dcache_miss_halt;
          }
          // FXU0 performs the directory search / refill bookkeeping for
          // misses, holding its pipe for the halt duration.
          fxu_free_[0] = std::max(fxu_free_[0], issue_at + halt);
        }
        if (counting) {
          if (acc.reload) ev.dcache_reload += 1;
          if (acc.dirty_evict) ev.dcache_store += 1;
          ev.memory_inst += 1;
          if (in.quad) ev.quad_inst += 1;
        }
        ready += halt;
      }
      fxu_free_[u] = issue_at + busy;
      if (counting) (u == 0 ? ev.fxu0_inst : ev.fxu1_inst) += 1;

      if (halt > 0) {
        // "Execution may halt ... while the reference is satisfied."
        issue_cycle = issue_at + halt;
        issued = 0;
        ready_cur_[i] = ready;
        if (trace_sink_ != nullptr) {
          trace_sink_->events.push_back(
              {trace_iteration_, static_cast<std::uint16_t>(i), in.op,
               static_cast<std::uint8_t>(unit_used), issue_at, ready,
               ev_dmiss, ev_tmiss});
        }
        continue;
      }
    } else {
      // ICU: branches and condition-register ops, one per cycle.
      issue_at = std::max(earliest, icu_free_);
      icu_free_ = issue_at + 1;
      ready = issue_at + 1;
      if (counting) {
        (in.op == OpClass::kBranch ? ev.icu_type1 : ev.icu_type2) += 1;
      }
    }

    if (issue_at > issue_cycle) {
      issue_cycle = issue_at;
      issued = 1;
    } else {
      ++issued;
    }
    ready_cur_[i] = ready;
    if (trace_sink_ != nullptr) {
      trace_sink_->events.push_back(
          {trace_iteration_, static_cast<std::uint16_t>(i), in.op,
           static_cast<std::uint8_t>(unit_used), issue_at, ready, ev_dmiss,
           ev_tmiss});
    }
  }

  // Occasional I-cache refill beyond the steady-state loop (subroutine-rich
  // codes); drawn per iteration from the kernel's pressure parameter.
  if (kernel.icache_miss_per_kinst > 0.0) {
    const double p = kernel.icache_miss_per_kinst *
                     static_cast<double>(kernel.body.size()) / 1000.0;
    if (rng_.chance(std::min(p, 1.0))) {
      if (counting) ev.icache_reload += 1;
      issue_cycle += cfg_.dcache_miss_halt;
    }
  }

  std::swap(ready_cur_, ready_prev_);
  return issue_cycle;
}

std::string IssueTrace::format(std::size_t max_events) const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %5s %5s %-12s %4s %10s %10s %s\n",
                "iter", "idx", "op", "unit", "issue", "ready", "events");
  out += buf;
  std::size_t n = 0;
  for (const IssueEvent& e : events) {
    if (n++ >= max_events) {
      out += "  ... (truncated)\n";
      break;
    }
    std::snprintf(buf, sizeof(buf), "  %5u %5u %-12s %4u %10llu %10llu %s%s\n",
                  e.iteration, e.body_index,
                  std::string(op_name(e.op)).c_str(), e.unit,
                  static_cast<unsigned long long>(e.issue_cycle),
                  static_cast<unsigned long long>(e.ready_cycle),
                  e.dcache_miss ? "D$miss " : "", e.tlb_miss ? "TLBmiss" : "");
    out += buf;
  }
  return out;
}

IssueTrace Power2Core::trace(const KernelDesc& kernel,
                             std::uint32_t iterations) {
  bind(kernel);
  IssueTrace t;
  EventCounts scratch;
  std::uint64_t now = std::max({fxu_free_[0], fxu_free_[1], fpu_free_[0],
                                fpu_free_[1], icu_free_, pipe_cycle_});
  t.start_cycle = now;
  trace_sink_ = &t;
  for (std::uint32_t it = 0; it < iterations; ++it) {
    trace_iteration_ = it;
    now = run_iteration(kernel, now, /*counting=*/false, scratch);
  }
  trace_sink_ = nullptr;
  t.end_cycle = now;
  return t;
}

RunResult Power2Core::run(const KernelDesc& kernel) {
  return run(kernel, kernel.measure_iters);
}

RunResult Power2Core::run(const KernelDesc& kernel,
                          std::uint64_t measure_iters) {
  std::int64_t wall_us = 0;
  RunResult out = run_counted(kernel, measure_iters, &wall_us);
  note_kernel_run(out, wall_us);
  return out;
}

RunResult Power2Core::run_counted(const KernelDesc& kernel,
                                  std::uint64_t measure_iters,
                                  std::int64_t* wall_us_out) {
  const std::int64_t wall_begin_us = telemetry::wall_now_us();
  bind(kernel);

  EventCounts scratch;
  std::uint64_t now = std::max({fxu_free_[0], fxu_free_[1], fpu_free_[0],
                                fpu_free_[1], icu_free_});

  // Compulsory I-cache fill of the loop body text.
  const std::uint64_t body_bytes = kernel.body.size() * kInstBytes;
  const std::uint64_t ibase = 1ULL << 30;
  std::uint64_t ireloads = 0;
  for (std::uint64_t off = 0; off < body_bytes;
       off += icache_.config().line_bytes) {
    if (!icache_.access(ibase + off, /*is_store=*/false).hit) ++ireloads;
  }
  now += ireloads * cfg_.dcache_miss_halt;

  for (std::uint64_t it = 0; it < kernel.warmup_iters; ++it) {
    now = run_iteration(kernel, now, /*counting=*/false, scratch);
  }

  EventCounts ev;
  ev.icache_reload += ireloads;
  const std::uint64_t start = now;
  for (std::uint64_t it = 0; it < measure_iters; ++it) {
    now = run_iteration(kernel, now, /*counting=*/true, ev);
  }
  ev.cycles = now - start;

  // Retire-batch audit: the accumulated counts of a measured run must obey
  // every cross-counter identity exactly (no scaling involved here).
  P2SIM_AUDIT_EVENTS(ev, kExact, "power2::Power2Core::run");
  P2SIM_INVARIANT(
      ev.instructions() <=
          (ev.cycles + 1) * static_cast<std::uint64_t>(cfg_.dispatch_width),
      "ICU dispatch width bounds completed instructions per cycle");

  RunResult out;
  out.counts = ev;
  out.iterations = measure_iters;
  if (wall_us_out != nullptr) {
    *wall_us_out = telemetry::wall_now_us() - wall_begin_us;
  }
  return out;
}

void Power2Core::note_kernel_run(const RunResult& result,
                                 std::int64_t wall_us) {
  // Telemetry: kernel runs are not on the campaign clock, so their spans
  // advance the session's dedicated engine timeline by each run's simulated
  // duration.  The cycle histogram is deterministic; the throughput
  // histogram is wall-clock-fed and flagged as such.
  if (auto* tel = telemetry::current()) {
    const std::uint64_t cycles = result.counts.cycles;
    const double sim_s = telemetry::seconds_from_cycles(cycles);
    auto span =
        telemetry::span("power2", "kernel_run", tel->engine_clock_s);
    span.arg("iterations", static_cast<double>(result.iterations));
    span.arg("cycles", static_cast<double>(cycles));
    tel->engine_clock_s += sim_s;
    span.close(tel->engine_clock_s);
    tel->registry
        .histogram("p2sim_core_run_cycles",
                   "Simulated cycles per measured kernel run",
                   telemetry::exponential_buckets(1e3, 10.0, 7))
        .observe(static_cast<double>(cycles));
    if (wall_us > 0) {
      tel->registry
          .histogram("p2sim_core_cycles_per_wall_second",
                     "Engine throughput: simulated cycles per wall second",
                     telemetry::exponential_buckets(1e6, 10.0, 7),
                     /*wall_clock=*/true)
          .observe(static_cast<double>(cycles) * 1e6 /
                   static_cast<double>(wall_us));
    }
  }
}

}  // namespace p2sim::power2
