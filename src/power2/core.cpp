#include "src/power2/core.hpp"

#include <algorithm>
#include <bit>
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
}

void Power2Core::bind(const KernelDesc& kernel) {
  if (auto err = kernel.validate(); !err.empty()) {
    throw std::invalid_argument("kernel '" + kernel.name + "': " + err);
  }
  const std::size_t n = kernel.body.size();
  const auto slot = [n](std::int16_t dep) {
    return dep == kNoDep ? static_cast<std::uint32_t>(n)
                         : static_cast<std::uint32_t>(dep);
  };
  body_.clear();
  for (const Instr& in : kernel.body) {
    Decoded d;
    d.op = in.op;
    d.dep = slot(in.dep);
    d.carried = slot(in.carried_dep);
    if (is_floating_point(in.op)) {
      d.unit = Unit::kFpu;
      d.busy = static_cast<std::uint8_t>(fp_busy(in.op));
      d.latency = static_cast<std::uint8_t>(fp_latency(in.op));
    } else if (is_fixed_point(in.op)) {
      d.unit = is_memory(in.op) ? Unit::kMem : Unit::kFxu;
      d.fxu1_only =
          in.op == OpClass::kFxAddrMul || in.op == OpClass::kFxAddrDiv;
      // Address multiply/divide are multicycle on FXU1.
      d.busy = in.op == OpClass::kFxAddrMul   ? 3
               : in.op == OpClass::kFxAddrDiv ? 13
                                              : 1;
      d.latency = d.busy;
      d.stream = in.stream;
      d.store = in.op == OpClass::kFxStore;
      d.quad = in.quad;
    }
    body_.push_back(d);
  }
  ready_cur_.assign(n + 1, 0);
  ready_prev_.assign(n + 1, 0);
  unit1_.assign(n, 0);

  // Streams occupy disjoint page-aligned regions with a guard gap, so that
  // distinct arrays never alias in the cache by construction (conflict
  // misses still arise from set contention, as in reality).
  streams_.clear();
  std::uint64_t next = 1ULL << 20;
  for (const MemStream& s : kernel.streams) {
    Stream& st = streams_.emplace_back();
    st.base = next;
    st.footprint = static_cast<std::int64_t>(s.footprint_bytes);
    st.stride = s.stride_bytes;
    const std::uint64_t page = tlb_.config().page_bytes;
    const std::uint64_t span = (s.footprint_bytes + page - 1) / page * page;
    next += span + 16 * page;
  }

  // Occasional I-cache refill beyond the steady-state loop (subroutine-rich
  // codes), drawn once per iteration from the kernel's pressure parameter.
  icache_pressure_ = kernel.icache_miss_per_kinst > 0.0;
  icache_refill_p_ = std::min(
      kernel.icache_miss_per_kinst * static_cast<double>(n) / 1000.0, 1.0);
}

std::uint64_t Power2Core::resume_cycle() const {
  return std::max({fxu_free_[0], fxu_free_[1], fpu_free_[0], fpu_free_[1],
                   icu_free_, pipe_cycle_});
}

template <bool kCounting, bool kTracing>
std::uint64_t Power2Core::run_loop(std::uint64_t now, std::uint64_t iterations,
                                   EventCounts& ev, IssueTrace* sink) {
  const Decoded* const body = body_.data();
  const std::size_t n = body_.size();
  Stream* const streams = streams_.data();
  std::uint64_t* cur = ready_cur_.data();
  std::uint64_t* prev = ready_prev_.data();
  std::uint64_t* const unit1 = unit1_.data();
  const std::uint64_t width = cfg_.dispatch_width;
  const std::uint64_t miss_halt = cfg_.dcache_miss_halt;
  const FpuSteering fpu_steering = cfg_.fpu_steering;
  const bool fxu1_preferred = cfg_.fxu_steering == FxuSteering::kFxu1Preferred;
  const int line_shift =
      std::countr_zero(std::uint64_t{dcache_.config().line_bytes});
  const int page_shift =
      std::countr_zero(std::uint64_t{tlb_.config().page_bytes});

  // The pipeline state lives in locals for the whole loop.  `issue_cycle`
  // and `issued` implement the ICU dispatch limit; they persist across
  // iterations (the loop branch does not reset the dispatcher), so the
  // width bound holds at iteration boundaries too.
  std::uint64_t issue_cycle = pipe_cycle_;
  std::uint64_t issued = pipe_issued_;
  if (now > issue_cycle) {
    issue_cycle = now;
    issued = 0;
  }
  std::uint64_t fxu0 = fxu_free_[0], fxu1 = fxu_free_[1];
  std::uint64_t fpu0 = fpu_free_[0], fpu1 = fpu_free_[1];
  std::uint64_t icu = icu_free_;
  bool fpu_rr = fpu_rr_toggle_, fxu_rr = fxu_rr_toggle_;
  // The D-cache and the TLB see exactly one access each per memory op, so
  // one tick serves both.
  P2SIM_INVARIANT(dcache_.tick() == tlb_.tick(),
                  "the D-cache and TLB tick in lockstep");
  std::uint64_t tick = dcache_.tick();

  for (std::uint64_t it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      const Decoded& in = body[i];
      // Earliest issue: program order + dispatch slots + data dependencies.
      const std::uint64_t earliest =
          std::max({issued >= width ? issue_cycle + 1 : issue_cycle,
                    cur[in.dep], prev[in.carried]});
      std::uint64_t issue_at;
      std::uint64_t halt = 0;
      unsigned u = 0;
      bool dmiss = false;
      bool tmiss = false;

      if (in.unit == Unit::kFpu) {
        switch (fpu_steering) {
          case FpuSteering::kFpu0First:
            // Section 5 semantics: FPU0 is the default target; the stream
            // spills to FPU1 only while FPU0 is occupied (a multicycle op
            // in flight, or a same-cycle instruction already issued
            // there), and to whichever frees first when both are.
            // Dependence-bound code therefore concentrates on FPU0 while
            // independent bursts dual-issue and split evenly: the paper's
            // measured FPU0/FPU1 ratio of 1.7, and its note that high-ILP
            // workloads sit closer to 1.
            if (fpu0 <= earliest) {
              u = 0;
            } else if (fpu1 <= earliest) {
              u = 1;
            } else {
              u = fpu0 > fpu1 ? 1 : 0;
            }
            break;
          case FpuSteering::kRoundRobin:
            u = fpu_rr ? 1 : 0;
            fpu_rr = !fpu_rr;
            break;
          case FpuSteering::kEarliestFree:
          default:
            u = fpu0 > fpu1 ? 1 : 0;
            break;
        }
        issue_at = std::max(earliest, u ? fpu1 : fpu0);
        const std::uint64_t freed = issue_at + in.busy;
        fpu0 = u ? fpu0 : freed;
        fpu1 = u ? freed : fpu1;
      } else if (in.unit == Unit::kIcu) {
        // Branches and condition-register ops, one per cycle.
        issue_at = std::max(earliest, icu);
        icu = issue_at + 1;
      } else {
        // "FXU1 has the sole responsibility for divide and multiply";
        // otherwise FXU1 first, FXU0 when FXU1 is busy, else the first free.
        if (fxu1_preferred) {
          if (fxu1 <= earliest) {
            u = 1;
          } else if (fxu0 <= earliest) {
            u = 0;
          } else {
            u = fxu1 <= fxu0 ? 1 : 0;
          }
        } else {
          u = fxu_rr ? 1 : 0;
          fxu_rr = fxu_rr != !in.fxu1_only;  // address ops skip their turn
        }
        if (in.fxu1_only) u = 1;
        issue_at = std::max(earliest, u ? fxu1 : fxu0);
        const std::uint64_t freed = issue_at + in.busy;
        fxu0 = u ? fxu0 : freed;
        fxu1 = u ? freed : fxu1;

        if (in.unit == Unit::kMem) {
          Stream& s = streams[in.stream];
          const std::uint64_t addr = s.base + s.cursor;
          // Advance the cursor, wrapping within the footprint (negative
          // strides walk backwards).  The cursor stays in [0, fp), so a
          // step that lands inside the footprint needs no division; only
          // a wrap takes the signed remainder, which yields the same
          // offset.
          std::int64_t nxt = static_cast<std::int64_t>(s.cursor) + s.stride;
          if (nxt < 0 || nxt >= s.footprint) [[unlikely]] {
            nxt %= s.footprint;
            if (nxt < 0) nxt += s.footprint;
          }
          s.cursor = static_cast<std::uint64_t>(nxt);
          ++tick;

          const std::uint64_t page = addr >> page_shift;
          if (page == s.page) [[likely]] {
            tlb_.touch(s.entry, tick);
          } else {
            const Tlb::Placement p = tlb_.lookup(page, tick);
            if (!p.hit) {
              halt = cfg_.tlb_miss_min +
                     rng_.below(cfg_.tlb_miss_max - cfg_.tlb_miss_min + 1);
              tmiss = true;
              if (kCounting) {
                ev.tlb_miss += 1;
                ev.stall_tlb += halt;
              }
              // Forget every hint naming the entry this fill replaced.
              if (p.replaced) {
                for (Stream& o : streams_) {
                  if (o.entry == p.slot) o.page = kNoHint;
                }
              }
            }
            s.page = page;
            s.entry = p.slot;
          }

          const std::uint64_t block = addr >> line_shift;
          if (block == s.block) [[likely]] {
            dcache_.touch(s.line, tick, in.store);
          } else {
            const Cache::Placement p = dcache_.lookup(block, in.store, tick);
            if (!p.access.hit) {
              dmiss = true;
              halt += miss_halt;
              // FXU0 performs the directory search / refill bookkeeping
              // for misses, holding its pipe for the halt duration (unless
              // this very instruction already claimed FXU0).
              if (u != 0) fxu0 = std::max(fxu0, issue_at + halt);
              if (kCounting) {
                ev.dcache_miss += 1;
                ev.dcache_reload += p.access.reload ? 1 : 0;
                ev.dcache_store += p.access.dirty_evict ? 1 : 0;
              }
              // Forget every hint naming the line this fill replaced.
              if (p.replaced) {
                for (Stream& o : streams_) {
                  if (o.line == p.slot) o.block = kNoHint;
                }
              }
            }
            if (p.resident) {
              s.block = block;
              s.line = p.slot;
            }
          }
        }
      }

      // "Execution may halt ... while the reference is satisfied."  Issue
      // never moves backwards (earliest >= issue_cycle), so without a halt
      // the dispatcher simply follows this instruction.
      const std::uint64_t ready = issue_at + in.latency + halt;
      issued = halt != 0 ? 0 : issue_at > issue_cycle ? 1 : issued + 1;
      issue_cycle = issue_at + halt;
      cur[i] = ready;
      if (kCounting) unit1[i] += u;
      if (kTracing) {
        sink->events.push_back({static_cast<std::uint32_t>(it),
                                static_cast<std::uint16_t>(i), in.op,
                                static_cast<std::uint8_t>(u), issue_at, ready,
                                dmiss, tmiss});
      }
    }

    if (icache_pressure_ && rng_.chance(icache_refill_p_)) {
      if (kCounting) ev.icache_reload += 1;
      issue_cycle += miss_halt;
    }
    std::swap(cur, prev);
  }

  // Write the pipeline state back; ready_prev_ must name the last
  // iteration's ready times.
  if (prev != ready_prev_.data()) std::swap(ready_cur_, ready_prev_);
  fxu_free_[0] = fxu0;
  fxu_free_[1] = fxu1;
  fpu_free_[0] = fpu0;
  fpu_free_[1] = fpu1;
  icu_free_ = icu;
  fpu_rr_toggle_ = fpu_rr;
  fxu_rr_toggle_ = fxu_rr;
  pipe_cycle_ = issue_cycle;
  pipe_issued_ = static_cast<std::uint32_t>(issued);
  dcache_.settle(tick);
  tlb_.settle(tick);
  return issue_cycle;
}

void Power2Core::count_body(std::uint64_t iterations, EventCounts& ev) const {
  for (std::size_t i = 0; i < body_.size(); ++i) {
    const Decoded& in = body_[i];
    const std::uint64_t on1 = unit1_[i];
    const std::uint64_t on0 = iterations - on1;
    switch (in.op) {
      case OpClass::kFpAdd:
        ev.fp_add0 += on0;
        ev.fp_add1 += on1;
        break;
      case OpClass::kFpMul:
        ev.fp_mul0 += on0;
        ev.fp_mul1 += on1;
        break;
      case OpClass::kFpDiv:
        ev.fp_div0 += on0;
        ev.fp_div1 += on1;
        break;
      case OpClass::kFpFma:
        // The fma multiply lands in the fma counter and its add in the add
        // counter (paper, section 5).
        ev.fp_fma0 += on0;
        ev.fp_fma1 += on1;
        ev.fp_add0 += on0;
        ev.fp_add1 += on1;
        break;
      case OpClass::kBranch:
        ev.icu_type1 += iterations;
        break;
      case OpClass::kCondReg:
        ev.icu_type2 += iterations;
        break;
      default:
        break;  // sqrt has no dedicated HPM operation counter
    }
    if (in.unit == Unit::kFpu) {
      ev.fpu0_inst += on0;
      ev.fpu1_inst += on1;
    } else if (in.unit != Unit::kIcu) {
      ev.fxu0_inst += on0;
      ev.fxu1_inst += on1;
    }
    if (in.unit == Unit::kMem) ev.memory_inst += iterations;
    if (in.quad) ev.quad_inst += iterations;
  }
  ev.dispatched_inst += body_.size() * iterations;
  ev.stall_dcache += ev.dcache_miss * cfg_.dcache_miss_halt;
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
  EventCounts unused;
  t.start_cycle = resume_cycle();
  t.end_cycle = run_loop<false, true>(t.start_cycle, iterations, unused, &t);
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

  std::uint64_t now = resume_cycle();

  // Compulsory I-cache fill of the loop body text.
  const std::uint64_t body_bytes = kernel.body.size() * kInstBytes;
  const std::uint64_t ibase = 1ULL << 30;
  std::uint64_t ireloads = 0;
  for (std::uint64_t off = 0; off < body_bytes;
       off += icache_.config().line_bytes) {
    if (!icache_.access(ibase + off, /*is_store=*/false).hit) ++ireloads;
  }
  now += ireloads * cfg_.dcache_miss_halt;

  EventCounts ev;
  now = run_loop<false, false>(now, kernel.warmup_iters, ev, nullptr);
  const std::uint64_t start = now;
  now = run_loop<true, false>(now, measure_iters, ev, nullptr);
  count_body(measure_iters, ev);
  ev.icache_reload += ireloads;
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
