// Cycle-approximate POWER2 core model.
//
// Executes a KernelDesc loop body instruction-by-instruction through an
// in-order dual-FXU / dual-FPU / ICU pipeline with the documented dispatch
// behaviour:
//   * the ICU dispatches up to 4 instructions per cycle (section 2);
//   * floating-point instructions steer to FPU0 first, spilling to FPU1
//     when FPU0 is occupied — dependence-poor code therefore splits evenly
//     while dependence-bound code piles onto FPU0, which is exactly the
//     mechanism the paper gives for the measured FPU0/FPU1 ratio of 1.7;
//   * FXU1 alone executes address multiply/divide, while FXU0 is charged
//     with D-cache miss handling (its pipe is held for the refill);
//   * a D-cache miss halts issue for 8 cycles, a TLB miss for a uniformly
//     drawn 36-54 cycles (section 5).
// Alternative steering policies are provided for the ablation_dispatch
// experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/power2/cache.hpp"
#include "src/power2/event_counts.hpp"
#include "src/power2/kernel_desc.hpp"
#include "src/power2/tlb.hpp"
#include "src/telemetry/clock.hpp"
#include "src/util/rng.hpp"

namespace p2sim::power2 {

/// How floating-point instructions pick a unit (ablation knob; the real
/// machine implements kFpu0First).
enum class FpuSteering {
  kFpu0First,     ///< try FPU0, spill to FPU1 when busy (POWER2 behaviour)
  kRoundRobin,    ///< strict alternation
  kEarliestFree,  ///< idealized: whichever unit frees first
};

/// How fixed-point instructions pick a unit.  The measured NAS workload has
/// FXU1 executing ~1.5x the instructions of FXU0 (Table 3); kFxu1Preferred
/// reproduces this: FXU0's availability is reduced by miss handling and the
/// steering prefers FXU1 when both are free.
enum class FxuSteering {
  kFxu1Preferred,
  kRoundRobin,
};

struct CoreConfig {
  CacheConfig dcache{};  // defaults: 256 kB, 4-way, 256 B lines
  CacheConfig icache{.size_bytes = 32 * 1024, .line_bytes = 128, .ways = 2};
  TlbConfig tlb{};

  std::uint32_t dispatch_width = 4;   ///< ICU dispatch slots per cycle
  std::uint32_t dcache_miss_halt = 8; ///< cycles issue halts on a D-miss
  std::uint32_t tlb_miss_min = 36;    ///< TLB refill window (uniform draw)
  std::uint32_t tlb_miss_max = 54;

  FpuSteering fpu_steering = FpuSteering::kFpu0First;
  FxuSteering fxu_steering = FxuSteering::kFxu1Preferred;

  std::uint64_t rng_seed = 0x5eed5eedULL;
};

/// One instruction's issue record (tracing mode).
struct IssueEvent {
  std::uint32_t iteration = 0;
  std::uint16_t body_index = 0;
  OpClass op = OpClass::kFpAdd;
  /// Unit the instruction executed on: 0/1 for FXU or FPU pairs, 0 for ICU.
  std::uint8_t unit = 0;
  std::uint64_t issue_cycle = 0;
  std::uint64_t ready_cycle = 0;
  bool dcache_miss = false;
  bool tlb_miss = false;
};

/// A recorded issue schedule: the simulator's equivalent of a pipeline
/// diagram, used for debugging kernels and for schedule-invariant tests.
struct IssueTrace {
  std::vector<IssueEvent> events;
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;

  /// Renders a compact text listing (one line per event).
  std::string format(std::size_t max_events = 200) const;
};

/// Result of running a kernel for a number of measured iterations.
struct RunResult {
  EventCounts counts;            ///< includes counts.cycles
  std::uint64_t iterations = 0;  ///< measured iterations

  P2SIM_PAR_SAFE double cycles_per_iter() const {
    return iterations ? static_cast<double>(counts.cycles) /
                            static_cast<double>(iterations)
                      : 0.0;
  }
  /// Achieved Mflops at the given clock (defaults to the SP2's 66.7 MHz).
  double mflops(double clock_hz = telemetry::kClockHz) const;
};

class Power2Core {
 public:
  /// A fresh core is fully reset (cold caches/TLB, zeroed pipeline clock);
  /// construction touches only this instance, so parallel measurement
  /// workers build private cores freely.
  P2SIM_PAR_SAFE explicit Power2Core(const CoreConfig& cfg = {});

  /// Runs warmup_iters uncounted, then measure_iters counted.  Cache and
  /// TLB contents persist across calls unless reset() is used; callers
  /// modelling distinct processes should reset between kernels.  A run
  /// starts after any halt the previous run ended in, which that run has
  /// already counted.
  RunResult run(const KernelDesc& kernel);

  /// Runs a specific number of measured iterations (after the kernel's own
  /// warmup), overriding kernel.measure_iters.  Equivalent to
  /// run_counted() followed by note_kernel_run().
  RunResult run(const KernelDesc& kernel, std::uint64_t measure_iters);

  /// The deterministic measurement body of run(): warmup + counted
  /// iterations, audits included, but no telemetry emission — safe on a
  /// worker-private core inside the parallel measurement phase.  When
  /// `wall_us_out` is non-null it receives the wall-clock duration of the
  /// run so the caller can later feed note_kernel_run().
  P2SIM_PAR_SAFE RunResult run_counted(const KernelDesc& kernel,
                                       std::uint64_t measure_iters,
                                       std::int64_t* wall_us_out = nullptr);

  /// The telemetry tail of run(), split out so batched (parallel) kernel
  /// measurement can replay its spans and histograms serially, in a
  /// deterministic order, against the session's engine timeline.  Pass the
  /// wall_us captured by run_counted (<= 0 skips the wall-fed histogram).
  P2SIM_SERIAL_ONLY static void note_kernel_run(const RunResult& result,
                                                std::int64_t wall_us);

  /// Runs `iterations` of the kernel (no warmup) while recording every
  /// instruction's issue: the pipeline-diagram view.  Intended for short
  /// runs; the trace grows by body.size() events per iteration.
  IssueTrace trace(const KernelDesc& kernel, std::uint32_t iterations);

  /// Flushes caches/TLB and resets the pipeline clock.
  void reset();

  const CoreConfig& config() const { return cfg_; }

 private:
  /// The unit family a predecoded instruction issues to.
  enum class Unit : std::uint8_t { kFpu, kFxu, kMem, kIcu };

  /// One body instruction as the inner loop needs it, decoded by bind().
  struct Decoded {
    OpClass op = OpClass::kFpAdd;
    Unit unit = Unit::kIcu;
    std::uint8_t busy = 1;     ///< cycles the chosen unit stays occupied
    std::uint8_t latency = 1;  ///< issue to result, before any memory halt
    std::uint8_t stream = 0;   ///< memory ops only
    bool fxu1_only = false;    ///< address multiply/divide
    bool store = false;
    bool quad = false;
    /// Ready-time slots read by the op: the producer's body index, or the
    /// body size (a slot that is always 0) for kNoDep.
    std::uint32_t dep = 0;
    std::uint32_t carried = 0;
  };

  /// One memory stream: its walk, and the D-cache line and TLB entry its
  /// last access left it in (the resident-line fast path; see Cache).
  struct Stream {
    std::uint64_t base = 0;    ///< streams live in disjoint address regions
    std::uint64_t cursor = 0;  ///< bytes walked, in [0, footprint)
    std::int64_t footprint = 0;
    std::int64_t stride = 0;
    std::uint64_t block = kNoHint;  ///< resident D-cache block, or kNoHint
    std::uint32_t line = 0;         ///< its slot in the D-cache
    std::uint64_t page = kNoHint;   ///< resident virtual page, or kNoHint
    std::uint32_t entry = 0;        ///< its slot in the TLB
  };
  static constexpr std::uint64_t kNoHint = ~std::uint64_t{0};

  /// Predecodes `kernel` and resets the per-run loop state.
  P2SIM_PAR_SAFE void bind(const KernelDesc& kernel);

  /// The cycle a new run may start in: after every unit frees and after
  /// any halt the previous run ended in.
  P2SIM_PAR_SAFE std::uint64_t resume_cycle() const;

  /// The one inner loop: runs `iterations` of the bound kernel from cycle
  /// `now` and returns the cycle after the last loop branch issues.
  /// kCounting adds the events that depend on the machine state (misses,
  /// TLB stall cycles, reloads, dirty evictions, I-cache refills) to `ev`
  /// and each instruction's unit-1 picks to unit1_; kTracing appends every
  /// issue to `sink`.  Draws microarchitectural jitter only from the
  /// core-private rng_.
  template <bool kCounting, bool kTracing>
  P2SIM_PAR_SAFE std::uint64_t run_loop(std::uint64_t now,
                                        std::uint64_t iterations,
                                        EventCounts& ev, IssueTrace* sink);

  /// Adds the rest of a measured run's counts to `ev`: `iterations` x the
  /// predecoded body, with unit-0 counts as that total minus unit1_, and
  /// the D-cache stall cycles of the misses the loop counted.
  P2SIM_PAR_SAFE void count_body(std::uint64_t iterations,
                                 EventCounts& ev) const;

  CoreConfig cfg_;
  Cache dcache_;
  Cache icache_;
  Tlb tlb_;
  util::Xoshiro256StarStar rng_;

  // Pipeline unit availability (absolute cycle when the unit frees).
  std::uint64_t fxu_free_[2] = {0, 0};
  std::uint64_t fpu_free_[2] = {0, 0};
  std::uint64_t icu_free_ = 0;
  bool fpu_rr_toggle_ = false;
  bool fxu_rr_toggle_ = false;
  // Dispatch bookkeeping persists across iterations and runs: the cycle
  // currently receiving instructions and how many were issued in it.
  std::uint64_t pipe_cycle_ = 0;
  std::uint32_t pipe_issued_ = 0;

  // The bound kernel, predecoded.
  std::vector<Decoded> body_;
  std::vector<Stream> streams_;
  bool icache_pressure_ = false;
  double icache_refill_p_ = 0.0;  ///< per-iteration I-cache refill chance

  // Result-ready times by body position (plus the always-0 slot): the
  // current and the previous iteration (for loop-carried dependencies).
  std::vector<std::uint64_t> ready_cur_;
  std::vector<std::uint64_t> ready_prev_;
  // Measured iterations each body instruction ran on unit 1.
  std::vector<std::uint64_t> unit1_;
};

}  // namespace p2sim::power2
