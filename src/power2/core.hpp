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
  /// Measured iterations whose schedule the pipeline pass replayed from
  /// its memo instead of recomputing (engine cost only: the counts are
  /// the same either way).
  std::uint64_t replayed = 0;

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

  /// One body instruction as the pipeline pass needs it, decoded by bind().
  struct Decoded {
    OpClass op = OpClass::kFpAdd;
    Unit unit = Unit::kIcu;
    std::uint8_t busy = 1;     ///< cycles the chosen unit stays occupied
    std::uint8_t latency = 1;  ///< issue to result, before any memory halt
    bool fxu1_only = false;    ///< address multiply/divide
    bool quad = false;
    /// Ready-time slots read by the op: the producer's body index, or the
    /// body size (a slot that is always 0) for kNoDep.
    std::uint32_t dep = 0;
    std::uint32_t carried = 0;
  };

  /// One memory instruction as the memory pass needs it.
  struct MemOp {
    std::uint32_t index = 0;  ///< body position
    std::uint8_t stream = 0;
    bool store = false;
  };

  /// One memory stream: its walk, the D-cache line and TLB entry its last
  /// access left it in (the resident-line fast path; see Cache), how many
  /// upcoming accesses stay there, and the LRU stamp they deferred.
  struct Stream {
    std::uint64_t base = 0;    ///< streams live in disjoint address regions
    std::uint64_t cursor = 0;  ///< bytes walked, in [0, footprint)
    std::int64_t footprint = 0;
    std::int64_t stride = 0;
    std::uint64_t block = kNoHint;  ///< resident D-cache block, or kNoHint
    std::uint32_t line = 0;         ///< its slot in the D-cache
    std::uint64_t page = kNoHint;   ///< resident virtual page, or kNoHint
    std::uint32_t entry = 0;        ///< its slot in the TLB
    /// Upcoming accesses that land in `block` and `page` and step without
    /// wrapping the footprint: each is a hit on both slots.
    std::uint64_t left = 0;
    std::uint64_t pending = 0;    ///< tick of the deferred stamp, 0 if none
    bool pending_dirty = false;   ///< a deferred access was a store
    // The stream's share of one iteration, from bind().
    std::uint32_t per_iter = 0;   ///< accesses per iteration
    std::uint32_t last = 0;       ///< memory-op position of the last one
    bool stores = false;          ///< any of them is a store
  };
  static constexpr std::uint64_t kNoHint = ~std::uint64_t{0};

  /// The pipeline state an iteration starts from and hands on.
  struct Pipe {
    std::uint64_t cycle = 0;   ///< the dispatch cycle receiving instructions
    std::uint64_t issued = 0;  ///< instructions already dispatched in it
    std::uint64_t fxu[2] = {0, 0};  ///< absolute cycle each unit frees
    std::uint64_t fpu[2] = {0, 0};
    std::uint64_t icu = 0;
    bool fpu_rr = false;
    bool fxu_rr = false;
  };

  static constexpr unsigned kDcacheMiss = 1;
  static constexpr unsigned kTlbMiss = 2;

  /// Entries the schedule memo holds per bound kernel; a full memo stops
  /// inserting and the remaining distinct schedules are computed in full.
  static constexpr std::uint32_t kMemoEntries = 2048;
  static constexpr int kMemoBits = 12;  ///< log2 of the table's slots
  static constexpr std::uint32_t kMemoSlots = 1U << kMemoBits;
  static_assert(kMemoSlots >= 2 * kMemoEntries);
  /// Memo words before the loop-carried slots: the key holds the issued
  /// count, the steering toggles and refill flag, and five unit times; the
  /// outcome adds the dispatch advance in front.
  static constexpr std::uint32_t kKeyFixed = 7;
  static constexpr std::uint32_t kOutFixed = 8;
  /// Bound on every offset a memo word holds.
  static constexpr std::int64_t kMaxOffset = std::int64_t{1} << 30;

  /// Predecodes `kernel`, resets the per-run loop state and empties the
  /// schedule memo.
  P2SIM_PAR_SAFE void bind(const KernelDesc& kernel);

  /// The cycle a new run may start in: after every unit frees and after
  /// any halt the previous run ended in.
  P2SIM_PAR_SAFE std::uint64_t resume_cycle() const;

  /// The one loop: runs `iterations` of the bound kernel from cycle `now`
  /// and returns the cycle after the last loop branch issues.  Each
  /// iteration runs a memory pass (every access, miss and draw, in program
  /// order) and then a pipeline pass (the schedule, replayed from the memo
  /// when an earlier iteration started from the same relative state with
  /// the same halts).  kCounting adds the events that depend on the
  /// machine state (misses, TLB stall cycles, reloads, dirty evictions,
  /// I-cache refills) to `ev` and each instruction's unit-1 picks to
  /// unit1_; kTracing appends every issue to `sink` and never replays.
  /// Draws microarchitectural jitter only from the core-private rng_.
  template <bool kCounting, bool kTracing>
  P2SIM_PAR_SAFE std::uint64_t run_loop(std::uint64_t now,
                                        std::uint64_t iterations,
                                        EventCounts& ev, IssueTrace* sink);

  /// The memory pass of one iteration: performs its accesses from `tick`,
  /// leaves each memory op's halt in halt_ (D-miss and TLB-miss flags in
  /// miss_, the D-miss pattern in miss_mask_) and returns true if a TLB
  /// miss drew a penalty.
  template <bool kCounting>
  P2SIM_PAR_SAFE bool memory_pass(std::uint64_t& tick, EventCounts& ev);

  /// One access outside its stream's resident run: the full hint check,
  /// lookups and fills.  Leaves its halt in halt_ and returns its miss
  /// flags (kDcacheMiss, kTlbMiss).
  template <bool kCounting>
  P2SIM_PAR_SAFE unsigned slow_access(const MemOp& op, std::uint64_t tick,
                                      EventCounts& ev);

  /// Accesses stream `s` makes from its cursor before leaving its
  /// resident block or page or wrapping its footprint.
  P2SIM_PAR_SAFE std::uint64_t resident_run(const Stream& s) const;

  /// Writes every deferred LRU stamp and dirty bit to the D-cache and TLB.
  P2SIM_PAR_SAFE void flush_pending();

  /// The pipeline pass computed in full, from `p` with the halts the
  /// memory pass left.  With `record` it leaves each instruction's unit
  /// in picks_ for the memo.
  template <bool kCounting, bool kTracing>
  P2SIM_PAR_SAFE void schedule(Pipe& p, std::uint64_t iteration,
                               std::uint64_t* cur, const std::uint64_t* prev,
                               bool record, IssueTrace* sink);

  /// Raises every time in `p` and every loop-carried ready time in `prev`
  /// that only meets comparisons against an `earliest` >= p.cycle (or a
  /// max() with one) to p.cycle, which changes no decision, and writes
  /// the memo key of the iteration starting from there (with the I-cache
  /// refill flag `refill`) into key_.  False if an offset does not fit.
  P2SIM_PAR_SAFE bool canonical_key(Pipe& p, std::uint64_t* prev,
                                    bool refill);

  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

  /// The memo entry whose key equals key_; else kNoEntry, with `slot` set
  /// to the table slot a new entry would take (kMemoSlots when the memo
  /// is full).
  P2SIM_PAR_SAFE std::uint32_t memo_find(std::uint32_t& slot) const;
  /// Applies entry's outcome to an iteration that started in cycle `b`.
  P2SIM_PAR_SAFE void replay(std::uint32_t entry, std::uint64_t b, Pipe& p,
                             std::uint64_t* cur) const;
  /// Stores key_ and the outcome of the iteration computed in full from
  /// cycle `b` (with its picks in picks_) as a new entry in table slot
  /// `slot`, unless an offset does not fit.
  P2SIM_PAR_SAFE void memo_record(std::uint32_t slot, std::uint64_t b,
                                  const Pipe& p, const std::uint64_t* cur);
  /// Where an entry's row (its key, then its outcome) starts.
  std::size_t row_of(std::uint32_t entry) const {
    return entry * (std::size_t{key_words_} + out_words_);
  }

  /// Adds the unit-1 picks of the measured iterations replayed since the
  /// last call to unit1_ and returns how many there were.
  P2SIM_PAR_SAFE std::uint64_t settle_replays();

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
  int line_shift_ = 0;  ///< log2 of the D-cache line
  int page_shift_ = 0;  ///< log2 of the page

  // Pipeline state.  Dispatch bookkeeping persists across iterations and
  // runs: the loop branch does not reset the dispatcher.
  Pipe pipe_;

  // The bound kernel, predecoded.
  std::vector<Decoded> body_;
  std::vector<MemOp> mem_ops_;
  std::vector<Stream> streams_;
  std::vector<std::uint8_t> used_streams_;  ///< streams the body touches
  std::vector<std::uint8_t> pending_;  ///< streams holding a stamp, first
  std::uint32_t pending_count_ = 0;    ///< pending_count_ entries of it
  bool fpu_clamped_ = true;  ///< FPU free times may be clamped in the key
  bool icache_pressure_ = false;
  double icache_refill_p_ = 0.0;  ///< per-iteration I-cache refill chance

  // The memory pass's output, by body position (0 for non-memory ops),
  // and its D-miss pattern, one bit per memory op.
  std::vector<std::uint32_t> halt_;
  std::vector<std::uint8_t> miss_;  ///< bit 0 D-cache miss, bit 1 TLB miss
  std::vector<std::uint32_t> miss_mask_;
  bool halts_set_ = false;  ///< halt_/miss_/miss_mask_ hold a nonzero entry

  // Result-ready times by body position (plus the always-0 slot): the
  // current and the previous iteration (for loop-carried dependencies).
  std::vector<std::uint64_t> ready_cur_;
  std::vector<std::uint64_t> ready_prev_;
  std::vector<std::uint32_t> carried_;  ///< slots read across iterations
  // Measured iterations each body instruction ran on unit 1.
  std::vector<std::uint64_t> unit1_;

  // The schedule memo: an open-addressed table of entry numbers + 1, and
  // per entry a row (its key and its outcome), its unit-1 picks (one bit
  // per body instruction) and its measured replays not yet added to
  // unit1_.
  std::vector<std::uint32_t> memo_slots_;
  std::vector<std::int32_t> memo_rows_;
  std::vector<std::uint64_t> memo_picks_;
  std::vector<std::uint64_t> memo_hits_;
  std::uint32_t memo_size_ = 0;
  std::uint32_t key_words_ = 0;
  std::uint32_t out_words_ = 0;
  std::uint32_t pick_words_ = 0;
  std::vector<std::int32_t> key_;       ///< the current iteration's key
  std::vector<std::uint64_t> picks_;    ///< the current full pass's picks
};

}  // namespace p2sim::power2
