#include "src/power2/core.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "src/check/invariants.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/session.hpp"
#include "src/telemetry/trace.hpp"

namespace p2sim::power2 {
namespace {

/// Bytes of instruction text per body instruction (fixed 32-bit encoding).
constexpr std::uint64_t kInstBytes = 4;

// The passes of run_loop() are inlined into it: left to itself GCC 12
// calls them, which keeps the pipeline state in memory and cost about 5%
// of a serial replay of job kernels.
#define P2SIM_HOT_INLINE [[gnu::always_inline]] inline

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
      rng_(cfg.rng_seed),
      line_shift_(std::countr_zero(std::uint64_t{cfg.dcache.line_bytes})),
      page_shift_(std::countr_zero(std::uint64_t{cfg.tlb.page_bytes})) {
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
  pipe_ = Pipe{};
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
  mem_ops_.clear();
  carried_.clear();
  bool has_fpu = false;
  for (const Instr& in : kernel.body) {
    Decoded d;
    d.op = in.op;
    d.dep = slot(in.dep);
    d.carried = slot(in.carried_dep);
    if (is_floating_point(in.op)) {
      d.unit = Unit::kFpu;
      d.busy = static_cast<std::uint8_t>(fp_busy(in.op));
      d.latency = static_cast<std::uint8_t>(fp_latency(in.op));
      has_fpu = true;
    } else if (is_fixed_point(in.op)) {
      d.unit = is_memory(in.op) ? Unit::kMem : Unit::kFxu;
      d.fxu1_only =
          in.op == OpClass::kFxAddrMul || in.op == OpClass::kFxAddrDiv;
      // Address multiply/divide are multicycle on FXU1.
      d.busy = in.op == OpClass::kFxAddrMul   ? 3
               : in.op == OpClass::kFxAddrDiv ? 13
                                              : 1;
      d.latency = d.busy;
      d.quad = in.quad;
      if (d.unit == Unit::kMem) {
        mem_ops_.push_back({.index = static_cast<std::uint32_t>(body_.size()),
                            .stream = in.stream,
                            .store = in.op == OpClass::kFxStore});
      }
    }
    if (d.carried != n &&
        std::find(carried_.begin(), carried_.end(), d.carried) ==
            carried_.end()) {
      carried_.push_back(d.carried);
    }
    body_.push_back(d);
  }
  ready_cur_.assign(n + 1, 0);
  ready_prev_.assign(n + 1, 0);
  unit1_.assign(n, 0);
  halt_.assign(n, 0);
  miss_.assign(n, 0);
  miss_mask_.assign((mem_ops_.size() + 31) / 32, 0);
  halts_set_ = false;
  // kEarliestFree compares the two FPU free times with each other, so a
  // time before the dispatch cycle still matters there.
  fpu_clamped_ =
      cfg_.fpu_steering != FpuSteering::kEarliestFree || !has_fpu;

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
  used_streams_.clear();
  for (std::size_t j = 0; j < mem_ops_.size(); ++j) {
    Stream& st = streams_[mem_ops_[j].stream];
    if (st.per_iter++ == 0) used_streams_.push_back(mem_ops_[j].stream);
    st.last = static_cast<std::uint32_t>(j);
    st.stores = st.stores || mem_ops_[j].store;
  }
  pending_.assign(streams_.size(), 0);
  pending_count_ = 0;

  // Occasional I-cache refill beyond the steady-state loop (subroutine-rich
  // codes), drawn once per iteration from the kernel's pressure parameter.
  icache_pressure_ = kernel.icache_miss_per_kinst > 0.0;
  icache_refill_p_ = std::min(
      kernel.icache_miss_per_kinst * static_cast<double>(n) / 1000.0, 1.0);

  // An empty schedule memo, keyed and valued for this body.
  key_words_ = static_cast<std::uint32_t>(kKeyFixed + carried_.size() +
                                          miss_mask_.size());
  out_words_ = static_cast<std::uint32_t>(kOutFixed + carried_.size());
  pick_words_ = static_cast<std::uint32_t>((n + 63) / 64);
  key_.assign(key_words_, 0);
  picks_.assign(pick_words_, 0);
  memo_slots_.assign(kMemoSlots, 0);
  memo_rows_.clear();
  memo_picks_.clear();
  memo_hits_.clear();
  memo_size_ = 0;
}

std::uint64_t Power2Core::resume_cycle() const {
  return std::max({pipe_.fxu[0], pipe_.fxu[1], pipe_.fpu[0], pipe_.fpu[1],
                   pipe_.icu, pipe_.cycle});
}

P2SIM_HOT_INLINE void Power2Core::flush_pending() {
  for (std::uint32_t j = 0; j < pending_count_; ++j) {
    Stream& s = streams_[pending_[j]];
    dcache_.touch(s.line, s.pending, s.pending_dirty);
    tlb_.touch(s.entry, s.pending);
    s.pending = 0;
    s.pending_dirty = false;
  }
  pending_count_ = 0;
}

P2SIM_HOT_INLINE std::uint64_t Power2Core::resident_run(
    const Stream& s) const {
  if (s.block == kNoHint || s.page == kNoHint || line_shift_ > page_shift_) {
    return 0;
  }
  // The walk offsets that land in both the block and the page.
  const auto lo = static_cast<std::int64_t>(
      std::max(s.block << line_shift_, s.page << page_shift_) - s.base);
  const auto hi = std::min(
      static_cast<std::int64_t>(std::min((s.block + 1) << line_shift_,
                                         (s.page + 1) << page_shift_) -
                                s.base),
      s.footprint);
  const auto c = static_cast<std::int64_t>(s.cursor);
  if (c < lo || c >= hi) return 0;
  std::int64_t run = s.stride > 0 ? (hi - 1 - c) / s.stride + 1
                                  : (c - lo) / -s.stride + 1;
  // The access whose step wraps the footprint is left to slow_access().
  const std::int64_t after = c + run * s.stride;
  if (after < 0 || after >= s.footprint) --run;
  return static_cast<std::uint64_t>(run);
}

template <bool kCounting>
P2SIM_HOT_INLINE unsigned Power2Core::slow_access(const MemOp& op,
                                                  std::uint64_t tick,
                                                  EventCounts& ev) {
  // Every victim scan must see the stamps the fast accesses deferred.
  flush_pending();
  Stream& s = streams_[op.stream];
  const std::uint64_t addr = s.base + s.cursor;
  // Advance the cursor, wrapping within the footprint (negative strides
  // walk backwards).  The cursor stays in [0, fp), so a step that lands
  // inside the footprint needs no division; only a wrap takes the signed
  // remainder, which yields the same offset.
  std::int64_t nxt = static_cast<std::int64_t>(s.cursor) + s.stride;
  if (nxt < 0 || nxt >= s.footprint) {
    nxt %= s.footprint;
    if (nxt < 0) nxt += s.footprint;
  }
  s.cursor = static_cast<std::uint64_t>(nxt);

  std::uint32_t halt = 0;
  unsigned miss = 0;
  const std::uint64_t page = addr >> page_shift_;
  if (page == s.page) {
    tlb_.touch(s.entry, tick);
  } else {
    const Tlb::Placement p = tlb_.lookup(page, tick);
    if (!p.hit) {
      halt = cfg_.tlb_miss_min +
             static_cast<std::uint32_t>(
                 rng_.below(cfg_.tlb_miss_max - cfg_.tlb_miss_min + 1));
      miss |= kTlbMiss;
      if (kCounting) {
        ev.tlb_miss += 1;
        ev.stall_tlb += halt;
      }
      // Forget every hint naming the entry this fill replaced.
      if (p.replaced) {
        for (Stream& o : streams_) {
          if (o.entry == p.slot) {
            o.page = kNoHint;
            o.left = 0;
          }
        }
      }
    }
    s.page = page;
    s.entry = p.slot;
  }

  const std::uint64_t block = addr >> line_shift_;
  if (block == s.block) {
    dcache_.touch(s.line, tick, op.store);
  } else {
    const Cache::Placement p = dcache_.lookup(block, op.store, tick);
    if (!p.access.hit) {
      miss |= kDcacheMiss;
      halt += cfg_.dcache_miss_halt;
      if (kCounting) {
        ev.dcache_miss += 1;
        ev.dcache_reload += p.access.reload ? 1 : 0;
        ev.dcache_store += p.access.dirty_evict ? 1 : 0;
      }
      // Forget every hint naming the line this fill replaced.
      if (p.replaced) {
        for (Stream& o : streams_) {
          if (o.line == p.slot) {
            o.block = kNoHint;
            o.left = 0;
          }
        }
      }
    }
    if (p.resident) {
      s.block = block;
      s.line = p.slot;
    }
  }
  s.left = resident_run(s);
  if (miss != 0) {
    halt_[op.index] = halt;
    miss_[op.index] = static_cast<std::uint8_t>(miss);
    halts_set_ = true;
  }
  return miss;
}

template <bool kCounting>
P2SIM_HOT_INLINE bool Power2Core::memory_pass(std::uint64_t& tick,
                                              EventCounts& ev) {
  if (halts_set_) {
    for (const MemOp& op : mem_ops_) {
      halt_[op.index] = 0;
      miss_[op.index] = 0;
    }
    std::fill(miss_mask_.begin(), miss_mask_.end(), 0);
    halts_set_ = false;
  }
  Stream* const streams = streams_.data();

  // When every stream's resident run covers its accesses of this
  // iteration, each access is a hit on its stream's line and entry: the
  // whole pass is one cursor step and one deferred stamp per stream.
  bool resident = true;
  for (const std::uint8_t i : used_streams_) {
    if (streams[i].left < streams[i].per_iter) {
      resident = false;
      break;
    }
  }
  if (resident) {
    for (const std::uint8_t i : used_streams_) {
      Stream& s = streams[i];
      s.cursor += static_cast<std::uint64_t>(s.stride) * s.per_iter;
      s.left -= s.per_iter;
      if (s.pending == 0) pending_[pending_count_++] = i;
      s.pending = tick + s.last + 1;
      s.pending_dirty = s.pending_dirty || s.stores;
    }
    tick += mem_ops_.size();
    return false;
  }

  bool tlb_missed = false;
  for (std::size_t j = 0; j < mem_ops_.size(); ++j) {
    const MemOp& op = mem_ops_[j];
    Stream& s = streams[op.stream];
    ++tick;
    if (s.left != 0) {
      s.cursor += static_cast<std::uint64_t>(s.stride);
      --s.left;
      if (s.pending == 0) pending_[pending_count_++] = op.stream;
      s.pending = tick;
      s.pending_dirty = s.pending_dirty || op.store;
      continue;
    }
    const unsigned miss = slow_access<kCounting>(op, tick, ev);
    if (miss & kDcacheMiss) miss_mask_[j / 32] |= 1U << (j % 32);
    tlb_missed = tlb_missed || (miss & kTlbMiss) != 0;
  }
  return tlb_missed;
}

template <bool kCounting, bool kTracing>
P2SIM_HOT_INLINE void Power2Core::schedule(Pipe& p, std::uint64_t iteration,
                                           std::uint64_t* cur,
                                           const std::uint64_t* prev,
                                           bool record, IssueTrace* sink) {
  const Decoded* const body = body_.data();
  const std::size_t n = body_.size();
  const std::uint32_t* const halts = halt_.data();
  const std::uint8_t* const misses = miss_.data();
  std::uint64_t* const unit1 = unit1_.data();
  std::uint64_t* const picks = picks_.data();
  const std::uint64_t width = cfg_.dispatch_width;
  const FpuSteering fpu_steering = cfg_.fpu_steering;
  const bool fxu1_preferred = cfg_.fxu_steering == FxuSteering::kFxu1Preferred;

  // The pipeline state lives in locals for the whole pass.  `issue_cycle`
  // and `issued` implement the ICU dispatch limit; they persist across
  // iterations (the loop branch does not reset the dispatcher), so the
  // width bound holds at iteration boundaries too.
  std::uint64_t issue_cycle = p.cycle;
  std::uint64_t issued = p.issued;
  std::uint64_t fxu0 = p.fxu[0], fxu1 = p.fxu[1];
  std::uint64_t fpu0 = p.fpu[0], fpu1 = p.fpu[1];
  std::uint64_t icu = p.icu;
  bool fpu_rr = p.fpu_rr, fxu_rr = p.fxu_rr;
  if (record) std::fill_n(picks, pick_words_, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const Decoded& in = body[i];
    // Earliest issue: program order + dispatch slots + data dependencies.
    const std::uint64_t earliest =
        std::max({issued >= width ? issue_cycle + 1 : issue_cycle,
                  cur[in.dep], prev[in.carried]});
    const std::uint64_t halt = halts[i];
    std::uint64_t issue_at;
    unsigned u = 0;

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
      // FXU0 performs the directory search / refill bookkeeping for
      // D-cache misses, holding its pipe for the halt duration (unless
      // this very instruction already claimed FXU0).
      if ((misses[i] & kDcacheMiss) != 0 && u != 0) {
        fxu0 = std::max(fxu0, issue_at + halt);
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
      sink->events.push_back({static_cast<std::uint32_t>(iteration),
                              static_cast<std::uint16_t>(i), in.op,
                              static_cast<std::uint8_t>(u), issue_at, ready,
                              (misses[i] & kDcacheMiss) != 0,
                              (misses[i] & kTlbMiss) != 0});
    }
    if (record) picks[i / 64] |= std::uint64_t{u} << (i % 64);
  }

  p.cycle = issue_cycle;
  p.issued = issued;
  p.fxu[0] = fxu0;
  p.fxu[1] = fxu1;
  p.fpu[0] = fpu0;
  p.fpu[1] = fpu1;
  p.icu = icu;
  p.fpu_rr = fpu_rr;
  p.fxu_rr = fxu_rr;
}

bool Power2Core::canonical_key(Pipe& p, std::uint64_t* prev, bool refill) {
  const std::uint64_t b = p.cycle;
  bool fits = p.issued < std::uint64_t{kMaxOffset};
  // Every time below is compared only against an `earliest` >= b, or
  // max()ed with one, so raising it to b changes no decision.
  const auto clamp = [b, &fits](std::uint64_t& t) {
    t = std::max(t, b);
    fits = fits && t - b < std::uint64_t{kMaxOffset};
    return static_cast<std::int32_t>(t - b);
  };
  const auto offset = [b, &fits](std::uint64_t t) {
    const auto d = static_cast<std::int64_t>(t - b);
    fits = fits && d > -kMaxOffset && d < kMaxOffset;
    return static_cast<std::int32_t>(d);
  };
  std::int32_t* k = key_.data();
  k[0] = static_cast<std::int32_t>(p.issued);
  k[1] = (p.fpu_rr ? 1 : 0) | (p.fxu_rr ? 2 : 0) | (refill ? 4 : 0);
  k[2] = clamp(p.fxu[0]);
  k[3] = clamp(p.fxu[1]);
  k[4] = fpu_clamped_ ? clamp(p.fpu[0]) : offset(p.fpu[0]);
  k[5] = fpu_clamped_ ? clamp(p.fpu[1]) : offset(p.fpu[1]);
  k[6] = clamp(p.icu);
  k += kKeyFixed;
  for (const std::uint32_t c : carried_) *k++ = clamp(prev[c]);
  for (const std::uint32_t w : miss_mask_) *k++ = static_cast<std::int32_t>(w);
  return fits;
}

std::uint64_t Power2Core::settle_replays() {
  std::uint64_t replayed = 0;
  for (std::uint32_t e = 0; e < memo_size_; ++e) {
    const std::uint64_t hits = memo_hits_[e];
    if (hits == 0) continue;
    replayed += hits;
    memo_hits_[e] = 0;
    const std::uint64_t* picks = &memo_picks_[std::size_t{e} * pick_words_];
    for (std::uint32_t w = 0; w < pick_words_; ++w) {
      for (std::uint64_t bits = picks[w]; bits != 0; bits &= bits - 1) {
        unit1_[w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits))] +=
            hits;
      }
    }
  }
  return replayed;
}

P2SIM_HOT_INLINE std::uint32_t Power2Core::memo_find(
    std::uint32_t& slot) const {
  const std::size_t key_bytes = std::size_t{key_words_} * sizeof(std::int32_t);
  std::uint64_t h = 0;
  for (std::uint32_t w = 0; w < key_words_; ++w) {
    h = (h + static_cast<std::uint32_t>(key_[w])) * 0x9e3779b97f4a7c15ULL;
  }
  slot = static_cast<std::uint32_t>(h >> (64 - kMemoBits));
  for (; memo_slots_[slot] != 0; slot = (slot + 1) & (kMemoSlots - 1)) {
    const std::uint32_t e = memo_slots_[slot] - 1;
    if (std::memcmp(&memo_rows_[row_of(e)], key_.data(), key_bytes) == 0) {
      return e;
    }
  }
  if (memo_size_ == kMemoEntries) slot = kMemoSlots;
  return kNoEntry;
}

P2SIM_HOT_INLINE void Power2Core::replay(std::uint32_t entry,
                                         std::uint64_t b, Pipe& p,
                                         std::uint64_t* cur) const {
  const std::int32_t* o = &memo_rows_[row_of(entry) + key_words_];
  P2SIM_INVARIANT(o[0] >= 0,
                  "a replayed iteration never moves dispatch backwards");
  const auto at = [b](std::int32_t d) {
    return b + static_cast<std::uint64_t>(std::int64_t{d});
  };
  p.cycle = at(o[0]);
  p.issued = static_cast<std::uint64_t>(o[1]);
  p.fpu_rr = (o[2] & 1) != 0;
  p.fxu_rr = (o[2] & 2) != 0;
  p.fxu[0] = at(o[3]);
  p.fxu[1] = at(o[4]);
  p.fpu[0] = at(o[5]);
  p.fpu[1] = at(o[6]);
  p.icu = at(o[7]);
  o += kOutFixed;
  for (const std::uint32_t c : carried_) cur[c] = at(*o++);
}

void Power2Core::memo_record(std::uint32_t slot, std::uint64_t b,
                             const Pipe& p, const std::uint64_t* cur) {
  const std::size_t end = memo_rows_.size();
  memo_rows_.resize(end + key_words_ + out_words_);
  std::int32_t* r = &memo_rows_[end];
  std::copy(key_.begin(), key_.end(), r);
  std::int32_t* o = r + key_words_;
  bool fits = p.issued < std::uint64_t{kMaxOffset};
  const auto rel = [b, &fits](std::uint64_t t) {
    const auto d = static_cast<std::int64_t>(t - b);
    fits = fits && d > -kMaxOffset && d < kMaxOffset;
    return static_cast<std::int32_t>(d);
  };
  o[0] = rel(p.cycle);
  o[1] = static_cast<std::int32_t>(p.issued);
  o[2] = (p.fpu_rr ? 1 : 0) | (p.fxu_rr ? 2 : 0);
  o[3] = rel(p.fxu[0]);
  o[4] = rel(p.fxu[1]);
  o[5] = rel(p.fpu[0]);
  o[6] = rel(p.fpu[1]);
  o[7] = rel(p.icu);
  o += kOutFixed;
  for (const std::uint32_t c : carried_) *o++ = rel(cur[c]);
  if (!fits) {
    memo_rows_.resize(end);
    return;
  }
  memo_picks_.insert(memo_picks_.end(), picks_.begin(), picks_.end());
  memo_hits_.push_back(0);
  memo_slots_[slot] = ++memo_size_;
}

template <bool kCounting, bool kTracing>
std::uint64_t Power2Core::run_loop(std::uint64_t now, std::uint64_t iterations,
                                   EventCounts& ev, IssueTrace* sink) {
  std::uint64_t* cur = ready_cur_.data();
  std::uint64_t* prev = ready_prev_.data();

  Pipe p = pipe_;
  if (now > p.cycle) {
    p.cycle = now;
    p.issued = 0;
  }
  // The D-cache and the TLB see exactly one access each per memory op, so
  // one tick serves both.
  P2SIM_INVARIANT(dcache_.tick() == tlb_.tick(),
                  "the D-cache and TLB tick in lockstep");
  std::uint64_t tick = dcache_.tick();

  for (std::uint64_t it = 0; it < iterations; ++it) {
    // Memory pass: every access, miss and TLB penalty draw, then the
    // iteration's I-cache refill draw, in the order of the interleaved
    // model.  None of it depends on the schedule.
    const bool tlb_missed = memory_pass<kCounting>(tick, ev);
    const bool refill = icache_pressure_ && rng_.chance(icache_refill_p_);
    if (kCounting && refill) ev.icache_reload += 1;

    // Pipeline pass: replay the schedule of an earlier iteration that
    // started from the same relative state with the same halts.  A TLB
    // miss's drawn penalty makes its iteration all but unique, and a trace
    // computes every schedule.
    std::uint32_t slot = kMemoSlots;  // where a new outcome goes, if any
    const std::uint64_t b = p.cycle;
    std::uint32_t entry = kNoEntry;
    if (!kTracing && !tlb_missed && canonical_key(p, prev, refill)) {
      entry = memo_find(slot);
    }
    if (entry != kNoEntry) {
      replay(entry, b, p, cur);
      if (kCounting) ++memo_hits_[entry];
    } else {
      schedule<kCounting, kTracing>(p, it, cur, prev, slot != kMemoSlots,
                                    sink);
      if (refill) p.cycle += cfg_.dcache_miss_halt;
      if (slot != kMemoSlots) memo_record(slot, b, p, cur);
    }
    std::swap(cur, prev);
  }

  // Write the pipeline state back; ready_prev_ must name the last
  // iteration's ready times.
  if (prev != ready_prev_.data()) std::swap(ready_cur_, ready_prev_);
  pipe_ = p;
  flush_pending();
  P2SIM_INVARIANT(std::all_of(streams_.begin(), streams_.end(),
                              [](const Stream& s) { return s.pending == 0; }),
                  "no deferred LRU stamp outlives the loop");
  dcache_.settle(tick);
  tlb_.settle(tick);
  P2SIM_INVARIANT(dcache_.tick() == tlb_.tick(),
                  "the D-cache and TLB tick in lockstep");
  return p.cycle;
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
  const std::uint64_t replayed = settle_replays();
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
  out.replayed = replayed;
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
