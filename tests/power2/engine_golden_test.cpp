// Golden counts for the cycle-level engine.
//
// Every other engine test checks a property (dispatch width, unit
// exclusivity, thread-count invariance).  This one pins the exact event
// counts a fresh core produces, so any change to the inner loop, the cache
// or the TLB that moves a single bit of any counter fails here, on the
// kernel and core configuration that exposes it.  The conflict-heavy
// configurations (a small cache, a small TLB, direct mapping) are the ones
// that catch a stale resident-line hint; the default geometry rarely
// evicts a line a stream still holds.
//
// The expected values were recorded from the engine before its inner loop
// was predecoded; they change only with a deliberate change to the model.
//
// EngineReplay checks the schedule memo differentially: trace() computes
// every iteration's schedule, so a counted run, which replays most of
// them, must reach the same cycles, unit picks and misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/power2/core.hpp"
#include "src/power2/signature.hpp"
#include "src/workload/job_profile.hpp"
#include "src/workload/jobgen.hpp"
#include "src/workload/kernels.hpp"

namespace p2sim::power2 {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

/// Every EventCounts field, in declaration order.
std::uint64_t hash_counts(std::uint64_t h, const EventCounts& e) {
  for (const std::uint64_t v :
       {e.cycles, e.fxu0_inst, e.fxu1_inst, e.dcache_miss, e.tlb_miss,
        e.fpu0_inst, e.fpu1_inst, e.fp_add0, e.fp_add1, e.fp_mul0, e.fp_mul1,
        e.fp_div0, e.fp_div1, e.fp_fma0, e.fp_fma1, e.icu_type1, e.icu_type2,
        e.icache_reload, e.dcache_reload, e.dcache_store, e.dma_read,
        e.dma_write, e.memory_inst, e.quad_inst, e.stall_dcache, e.stall_tlb,
        e.dispatched_inst, e.comm_wait_cycles, e.io_wait_cycles}) {
    h = mix(h, v);
  }
  return h;
}

/// One kernel exercising every engine path: a negative stride, a stride
/// wider than a cache line, a quad store, divide and square root, address
/// multiply and divide, a condition-register op and I-cache pressure.
KernelDesc mixed_kernel() {
  KernelBuilder b("golden_mixed");
  const auto down = b.stream(48 * 1024, -24);
  const auto wide = b.stream(3 * 1024 * 1024, 392);
  const auto out = b.stream(96 * 1024, 16);
  const auto l0 = b.load(down);
  const auto l1 = b.load(wide);
  const auto a = b.addr_mul(l0);
  b.addr_div(a);
  const auto m = b.fma(l0, 5);
  const auto d = b.fp_div(m);
  b.fp_sqrt(l1);
  const auto s = b.fp_add(d, 7);
  b.fp_mul(s);
  b.cond_reg(s);
  b.alu();
  b.store(out, /*quad=*/true);
  return b.warmup(64).measure(1500).icache_pressure(40.0).build();
}

/// The job-kernel sample: the kernels the generator registers for 60
/// submissions, repeats included.
std::vector<KernelDesc> job_sample() {
  workload::ProfileRegistry reg;
  workload::JobGenerator gen(workload::JobGenConfig{}, reg);
  std::vector<KernelDesc> sample;
  for (int i = 0; i < 60; ++i) {
    sample.push_back(reg.get(gen.next(1800.0 * i).profile_id).kernel);
  }
  return sample;
}

/// The exact outcome of measuring a group of kernels on fresh cores: the
/// hash of every counter of every run, plus a few fields summed across the
/// group so a mismatch says which part of the model moved.
struct Golden {
  std::uint64_t hash = 0;
  std::uint64_t cycles = 0;
  std::uint64_t dcache_miss = 0;
  std::uint64_t tlb_miss = 0;
  std::uint64_t fpu1_inst = 0;
  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  os << "{0x" << std::hex << g.hash << std::dec << "ULL, " << g.cycles;
  os << ", " << g.dcache_miss << ", " << g.tlb_miss;
  return os << ", " << g.fpu1_inst << "}";
}

Golden measure_group(const CoreConfig& cfg,
                     const std::vector<KernelDesc>& kernels) {
  Golden g;
  g.hash = 0x243f6a8885a308d3ULL;
  for (const KernelDesc& k : kernels) {
    const EventCounts e = measure_quiet(cfg, k).run.counts;
    g.hash = hash_counts(g.hash, e);
    g.cycles += e.cycles;
    g.dcache_miss += e.dcache_miss;
    g.tlb_miss += e.tlb_miss;
    g.fpu1_inst += e.fpu1_inst;
  }
  return g;
}

constexpr int kConfigs = 7;
constexpr int kGroups = 5;

const char* config_name(int config) {
  switch (config) {
    case 1:
      return "fpu_round_robin";
    case 2:
      return "earliest_free_fxu_round_robin";
    case 3:
      return "no_write_allocate";
    case 4:
      return "small_cache";
    case 5:
      return "small_tlb";
    case 6:
      return "narrow_direct_mapped";
    default:
      return "default";
  }
}

CoreConfig config_for(int config) {
  CoreConfig c;
  switch (config) {
    case 1:
      c.fpu_steering = FpuSteering::kRoundRobin;
      break;
    case 2:
      c.fpu_steering = FpuSteering::kEarliestFree;
      c.fxu_steering = FxuSteering::kRoundRobin;
      break;
    case 3:
      c.dcache.write_allocate = false;
      break;
    case 4:
      c.dcache = {.size_bytes = 8 * 1024, .line_bytes = 64, .ways = 2};
      break;
    case 5:
      c.tlb = {.entries = 16, .page_bytes = 4096, .ways = 1};
      break;
    case 6:
      c.dispatch_width = 2;
      c.dcache.ways = 1;
      break;
    default:
      break;
  }
  return c;
}

/// Expected outcomes: configuration-major (config_for order), then kernel
/// group: the job sample, sequential_sweep, npb_bt_like, strided_transpose
/// and mixed_kernel.
const Golden kExpected[kConfigs * kGroups] = {
    // default
    {0x3d7760c5ff255bf8ULL, 18915850, 251456, 122215, 1283958},
    {0x7880b3922a7428ddULL, 151227, 2048, 128, 0},
    {0xfcf5535785e65567ULL, 292458, 1408, 88, 57024},
    {0x89e6d307785b8bd2ULL, 889286, 16896, 16416, 0},
    {0x754dd7594ca9b91aULL, 54196, 1735, 158, 1500},
    // fpu_round_robin
    {0x43a1e6564b081df7ULL, 19097866, 251456, 122215, 2849792},
    {0xa9eeafbb928fa686ULL, 151227, 2048, 128, 32768},
    {0xe85c4187de0b2d7aULL, 292458, 1408, 88, 98304},
    {0xfd407d15f8114e3fULL, 889286, 16896, 16416, 8192},
    {0x5036a96cb866048cULL, 58696, 1735, 158, 3750},
    // earliest_free_fxu_round_robin
    {0x158108d28b9ed7bdULL, 19194099, 251456, 122215, 2658328},
    {0xc931cfd1811cf9cfULL, 151227, 2048, 128, 32768},
    {0x93983c97e5424c59ULL, 292458, 1408, 88, 98304},
    {0x74c23b45f1106301ULL, 889286, 16896, 16416, 8192},
    {0x6c9058ed2add680bULL, 54196, 1735, 158, 3750},
    // no_write_allocate
    {0x940a665bc027a24bULL, 19614096, 349213, 122215, 1284029},
    {0x7880b3922a7428ddULL, 151227, 2048, 128, 0},
    {0x0bee64b9687299e0ULL, 297490, 2200, 88, 57024},
    {0xabf4a4db99e12e5aULL, 1000390, 32768, 16416, 0},
    {0xbe12ce0b0977b446ULL, 64038, 3141, 158, 1500},
    // small_cache
    {0xd00bdb957df44e40ULL, 88559220, 9650240, 122215, 861264},
    {0xe865fa6191d7ac2cULL, 194235, 8192, 128, 0},
    {0x522e3b7bb9a31f3eULL, 1207442, 127424, 88, 44992},
    {0xf9395e0d2d916f67ULL, 900038, 18432, 16416, 0},
    {0xf0dda54f3f67c016ULL, 59539, 2438, 158, 1500},
    // small_tlb
    {0x927eb3ccda767d98ULL, 230322562, 251456, 4892930, 1054943},
    {0x7880b3922a7428ddULL, 151227, 2048, 128, 0},
    {0x7ea0bddcbeba5ddbULL, 2199014, 1408, 43224, 51777},
    {0x7fff564b8eb8cacdULL, 933129, 16896, 17408, 0},
    {0x2a99af13239037a2ULL, 71593, 1735, 552, 1500},
    // narrow_direct_mapped
    {0x50862fd797c05917ULL, 30847777, 1662880, 122215, 888301},
    {0xf9c19d7bb120efc6ULL, 153275, 2048, 128, 0},
    {0xd40c7d01ffdbb39cULL, 410589, 14496, 88, 48640},
    {0x83f33bb3e24ccc6aULL, 907462, 17152, 16416, 0},
    {0x6a66ee72c3f876f8ULL, 57069, 1737, 158, 1500},
};

class EngineGolden : public ::testing::TestWithParam<int> {};

TEST_P(EngineGolden, FreshCoreCountsAreExact) {
  const int config = GetParam();
  const std::vector<KernelDesc> groups[kGroups] = {
      job_sample(),
      {workload::sequential_sweep()},
      {workload::npb_bt_like()},
      {workload::strided_transpose()},
      {mixed_kernel()},
  };
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(measure_group(config_for(config), groups[g]),
              kExpected[config * kGroups + g])
        << config_name(config) << ", kernel group " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineGolden, ::testing::Range(0, kConfigs));

TEST(EngineGolden, TraceScheduleIsExact) {
  Power2Core core;
  const IssueTrace t = core.trace(mixed_kernel(), 20);
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const IssueEvent& e : t.events) {
    h = mix(h, e.iteration);
    h = mix(h, e.body_index);
    h = mix(h, static_cast<std::uint64_t>(e.op));
    h = mix(h, e.unit);
    h = mix(h, e.issue_cycle);
    h = mix(h, e.ready_cycle);
    h = mix(h, e.dcache_miss ? 1 : 0);
    h = mix(h, e.tlb_miss ? 1 : 0);
  }
  EXPECT_EQ(t.events.size(), 20u * 13u);
  EXPECT_EQ(t.start_cycle, 0u);
  EXPECT_EQ(t.end_cycle, 867u);
  EXPECT_EQ(h, 0x8b7147974806c981ULL);
}

/// A kernel whose footprints wrap inside one D-cache block, forwards and
/// backwards, so resident runs end at a wrap rather than a block edge.
KernelDesc wrap_kernel() {
  KernelBuilder b("wrap_in_block");
  const auto up = b.stream(64, 8);
  const auto down = b.stream(96, -16);
  const auto far = b.stream(1024 * 1024, 136);
  const auto l0 = b.load(up);
  const auto l1 = b.load(down);
  b.load(far);
  const auto m = b.fma(l0, 3);
  b.fp_add(m, 4);
  b.fp_mul(l1);
  b.store(up);
  b.alu();
  return b.warmup(0).measure(700).build();
}

/// A kernel whose first instruction consumes the previous iteration's
/// last load.  That load misses now and then, and the unit free times do
/// not pin down when its result is ready, so a memo key without the
/// loop-carried slot replays the wrong schedule.
KernelDesc carried_kernel() {
  KernelBuilder b("carried_load");
  const auto big = b.stream(4 * 1024 * 1024, 8);
  const auto cold = b.stream(64 * 1024, 264);
  b.fp_add(kNoDep, /*carried=*/2);
  b.load(cold);
  b.load(big);
  b.alu();
  b.fp_mul();
  return b.warmup(0).measure(1000).build();
}

/// A kernel whose FP ops issue before a load that misses every iteration
/// (with no TLB miss, so the memo serves it): both FPU free times fall
/// behind the next dispatch cycle by different amounts, and under
/// kEarliestFree that difference still picks the unit.
KernelDesc idle_fpu_kernel() {
  KernelBuilder b("idle_fpu");
  const auto wide = b.stream(1024 * 1024, 264);
  b.fp_add();
  b.fp_div();
  b.load(wide);
  b.alu();
  return b.warmup(0).measure(1000).build();
}

/// What a counted run and a trace of the same iterations must agree on.
struct Outcome {
  std::uint64_t cycles = 0;
  std::uint64_t fxu1 = 0;
  std::uint64_t fpu1 = 0;
  std::uint64_t dcache_miss = 0;
  std::uint64_t tlb_miss = 0;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{cycles " << o.cycles << ", fxu1 " << o.fxu1 << ", fpu1 "
            << o.fpu1 << ", dmiss " << o.dcache_miss << ", tlbmiss "
            << o.tlb_miss << "}";
}

/// Runs `kernel` without warmup on a fresh core, counted and traced, and
/// expects the same outcome; returns the counted run's replayed iterations.
std::uint64_t expect_replay_exact(const CoreConfig& cfg, KernelDesc kernel) {
  kernel.warmup_iters = 0;
  const std::uint64_t iters = std::min<std::uint64_t>(kernel.measure_iters,
                                                      2048);
  Power2Core counted(cfg);
  const RunResult r = counted.run_counted(kernel, iters);
  const Outcome got{r.counts.cycles, r.counts.fxu1_inst, r.counts.fpu1_inst,
                    r.counts.dcache_miss, r.counts.tlb_miss};

  Power2Core traced(cfg);
  const IssueTrace t = traced.trace(kernel, static_cast<std::uint32_t>(iters));
  Outcome want{t.end_cycle - t.start_cycle, 0, 0, 0, 0};
  for (const IssueEvent& e : t.events) {
    if (is_fixed_point(e.op)) {
      want.fxu1 += e.unit;
    } else if (is_floating_point(e.op)) {
      want.fpu1 += e.unit;
    }
    want.dcache_miss += e.dcache_miss ? 1 : 0;
    want.tlb_miss += e.tlb_miss ? 1 : 0;
  }
  EXPECT_EQ(got, want) << kernel.name;
  EXPECT_LE(r.replayed, iters) << kernel.name;
  return r.replayed;
}

class EngineReplay : public ::testing::TestWithParam<int> {};

TEST_P(EngineReplay, CountedRunMatchesTrace) {
  const CoreConfig cfg = config_for(GetParam());
  std::vector<KernelDesc> kernels = job_sample();
  kernels.push_back(mixed_kernel());
  kernels.push_back(wrap_kernel());
  kernels.push_back(carried_kernel());
  std::uint64_t replayed = 0;
  for (const KernelDesc& k : kernels) {
    replayed += expect_replay_exact(cfg, k);
  }
  EXPECT_GT(replayed, 0u) << config_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineReplay, ::testing::Range(0, kConfigs));

TEST(EngineReplay, EarliestFreeComparesRawFpuTimes) {
  CoreConfig cfg;
  cfg.fpu_steering = FpuSteering::kEarliestFree;
  EXPECT_GT(expect_replay_exact(cfg, idle_fpu_kernel()), 0u);
  EXPECT_GT(expect_replay_exact(cfg, wrap_kernel()), 0u);
}

}  // namespace
}  // namespace p2sim::power2
