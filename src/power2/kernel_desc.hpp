// Kernel descriptors: the unit of work the POWER2 core model executes.
//
// A kernel is an inner loop body (a sequence of classed instructions with
// explicit data dependencies) plus the memory streams its loads and stores
// walk.  This captures everything the hardware counters can see about a
// code: instruction mix per unit, dependence-limited ILP (which drives the
// FPU0/FPU1 asymmetry), and the stride/footprint behaviour that determines
// cache and TLB miss ratios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/power2/isa.hpp"

namespace p2sim::power2 {

inline constexpr std::uint8_t kNoStream = 0xff;
inline constexpr std::int16_t kNoDep = -1;

/// A strided memory reference stream (one array walked by the loop).
struct MemStream {
  std::uint64_t footprint_bytes = 0;  ///< wrap-around working-set size
  std::int64_t stride_bytes = 8;      ///< advance per access (may be > line)
  bool operator==(const MemStream&) const = default;
};

/// One instruction of the loop body.
struct Instr {
  OpClass op = OpClass::kFpAdd;
  /// Index of an earlier body instruction whose result this op consumes,
  /// or kNoDep.  Must be < this instruction's own index.
  std::int16_t dep = kNoDep;
  /// Index of a body instruction in the *previous* iteration whose result
  /// this op consumes (loop-carried dependence), or kNoDep.
  std::int16_t carried_dep = kNoDep;
  /// Stream accessed by a load/store, kNoStream otherwise.
  std::uint8_t stream = kNoStream;
  /// Quad (128-bit) load/store: one instruction, two 8-byte operations.
  bool quad = false;
  bool operator==(const Instr&) const = default;
};

/// A complete kernel: loop body + streams + simulation bookkeeping.
struct KernelDesc {
  std::string name;
  std::vector<MemStream> streams;
  std::vector<Instr> body;
  /// Iterations to run before counting, so caches/TLB reach steady state.
  std::uint64_t warmup_iters = 256;
  /// Iterations measured when deriving the kernel's event signature.
  std::uint64_t measure_iters = 4096;
  /// Expected extra I-cache reloads per thousand instructions beyond the
  /// compulsory first-iteration misses (models subroutine-rich codes).
  double icache_miss_per_kinst = 0.0;

  /// Validates structural invariants (ops within OpClass, dep indices in
  /// range, streams bound, body ends with exactly one branch, a finite
  /// non-negative I-cache pressure).  Returns an empty string when valid,
  /// else a diagnostic.  Read-only, so parallel measurement workers
  /// may validate the (immutable) kernels they are handed.
  P2SIM_PAR_SAFE std::string validate() const;

  /// Stable content hash for signature memoization.
  std::uint64_t content_hash() const;

  /// Instruction and flop totals per iteration (static properties).
  std::uint64_t instructions_per_iter() const { return body.size(); }
  std::uint64_t flops_per_iter() const;
  std::uint64_t memrefs_per_iter() const;  ///< quad counts as 1 instruction
};

/// A kernel and its content_hash(), which walks the whole body: callers
/// that look a kernel up many times hash it once and pass this pair.
struct KernelRef {
  std::uint64_t hash = 0;
  const KernelDesc* kernel = nullptr;
};

/// Fluent builder so kernels read like the loop they model.
class KernelBuilder {
 public:
  explicit KernelBuilder(std::string name);

  /// Declares a stream; returns its index for use in load()/store().
  std::uint8_t stream(std::uint64_t footprint_bytes,
                      std::int64_t stride_bytes = 8);

  /// Each append returns the instruction's body index so later instructions
  /// can declare dependencies on it.
  std::int16_t load(std::uint8_t stream, bool quad = false);
  std::int16_t store(std::uint8_t stream, bool quad = false);
  std::int16_t alu(std::int16_t dep = kNoDep);
  std::int16_t addr_mul(std::int16_t dep = kNoDep);
  std::int16_t addr_div(std::int16_t dep = kNoDep);
  std::int16_t fp_add(std::int16_t dep = kNoDep,
                      std::int16_t carried = kNoDep);
  std::int16_t fp_mul(std::int16_t dep = kNoDep,
                      std::int16_t carried = kNoDep);
  std::int16_t fp_div(std::int16_t dep = kNoDep);
  std::int16_t fp_sqrt(std::int16_t dep = kNoDep);
  std::int16_t fma(std::int16_t dep = kNoDep, std::int16_t carried = kNoDep);
  std::int16_t cond_reg(std::int16_t dep = kNoDep);

  KernelBuilder& warmup(std::uint64_t iters);
  KernelBuilder& measure(std::uint64_t iters);
  KernelBuilder& icache_pressure(double miss_per_kinst);

  /// Appends the closing loop branch and returns the finished kernel.
  /// Throws std::invalid_argument if validate() fails.
  KernelDesc build();

 private:
  std::int16_t push(Instr in);
  KernelDesc k_;
};

}  // namespace p2sim::power2
