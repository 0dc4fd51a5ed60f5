#include "src/power2/kernel_desc.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "src/power2/isa.hpp"

namespace p2sim::power2 {
namespace {

KernelDesc tiny_kernel() {
  KernelBuilder b("tiny");
  const auto s = b.stream(1024, 8);
  const auto l = b.load(s);
  b.fp_add(l);
  return b.build();
}

TEST(IsaTraits, Classification) {
  EXPECT_TRUE(is_memory(OpClass::kFxLoad));
  EXPECT_TRUE(is_memory(OpClass::kFxStore));
  EXPECT_FALSE(is_memory(OpClass::kFxAlu));
  EXPECT_TRUE(is_fixed_point(OpClass::kFxAddrMul));
  EXPECT_TRUE(is_floating_point(OpClass::kFpFma));
  EXPECT_FALSE(is_floating_point(OpClass::kFxAlu));
  EXPECT_TRUE(is_icu(OpClass::kBranch));
  EXPECT_TRUE(is_icu(OpClass::kCondReg));
}

TEST(IsaTraits, FlopAccounting) {
  EXPECT_EQ(flops_of(OpClass::kFpAdd), 1);
  EXPECT_EQ(flops_of(OpClass::kFpMul), 1);
  EXPECT_EQ(flops_of(OpClass::kFpDiv), 1);
  EXPECT_EQ(flops_of(OpClass::kFpFma), 2);  // "an add and a multiply"
  EXPECT_EQ(flops_of(OpClass::kFpSqrt), 0); // no HPM operation counter
  EXPECT_EQ(flops_of(OpClass::kFxLoad), 0);
}

TEST(IsaTraits, PaperLatencies) {
  EXPECT_EQ(fp_latency(OpClass::kFpDiv), 10);   // "10-cycle divide"
  EXPECT_EQ(fp_latency(OpClass::kFpSqrt), 15);  // "15-cycle square root"
  EXPECT_TRUE(is_multicycle_fp(OpClass::kFpDiv));
  EXPECT_TRUE(is_multicycle_fp(OpClass::kFpSqrt));
  EXPECT_FALSE(is_multicycle_fp(OpClass::kFpFma));
  EXPECT_EQ(fp_busy(OpClass::kFpAdd), 1);   // pipelined
  EXPECT_EQ(fp_busy(OpClass::kFpDiv), 10);  // blocks the unit
}

TEST(IsaTraits, NamesAreDistinct) {
  EXPECT_NE(op_name(OpClass::kFpAdd), op_name(OpClass::kFpMul));
  EXPECT_EQ(op_name(OpClass::kFpFma), "fp_fma");
}

TEST(KernelBuilder, AppendsBranchAutomatically) {
  const KernelDesc k = tiny_kernel();
  ASSERT_FALSE(k.body.empty());
  EXPECT_EQ(k.body.back().op, OpClass::kBranch);
  EXPECT_TRUE(k.validate().empty());
}

TEST(KernelBuilder, IndicesAreSequential) {
  KernelBuilder b("idx");
  const auto s = b.stream(512, 8);
  EXPECT_EQ(b.load(s), 0);
  EXPECT_EQ(b.fp_add(0), 1);
  EXPECT_EQ(b.fma(1), 2);
  const KernelDesc k = b.build();
  EXPECT_EQ(k.body.size(), 4u);  // 3 ops + branch
}

TEST(KernelBuilder, ThrowsOnUnboundStream) {
  KernelBuilder b("bad");
  b.load(3);  // stream 3 never declared
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Validate, EmptyBody) {
  KernelDesc k;
  k.name = "empty";
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, MissingTrailingBranch) {
  KernelDesc k = tiny_kernel();
  k.body.pop_back();
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, ForwardDepRejected) {
  KernelDesc k = tiny_kernel();
  k.body[0].dep = 1;  // depends on a later instruction
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, SelfDepRejected) {
  KernelDesc k = tiny_kernel();
  k.body[1].dep = 1;
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, CarriedDepMayReferenceAnyBodyIndex) {
  KernelDesc k = tiny_kernel();
  k.body[1].carried_dep = 1;  // itself, in the previous iteration: legal
  EXPECT_TRUE(k.validate().empty());
  k.body[1].carried_dep = 99;
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, StreamOnNonMemoryOpRejected) {
  KernelDesc k = tiny_kernel();
  k.body[1].stream = 0;  // fp_add with a stream
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, QuadOnNonMemoryRejected) {
  KernelDesc k = tiny_kernel();
  k.body[1].quad = true;
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, ZeroFootprintRejected) {
  KernelDesc k = tiny_kernel();
  k.streams[0].footprint_bytes = 0;
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, ZeroStrideRejected) {
  KernelDesc k = tiny_kernel();
  k.streams[0].stride_bytes = 0;
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, ZeroMeasureItersRejected) {
  KernelDesc k = tiny_kernel();
  k.measure_iters = 0;
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, OpOutsideOpClassRejected) {
  // A cast can put any byte in `op`; the core predecodes by op class.
  KernelDesc k = tiny_kernel();
  k.body[1].op = static_cast<OpClass>(200);
  EXPECT_FALSE(k.validate().empty());
}

TEST(Validate, NegativeOrNonFiniteIcachePressureRejected) {
  // content_hash() scales the pressure into an integer, which is only
  // defined for finite non-negative values.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, nan, inf}) {
    KernelBuilder b("pressure");
    b.fp_add();
    EXPECT_THROW(b.icache_pressure(bad).build(), std::invalid_argument) << bad;
  }
}

TEST(StaticCounts, PerIterationTotals) {
  KernelBuilder b("counts");
  const auto s = b.stream(4096, 8);
  b.load(s, /*quad=*/true);
  b.fma(0);
  b.fp_add();
  b.store(s);
  const KernelDesc k = b.build();
  EXPECT_EQ(k.instructions_per_iter(), 5u);
  EXPECT_EQ(k.flops_per_iter(), 3u);   // fma(2) + add(1)
  EXPECT_EQ(k.memrefs_per_iter(), 2u); // quad counts once
}

TEST(ContentHash, StableAndSensitive) {
  const KernelDesc a = tiny_kernel();
  const KernelDesc b = tiny_kernel();
  EXPECT_EQ(a.content_hash(), b.content_hash());

  KernelDesc c = tiny_kernel();
  c.streams[0].stride_bytes = 16;
  EXPECT_NE(a.content_hash(), c.content_hash());

  KernelDesc d = tiny_kernel();
  d.body[1].op = OpClass::kFpMul;
  EXPECT_NE(a.content_hash(), d.content_hash());

  KernelDesc e = tiny_kernel();
  e.measure_iters += 1;
  EXPECT_NE(a.content_hash(), e.content_hash());

  KernelDesc f = tiny_kernel();
  f.name = "other";
  EXPECT_NE(a.content_hash(), f.content_hash());
}

}  // namespace
}  // namespace p2sim::power2
