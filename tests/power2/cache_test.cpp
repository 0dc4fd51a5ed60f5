#include "src/power2/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace p2sim::power2 {
namespace {

CacheConfig small_cache() {
  // 4 sets x 2 ways x 64-byte lines = 512 bytes: easy to reason about.
  return {.size_bytes = 512, .line_bytes = 64, .ways = 2};
}

TEST(CacheConfig, DefaultIsTheSp2Geometry) {
  CacheConfig cfg;
  EXPECT_EQ(cfg.size_bytes, 256u * 1024u);
  EXPECT_EQ(cfg.line_bytes, 256u);
  EXPECT_EQ(cfg.ways, 4u);
  EXPECT_EQ(cfg.num_lines(), 1024u);  // "1024 lines of 256 bytes each"
  EXPECT_EQ(cfg.num_sets(), 256u);
  EXPECT_TRUE(cfg.valid());
}

TEST(CacheConfig, RejectsBadGeometry) {
  EXPECT_FALSE(CacheConfig({.size_bytes = 0}).valid());
  EXPECT_FALSE(CacheConfig({.line_bytes = 100}).valid());  // not a power of 2
  EXPECT_FALSE(
      CacheConfig({.size_bytes = 1000, .line_bytes = 64, .ways = 4}).valid());
  EXPECT_FALSE(CacheConfig({.ways = 0}).valid());
  EXPECT_THROW(Cache(CacheConfig{.size_bytes = 0}), std::invalid_argument);
}

TEST(Cache, FirstAccessMissesThenHits) {
  Cache c(small_cache());
  const auto first = c.access(0x1000, false);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.reload);
  const auto second = c.access(0x1000, false);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.reload);
}

TEST(Cache, SameLineDifferentOffsetHits) {
  Cache c(small_cache());
  c.access(0x1000, false);
  EXPECT_TRUE(c.access(0x1000 + 63, false).hit);
  EXPECT_FALSE(c.access(0x1000 + 64, false).hit);  // next line
}

TEST(Cache, LruEvictsOldestWay) {
  Cache c(small_cache());
  // Three lines mapping to the same set (stride = sets * line = 256).
  c.access(0x0000, false);
  c.access(0x0100, false);
  c.access(0x0000, false);        // refresh line 0
  c.access(0x0200, false);        // evicts 0x0100 (LRU)
  EXPECT_TRUE(c.access(0x0000, false).hit);
  EXPECT_FALSE(c.access(0x0100, false).hit);
}

TEST(Cache, DirtyEvictionSignalsWriteback) {
  Cache c(small_cache());
  c.access(0x0000, /*is_store=*/true);   // dirty line
  c.access(0x0100, false);
  const auto ev = c.access(0x0200, false);  // evicts the dirty 0x0000
  EXPECT_TRUE(ev.dirty_evict);
  EXPECT_EQ(c.dirty_evictions(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(small_cache());
  c.access(0x0000, false);
  c.access(0x0100, false);
  EXPECT_FALSE(c.access(0x0200, false).dirty_evict);
}

TEST(Cache, LoadAfterStoreKeepsLineDirty) {
  Cache c(small_cache());
  c.access(0x0000, true);
  c.access(0x0000, false);  // load must not clear the dirty bit
  c.access(0x0100, false);
  EXPECT_TRUE(c.access(0x0200, false).dirty_evict);
}

TEST(Cache, WriteNoAllocateStoresBypass) {
  CacheConfig cfg = small_cache();
  cfg.write_allocate = false;
  Cache c(cfg);
  const auto miss = c.access(0x0000, true);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.reload);
  EXPECT_FALSE(c.access(0x0000, false).hit);  // nothing was installed
}

TEST(Cache, FlushDropsEverything) {
  Cache c(small_cache());
  c.access(0x0000, true);
  c.flush();
  EXPECT_FALSE(c.access(0x0000, false).hit);
  // Flushed dirty data is dropped, not written back (model semantics).
  EXPECT_EQ(c.dirty_evictions(), 0u);
}

TEST(Cache, CountsHitsAndMisses) {
  Cache c(small_cache());
  c.access(0, false);
  c.access(0, false);
  c.access(64, false);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, WorkingSetWithinCapacityHasNoSteadyStateMisses) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 4});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 4096; a += 64) c.access(a, false);
  }
  // Pass 1 = 64 compulsory misses, passes 2-3 all hits.
  EXPECT_EQ(c.misses(), 64u);
  EXPECT_EQ(c.hits(), 128u);
}

TEST(Cache, StreamingFootprintMissesEveryLine) {
  Cache c(small_cache());
  for (std::uint64_t a = 0; a < 64 * 1024; a += 64) {
    EXPECT_FALSE(c.access(a, false).hit);
  }
}

// LRU is a stack algorithm per set: with the same set count, adding ways
// can never increase misses (inclusion property).  This is the property
// behind the associativity sweep of the ablation_cache experiment.
class CacheAssocProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheAssocProperty, MoreWaysNeverMissMore) {
  const std::uint32_t ways = GetParam();
  const std::uint32_t sets = 16;
  Cache narrow({.size_bytes = sets * 64ull * ways, .line_bytes = 64,
                .ways = ways});
  Cache wide({.size_bytes = sets * 64ull * ways * 2, .line_bytes = 64,
              .ways = ways * 2});
  // Pseudo-random but fixed access pattern spanning several sets.
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t addr = (x >> 33) % (sets * 64ull * ways * 4);
    narrow.access(addr, false);
    wide.access(addr, false);
  }
  EXPECT_LE(wide.misses(), narrow.misses());
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheAssocProperty,
                         ::testing::Values(1u, 2u, 4u, 8u));

// Sequential stride-8 access over a large array misses exactly once per
// 256-byte line: every 32 real*8 elements, as the paper computes.
TEST(Cache, PaperSequentialAccessArithmetic) {
  Cache c(CacheConfig{});  // the SP2 geometry
  std::uint64_t misses_expected = 0;
  const std::uint64_t n = 1u << 16;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto r = c.access(i * 8, false);
    if (i % 32 == 0) {
      EXPECT_FALSE(r.hit);
      ++misses_expected;
    } else {
      EXPECT_TRUE(r.hit);
    }
  }
  EXPECT_EQ(c.misses(), misses_expected);
  EXPECT_DOUBLE_EQ(static_cast<double>(c.misses()) / n, 1.0 / 32.0);
}

}  // namespace
}  // namespace p2sim::power2
