// Set-associative cache model.
//
// Default geometry is the NAS SP2 data cache described in section 2 of the
// paper: 256 kB, 4-way set associative, 1024 lines of 256 bytes, LRU,
// write-allocate / write-back.  The write-back property matters for the HPM:
// the `user.dcache_store` counter fires when "the D-cache destination for
// incoming data currently contains data which has been modified" — i.e. a
// dirty eviction — and we reproduce that definition exactly.  The same model
// with a different geometry serves as the 32 kB instruction cache.
#pragma once

#include <cstdint>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/check/check.hpp"

namespace p2sim::power2 {

struct CacheConfig {
  std::uint64_t size_bytes = 256 * 1024;
  std::uint32_t line_bytes = 256;
  std::uint32_t ways = 4;
  bool write_allocate = true;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / ways; }
  bool valid() const;
};

/// Outcome of a single access.
struct CacheAccess {
  bool hit = false;
  bool reload = false;       ///< a line was brought in from memory
  bool dirty_evict = false;  ///< the victim was modified (dcache_store event)
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Accesses one address (the address, not a range: callers issue one
  /// access per instruction, matching HPM count semantics for quad ops).
  /// Touches only this cache instance, so a worker-private core may call
  /// it inside the parallel measurement region.  Defined below, in the
  /// header: the core's inner loop calls it once per memory instruction.
  P2SIM_PAR_SAFE CacheAccess access(std::uint64_t addr, bool is_store);

  /// Drops all lines (used between unrelated kernel runs).
  void flush();

  P2SIM_PAR_SAFE const CacheConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t dirty_evictions() const { return dirty_evictions_; }
  /// Lifetime access count; the audited identity accesses == hits + misses
  /// survives flush() (statistics, unlike lines, are never dropped).
  std::uint64_t accesses() const { return accesses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< global access counter value at last touch
    bool valid = false;
    bool dirty = false;
  };

  CacheConfig cfg_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;  ///< log2(num_sets): block -> tag
  std::vector<Line> lines_;  // sets * ways, way-major within a set
  std::uint64_t tick_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

inline CacheAccess Cache::access(std::uint64_t addr, bool is_store) {
  const std::uint64_t block = addr >> line_shift_;
  const std::uint64_t set = block & set_mask_;
  const std::uint64_t tag = block >> set_shift_;
  Line* base = &lines_[set * cfg_.ways];
  ++tick_;
  ++accesses_;

  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      l.lru = tick_;
      l.dirty = l.dirty || is_store;
      ++hits_;
      P2SIM_INVARIANT(hits_ + misses_ == accesses_,
                      "every cache access is a hit or a miss");
      return {.hit = true, .reload = false, .dirty_evict = false};
    }
  }

  ++misses_;
  CacheAccess out{.hit = false, .reload = false, .dirty_evict = false};
  if (is_store && !cfg_.write_allocate) {
    // Write-through-no-allocate stores go straight to memory.
    return out;
  }

  // Choose the victim: invalid way first, else true LRU.
  Line* victim = base;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.lru < victim->lru) victim = &l;
  }
  if (victim->valid && victim->dirty) {
    out.dirty_evict = true;
    ++dirty_evictions_;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  victim->dirty = is_store;
  out.reload = true;
  P2SIM_INVARIANT(hits_ + misses_ == accesses_,
                  "every cache access is a hit or a miss");
  P2SIM_INVARIANT(!out.dirty_evict || out.reload,
                  "a dirty eviction can only accompany a reload");
  return out;
}

}  // namespace p2sim::power2
