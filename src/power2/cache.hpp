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
  /// it inside the parallel measurement region.
  P2SIM_PAR_SAFE CacheAccess access(std::uint64_t addr, bool is_store);

  // ---- Resident-line protocol (the core's memory pass) -------------------
  // The caller holds the access tick in a register: it starts from tick(),
  // adds one per access, and hands the final value back to settle(), which
  // keeps accesses() and hits() exact.  It also remembers, per stream, the
  // block its last access landed in and the slot holding that block.  An
  // access to that block is a hit on that slot (a tag is unique within its
  // set), so touch() does all the work a hit would: stamp the LRU tick and
  // set the dirty bit.  The caller may defer those touches, keeping only
  // the latest tick and whether any access was a store, provided it
  // touch()es them in before every lookup() and before settle().  Every
  // other access goes through lookup(), and when a fill replaces a valid
  // line the caller must forget every hint naming that slot.  LRU stamps
  // and dirty bits are only read in lookup()'s victim scan and eviction,
  // so the results are exactly those of access().

  /// Where lookup() left a block.
  struct Placement {
    CacheAccess access;
    std::uint32_t slot = 0;  ///< the line now holding the block
    bool resident = false;   ///< false only for a no-allocate store miss
    bool replaced = false;   ///< the fill evicted the valid line in `slot`
  };

  P2SIM_PAR_SAFE std::uint64_t tick() const { return tick_; }
  P2SIM_PAR_SAFE void touch(std::uint32_t slot, std::uint64_t tick,
                            bool is_store) {
    Line& l = lines_[slot];
    l.lru = tick;
    l.dirty = l.dirty || is_store;
  }
  /// A full lookup of `block` (address >> log2(line_bytes)) at `tick`.
  P2SIM_PAR_SAFE Placement lookup(std::uint64_t block, bool is_store,
                                  std::uint64_t tick);
  P2SIM_PAR_SAFE void settle(std::uint64_t tick) {
    accesses_ += tick - tick_;
    tick_ = tick;
  }

  /// Drops all lines (used between unrelated kernel runs).
  void flush();

  P2SIM_PAR_SAFE const CacheConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return accesses_ - misses_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t dirty_evictions() const { return dirty_evictions_; }
  /// Lifetime access count; accesses == hits + misses survives flush()
  /// (statistics, unlike lines, are never dropped).
  std::uint64_t accesses() const { return accesses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< access tick at last touch
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
  std::uint64_t misses_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

inline CacheAccess Cache::access(std::uint64_t addr, bool is_store) {
  const Placement p = lookup(addr >> line_shift_, is_store, tick_ + 1);
  settle(tick_ + 1);
  return p.access;
}

}  // namespace p2sim::power2
