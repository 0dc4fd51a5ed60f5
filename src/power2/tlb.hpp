// Translation lookaside buffer model.
//
// The paper (section 2): 4096-byte pages, 512 TLB entries.  The RS/6000-590
// TLB is 2-way set associative; a miss costs "36 to 54 cycles" (section 5),
// which the core model draws uniformly from that window.
#pragma once

#include <cstdint>
#include <vector>

#include "src/check/annotate.hpp"

namespace p2sim::power2 {

struct TlbConfig {
  std::uint32_t entries = 512;
  std::uint32_t page_bytes = 4096;
  std::uint32_t ways = 2;
  bool valid() const;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& cfg);

  /// Returns true on a hit; a miss installs the translation (LRU victim).
  /// Instance-local state only: safe on a worker-private core inside the
  /// parallel measurement region.
  P2SIM_PAR_SAFE bool access(std::uint64_t addr);

  // ---- Resident-entry protocol (the core's memory pass) ------------------
  // The same contract as Cache's resident-line protocol: the caller holds
  // the tick, touch()es the entry its stream last used when the access
  // lands in that page (or defers the latest such touch until the next
  // lookup() or settle()), looks up every other page, forgets every hint
  // naming a slot whose valid entry lookup() replaced, and settle()s the
  // tick at the end of the run.

  /// Where lookup() left a page's translation.
  struct Placement {
    bool hit = false;
    std::uint32_t slot = 0;  ///< the entry now holding the translation
    bool replaced = false;   ///< the fill evicted the valid entry in `slot`
  };

  P2SIM_PAR_SAFE std::uint64_t tick() const { return tick_; }
  P2SIM_PAR_SAFE void touch(std::uint32_t slot, std::uint64_t tick) {
    entries_[slot].lru = tick;
  }
  /// A full lookup of virtual page `vpn` (address >> log2(page_bytes)).
  P2SIM_PAR_SAFE Placement lookup(std::uint64_t vpn, std::uint64_t tick);
  P2SIM_PAR_SAFE void settle(std::uint64_t tick) {
    accesses_ += tick - tick_;
    tick_ = tick;
  }

  void flush();
  P2SIM_PAR_SAFE const TlbConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return accesses_ - misses_; }
  std::uint64_t misses() const { return misses_; }
  /// Lifetime access count (accesses == hits + misses).
  std::uint64_t accesses() const { return accesses_; }

 private:
  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  TlbConfig cfg_;
  std::uint64_t set_mask_;
  std::uint32_t page_shift_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

inline bool Tlb::access(std::uint64_t addr) {
  const Placement p = lookup(addr >> page_shift_, tick_ + 1);
  settle(tick_ + 1);
  return p.hit;
}

}  // namespace p2sim::power2
