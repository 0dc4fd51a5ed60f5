// Translation lookaside buffer model.
//
// The paper (section 2): 4096-byte pages, 512 TLB entries.  The RS/6000-590
// TLB is 2-way set associative; a miss costs "36 to 54 cycles" (section 5),
// which the core model draws uniformly from that window.
#pragma once

#include <cstdint>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/check/check.hpp"

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
  /// parallel measurement region.  Defined below, in the header, so the
  /// core's inner loop can inline it.
  P2SIM_PAR_SAFE bool access(std::uint64_t addr);

  void flush();
  P2SIM_PAR_SAFE const TlbConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Lifetime access count (accesses == hits + misses, audited).
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
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

inline bool Tlb::access(std::uint64_t addr) {
  const std::uint64_t vpn = addr >> page_shift_;
  const std::uint64_t set = vpn & set_mask_;
  Entry* base = &entries_[set * cfg_.ways];
  ++tick_;
  ++accesses_;

  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Entry& e = base[w];
    if (e.valid && e.vpn == vpn) {
      e.lru = tick_;
      ++hits_;
      P2SIM_INVARIANT(hits_ + misses_ == accesses_,
                      "every TLB access is a hit or a miss");
      return true;
    }
  }
  ++misses_;
  Entry* victim = base;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Entry& e = base[w];
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru < victim->lru) victim = &e;
  }
  victim->valid = true;
  victim->vpn = vpn;
  victim->lru = tick_;
  P2SIM_INVARIANT(hits_ + misses_ == accesses_,
                  "every TLB access is a hit or a miss");
  return false;
}

}  // namespace p2sim::power2
