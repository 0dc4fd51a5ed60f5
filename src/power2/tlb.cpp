#include "src/power2/tlb.hpp"

#include <bit>
#include <stdexcept>

namespace p2sim::power2 {

bool TlbConfig::valid() const {
  if (entries == 0 || ways == 0 || page_bytes == 0) return false;
  if (!std::has_single_bit(static_cast<std::uint64_t>(page_bytes))) return false;
  if (entries % ways != 0) return false;
  return std::has_single_bit(static_cast<std::uint64_t>(entries / ways));
}

Tlb::Tlb(const TlbConfig& cfg) : cfg_(cfg) {
  if (!cfg_.valid()) throw std::invalid_argument("invalid TLB geometry");
  set_mask_ = cfg_.entries / cfg_.ways - 1;
  page_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(cfg_.page_bytes)));
  entries_.resize(cfg_.entries);
}

Tlb::Placement Tlb::lookup(std::uint64_t vpn, std::uint64_t tick) {
  const std::uint64_t set = vpn & set_mask_;
  const auto first = static_cast<std::uint32_t>(set * cfg_.ways);
  Entry* base = &entries_[first];

  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].vpn == vpn) {
      touch(first + w, tick);
      return {.hit = true, .slot = first + w};
    }
  }
  ++misses_;
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!base[w].valid) {
      victim = w;
      break;
    }
    if (base[w].lru < base[victim].lru) victim = w;
  }
  const bool replaced = base[victim].valid;
  base[victim] = {.vpn = vpn, .lru = tick, .valid = true};
  return {.hit = false, .slot = first + victim, .replaced = replaced};
}

void Tlb::flush() {
  for (Entry& e : entries_) e = Entry{};
  tick_ = 0;
}

}  // namespace p2sim::power2
