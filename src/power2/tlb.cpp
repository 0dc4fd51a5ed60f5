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

void Tlb::flush() {
  for (Entry& e : entries_) e = Entry{};
  tick_ = 0;
}

}  // namespace p2sim::power2
