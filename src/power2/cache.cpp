#include "src/power2/cache.hpp"

#include <bit>
#include <stdexcept>

namespace p2sim::power2 {

bool CacheConfig::valid() const {
  if (size_bytes == 0 || line_bytes == 0 || ways == 0) return false;
  if (!std::has_single_bit(static_cast<std::uint64_t>(line_bytes))) return false;
  if (size_bytes % line_bytes != 0) return false;
  if (num_lines() % ways != 0) return false;
  return std::has_single_bit(num_sets());
}

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (!cfg_.valid()) throw std::invalid_argument("invalid cache geometry");
  set_mask_ = cfg_.num_sets() - 1;
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(cfg_.line_bytes)));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.num_sets()));
  lines_.resize(cfg_.num_sets() * cfg_.ways);
}

void Cache::flush() {
  for (Line& l : lines_) l = Line{};
  tick_ = 0;
}

}  // namespace p2sim::power2
