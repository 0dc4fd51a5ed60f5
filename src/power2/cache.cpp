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

Cache::Placement Cache::lookup(std::uint64_t block, bool is_store,
                               std::uint64_t tick) {
  const std::uint64_t set = block & set_mask_;
  const std::uint64_t tag = block >> set_shift_;
  const auto first = static_cast<std::uint32_t>(set * cfg_.ways);
  Line* base = &lines_[first];

  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      touch(first + w, tick, is_store);
      return {.access = {.hit = true}, .slot = first + w, .resident = true};
    }
  }

  ++misses_;
  Placement out;
  if (is_store && !cfg_.write_allocate) {
    // Write-through-no-allocate stores go straight to memory.
    return out;
  }

  // Choose the victim: invalid way first, else true LRU.
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!base[w].valid) {
      victim = w;
      break;
    }
    if (base[w].lru < base[victim].lru) victim = w;
  }
  Line& l = base[victim];
  out.replaced = l.valid;
  if (l.valid && l.dirty) {
    out.access.dirty_evict = true;
    ++dirty_evictions_;
  }
  l = {.tag = tag, .lru = tick, .valid = true, .dirty = is_store};
  out.access.reload = true;
  out.slot = first + victim;
  out.resident = true;
  return out;
}

void Cache::flush() {
  for (Line& l : lines_) l = Line{};
  tick_ = 0;
}

}  // namespace p2sim::power2
