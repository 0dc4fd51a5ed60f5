// Small checksums shared by the text persistence formats (record_io v2,
// the signature store).  FNV-1a is not cryptographic: it detects the
// truncation/bit-rot/hand-edit class of corruption these formats care
// about, nothing more.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace p2sim::util {

inline std::uint32_t fnv1a32(std::string_view data) {
  std::uint32_t h = 0x811c9dc5u;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x01000193u;
  }
  return h;
}

/// 64-bit variant used by the binary checkpoint container, where the
/// payload is large enough that 32 bits of collision margin feel thin.
inline std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

/// FNV-1a-64 over little-endian 64-bit words (the tail is zero-padded to a
/// whole word).  The multiply chain advances once per word instead of once
/// per byte, which is what lets the columnar archive verify a scanned
/// column at decode speed; it detects the same truncation/bit-rot class as
/// the byte-wise form, it is just a different (and ~8x cheaper) member of
/// the FNV family.
inline std::uint64_t fnv1a64_words(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    // One 8-byte load per word; byte-at-a-time assembly costs ~5x more.
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + i, 8);
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    h ^= w;
    h *= 0x00000100000001b3ULL;
  }
  if (i < data.size()) {
    std::uint64_t w = 0;
    for (int b = 0; i < data.size(); ++i, ++b) {
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
           << (8 * b);
    }
    h ^= w;
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

}  // namespace p2sim::util
