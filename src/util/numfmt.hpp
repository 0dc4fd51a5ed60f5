// Number formatting shared by the text record format and the query
// renderers, and the strict number parser behind every command-line flag.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace p2sim::util {

/// Shortest decimal string that round-trips the exact double
/// (std::to_chars shortest form).  Text exports written with this survive
/// a parse-and-rewrite cycle bit-identically, which is what lets the
/// archive <-> text converters promise lossless round trips.
inline std::string format_double(double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// Parses all of `text` as a decimal T (std::from_chars: no leading space
/// or '+', and a '-' only for signed T).  nullopt on an empty, malformed,
/// partly numeric ("80x") or out-of-range value, so a bad flag or query
/// parameter is rejected instead of read as 0 or as its numeric prefix.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return v;
}

}  // namespace p2sim::util
