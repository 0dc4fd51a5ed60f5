// Binary checkpoint primitives: a type-tagged little-endian stream format
// plus torn-write-proof file persistence.
//
// Every value written by CkptWriter carries a one-byte type tag, so a
// reader that drifts out of sync (version skew, truncation, bit rot) fails
// immediately with a precise CkptError naming the field and byte offset
// instead of silently reinterpreting garbage.  The encoding is fixed-width
// little-endian regardless of host, so checkpoints are portable and their
// checksums stable.
//
// File persistence follows the classic crash-consistency discipline: write
// the full image to `<path>.tmp`, fsync the file, rename over `<path>`,
// fsync the directory.  A crash at any point leaves either the old
// complete file or the new complete file — never a torn hybrid visible
// under the real name.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace p2sim::util {

/// Raised by CkptReader on any malformed input: truncation, a type-tag
/// mismatch, an oversized string, or trailing bytes.  The message always
/// names the field being read and the byte offset of the failure.
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends type-tagged values to an in-memory byte buffer.
class CkptWriter {
 public:
  void put_bool(bool v) {
    tag('b');
    buf_.push_back(v ? '\1' : '\0');
  }
  void put_u8(std::uint8_t v) {
    tag('c');
    buf_.push_back(static_cast<char>(v));
  }
  void put_u32(std::uint32_t v) {
    tag('w');
    put_le(v, 4);
  }
  void put_u64(std::uint64_t v) {
    tag('W');
    put_le(v, 8);
  }
  void put_i32(std::int32_t v) {
    tag('i');
    put_le(static_cast<std::uint32_t>(v), 4);
  }
  void put_i64(std::int64_t v) {
    tag('I');
    put_le(static_cast<std::uint64_t>(v), 8);
  }
  void put_f64(double v);
  void put_str(std::string_view s) {
    tag('s');
    put_le(s.size(), 8);
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  void tag(char t) { buf_.push_back(t); }
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

/// Consumes a CkptWriter stream, validating the type tag of every value.
/// Each read names its field; failures throw CkptError with field + offset.
class CkptReader {
 public:
  explicit CkptReader(std::string_view data) : data_(data) {}

  bool read_bool(const char* what);
  std::uint8_t read_u8(const char* what);
  std::uint32_t read_u32(const char* what);
  std::uint64_t read_u64(const char* what);
  std::int32_t read_i32(const char* what);
  std::int64_t read_i64(const char* what);
  double read_f64(const char* what);
  std::string read_str(const char* what);

  bool at_end() const { return pos_ == data_.size(); }
  /// Throws CkptError unless the whole stream has been consumed.
  void expect_end(const char* what);
  std::size_t offset() const { return pos_; }

 private:
  [[noreturn]] void fail(const char* what, const char* why) const;
  void expect_tag(char t, const char* what);
  std::uint64_t read_le(int n, const char* what);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Field walks.  A checkpointed type lists its fields once, in stream
/// order, in a static member template
///
///   template <class Io, class Self>
///   static void ckpt_fields(Io& io, Self& self);
///
/// that hands each field and its label to ckpt_field, ckpt_seq or
/// ckpt_map.  The one list saves (Io = CkptWriter, Self const) and
/// restores (Io = CkptReader), so the two directions cannot disagree.
/// Restore-only steps (validation, derived state) follow the fields they
/// need under `if constexpr (kRestoring<Io>)`.
template <class Io>
inline constexpr bool kRestoring = std::is_same_v<Io, CkptReader>;

template <class T>
concept CkptWalk = requires(CkptWriter& w, const T& v) {
  T::ckpt_fields(w, v);
};

/// The tagged scalars, one overload pair per encoding.
#define P2SIM_CKPT_SCALAR(Saved, Restored, suffix)                      \
  inline void ckpt_scalar(CkptWriter& w, const char*, Saved v) {       \
    w.put_##suffix(v);                                                 \
  }                                                                    \
  inline void ckpt_scalar(CkptReader& r, const char* what, Restored v) { \
    v = r.read_##suffix(what);                                         \
  }
P2SIM_CKPT_SCALAR(bool, bool&, bool)
P2SIM_CKPT_SCALAR(std::uint8_t, std::uint8_t&, u8)
P2SIM_CKPT_SCALAR(std::uint32_t, std::uint32_t&, u32)
P2SIM_CKPT_SCALAR(std::uint64_t, std::uint64_t&, u64)
P2SIM_CKPT_SCALAR(std::int32_t, std::int32_t&, i32)
P2SIM_CKPT_SCALAR(std::int64_t, std::int64_t&, i64)
P2SIM_CKPT_SCALAR(double, double&, f64)
P2SIM_CKPT_SCALAR(std::string_view, std::string&, str)
#undef P2SIM_CKPT_SCALAR
inline void ckpt_scalar(CkptReader& r, const char* what,
                        std::vector<bool>::reference v) {
  v = r.read_bool(what);
}

/// One field: a scalar (an enum as its underlying integer), a type with
/// ckpt_fields (its walk), or any other range — a std::array, or a vector
/// the config sizes before the read — element by element with no length.
template <class Io, class T>
void ckpt_field(Io& io, const char* what, T& v) {
  using U = std::remove_const_t<T>;
  if constexpr (CkptWalk<U>) {
    U::ckpt_fields(io, v);
  } else if constexpr (std::is_enum_v<U>) {
    auto raw = static_cast<std::underlying_type_t<U>>(v);
    ckpt_field(io, what, raw);
    if constexpr (kRestoring<Io>) v = static_cast<U>(raw);
  } else if constexpr (std::is_arithmetic_v<U> ||
                       std::is_same_v<U, std::string> ||
                       std::is_same_v<U, std::vector<bool>::reference>) {
    ckpt_scalar(io, what, v);
  } else {
    for (auto&& e : v) ckpt_field(io, what, e);
  }
}

/// An element of a sequence or map: `each` is its label, or a callable
/// `each(io, element)` that walks it.
template <class Io, class Each, class E>
void ckpt_element(Io& io, Each& each, E& e) {
  if constexpr (std::is_convertible_v<Each&, const char*>) {
    ckpt_field(io, each, e);
  } else {
    each(io, e);
  }
}

/// A vector or deque with its length: a u64 count labelled `what`, then
/// the elements.  Restoring replaces the contents.
template <class Io, class Seq, class Each>
void ckpt_seq(Io& io, const char* what, Seq& seq, Each&& each) {
  std::uint64_t n = seq.size();
  ckpt_field(io, what, n);
  if constexpr (kRestoring<Io>) {
    seq.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      ckpt_element(io, each, seq.emplace_back());
    }
  } else {
    for (auto&& e : seq) ckpt_element(io, each, e);
  }
}

/// A std::map: a u64 count labelled `what`, then per entry its key
/// (labelled `key_what`) and its value.  Restoring replaces the contents.
template <class Io, class Map, class Each>
void ckpt_map(Io& io, const char* what, const char* key_what, Map& map,
              Each&& each) {
  std::uint64_t n = map.size();
  ckpt_field(io, what, n);
  if constexpr (kRestoring<Io>) {
    map.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      ckpt_field(io, key_what, key);
      typename Map::mapped_type value{};
      ckpt_element(io, each, value);
      map.emplace(std::move(key), std::move(value));
    }
  } else {
    for (auto& [key, value] : map) {
      ckpt_field(io, key_what, key);
      ckpt_element(io, each, value);
    }
  }
}

/// Whole-object entry points for a type with ckpt_fields.
template <CkptWalk T>
void save_ckpt(CkptWriter& w, const T& v) {
  T::ckpt_fields(w, v);
}
template <CkptWalk T>
void restore_ckpt(CkptReader& r, T& v) {
  T::ckpt_fields(r, v);
}

/// Throws CkptError naming `what` unless `v` is finite and non-negative.
void expect_residual(double v, const char* what);

/// A carried residual: a double field whose restore rejects a negative or
/// non-finite value, which the carry arithmetic could not convert.
template <class Io, class T>
void ckpt_residual(Io& io, const char* what, T& v) {
  ckpt_field(io, what, v);
  if constexpr (kRestoring<Io>) expect_residual(v, what);
}

/// Journal sections (the append-only half of a campaign checkpoint, see
/// src/workload/checkpoint.hpp): an append-only collection journals only
/// what it gained since the previous frame, as a section holding its first
/// entry index, a count and the entries.  Returns whether a section that
/// starts at `from` restarts the collection: a journal's first frame starts
/// every section at 0 and replaces whatever the collection held, and every
/// later section must continue exactly where the entries replayed so far
/// end (`have`).  Throws CkptError naming `what` otherwise.
bool journal_section_restarts(std::uint64_t from, std::size_t have,
                              const char* what);

/// Writes the section of entries [from, to), entry i through `each(w, i)`.
template <class Each>
void save_journal_section(CkptWriter& w, std::size_t from, std::size_t to,
                          Each&& each) {
  w.put_u64(from);
  w.put_u64(to - from);
  for (std::size_t i = from; i < to; ++i) each(w, i);
}

/// Reads one section written by save_journal_section onto a collection of
/// `have` entries: calls `restart()` when the section replaces them, then
/// `each(r)` once per entry to append it.
template <class Restart, class Each>
void replay_journal_section(CkptReader& r, const char* what,
                            std::size_t have, Restart&& restart,
                            Each&& each) {
  if (journal_section_restarts(r.read_u64(what), have, what)) restart();
  const std::uint64_t n = r.read_u64(what);
  for (std::uint64_t i = 0; i < n; ++i) each(r);
}

/// The section of `items` from index `from` on, each item its walk.
template <CkptWalk T>
void save_journal_section(CkptWriter& w, const std::vector<T>& items,
                          std::size_t from) {
  save_journal_section(w, from, items.size(),
                       [&items](CkptWriter& w2, std::size_t i) {
                         T::ckpt_fields(w2, items[i]);
                       });
}

/// Appends one section written by save_journal_section to `items`.
template <CkptWalk T>
void replay_journal_section(CkptReader& r, std::vector<T>& items,
                            const char* what) {
  replay_journal_section(
      r, what, items.size(), [&items] { items.clear(); },
      [&items](CkptReader& r2) { T::ckpt_fields(r2, items.emplace_back()); });
}

/// Durable whole-file replacement: temp file + fsync + atomic rename +
/// directory fsync.  Returns true on success; on failure returns false and,
/// when `error` is non-null, stores a one-line reason.  The target is never
/// left torn: either the old contents or the new contents are visible.
bool write_file_durable(const std::string& path, std::string_view data,
                        std::string* error = nullptr);

}  // namespace p2sim::util
