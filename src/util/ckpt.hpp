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

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// Writes the section of `items` from index `from` on.
template <typename T>
void save_journal_section(CkptWriter& w, const std::vector<T>& items,
                          std::size_t from) {
  w.put_u64(from);
  w.put_u64(items.size() - from);
  for (std::size_t i = from; i < items.size(); ++i) items[i].save_ckpt(w);
}

/// Appends one section written by save_journal_section to `items`.
template <typename T>
void replay_journal_section(CkptReader& r, std::vector<T>& items,
                            const char* what) {
  if (journal_section_restarts(r.read_u64(what), items.size(), what)) {
    items.clear();
  }
  const std::uint64_t n = r.read_u64(what);
  for (std::uint64_t i = 0; i < n; ++i) {
    items.emplace_back();
    items.back().restore_ckpt(r);
  }
}

/// Durable whole-file replacement: temp file + fsync + atomic rename +
/// directory fsync.  Returns true on success; on failure returns false and,
/// when `error` is non-null, stores a one-line reason.  The target is never
/// left torn: either the old contents or the new contents are visible.
bool write_file_durable(const std::string& path, std::string_view data,
                        std::string* error = nullptr);

}  // namespace p2sim::util
