#include "src/util/ckpt.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace p2sim::util {

void CkptWriter::put_f64(double v) {
  tag('d');
  put_le(std::bit_cast<std::uint64_t>(v), 8);
}

void CkptReader::fail(const char* what, const char* why) const {
  std::ostringstream os;
  os << "checkpoint field '" << what << "' at offset " << pos_ << ": " << why;
  throw CkptError(os.str());
}

void CkptReader::expect_tag(char t, const char* what) {
  if (pos_ >= data_.size()) fail(what, "stream truncated before type tag");
  char got = data_[pos_];
  if (got != t) fail(what, "type tag mismatch");
  ++pos_;
}

std::uint64_t CkptReader::read_le(int n, const char* what) {
  if (data_.size() - pos_ < static_cast<std::size_t>(n)) {
    fail(what, "stream truncated inside value");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += static_cast<std::size_t>(n);
  return v;
}

bool CkptReader::read_bool(const char* what) {
  expect_tag('b', what);
  return read_le(1, what) != 0;
}

std::uint8_t CkptReader::read_u8(const char* what) {
  expect_tag('c', what);
  return static_cast<std::uint8_t>(read_le(1, what));
}

std::uint32_t CkptReader::read_u32(const char* what) {
  expect_tag('w', what);
  return static_cast<std::uint32_t>(read_le(4, what));
}

std::uint64_t CkptReader::read_u64(const char* what) {
  expect_tag('W', what);
  return read_le(8, what);
}

std::int32_t CkptReader::read_i32(const char* what) {
  expect_tag('i', what);
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(read_le(4, what)));
}

std::int64_t CkptReader::read_i64(const char* what) {
  expect_tag('I', what);
  return static_cast<std::int64_t>(read_le(8, what));
}

double CkptReader::read_f64(const char* what) {
  expect_tag('d', what);
  return std::bit_cast<double>(read_le(8, what));
}

std::string CkptReader::read_str(const char* what) {
  expect_tag('s', what);
  std::uint64_t n = read_le(8, what);
  if (n > data_.size() - pos_) fail(what, "string length exceeds payload");
  std::string s(data_.substr(pos_, static_cast<std::size_t>(n)));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void CkptReader::expect_end(const char* what) {
  if (!at_end()) fail(what, "trailing bytes after final field");
}

namespace {

void set_error(std::string* error, const std::string& path, const char* op) {
  if (error == nullptr) return;
  *error = path + ": " + op + ": " + std::strerror(errno);
}

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void expect_residual(double v, const char* what) {
  if (!(std::isfinite(v) && v >= 0.0)) {
    throw CkptError(std::string(what) + ": negative or non-finite residual");
  }
}

bool journal_section_restarts(std::uint64_t from, std::size_t have,
                              const char* what) {
  if (from == 0) return true;
  if (from != have) {
    std::ostringstream os;
    os << "checkpoint field '" << what << "': journal section starts at "
       << "entry " << from << " but " << have << " entries precede it";
    throw CkptError(os.str());
  }
  return false;
}

bool write_file_durable(const std::string& path, std::string_view data,
                        std::string* error) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    set_error(error, tmp, "open");
    return false;
  }
  if (!write_all(fd, data)) {
    set_error(error, tmp, "write");
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    set_error(error, tmp, "fsync");
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    set_error(error, tmp, "close");
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, path, "rename");
    ::unlink(tmp.c_str());
    return false;
  }
  // fsync the containing directory so the rename itself is durable.
  std::string dir = path;
  std::size_t slash = dir.find_last_of('/');
  dir = (slash == std::string::npos) ? std::string(".") : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace p2sim::util
