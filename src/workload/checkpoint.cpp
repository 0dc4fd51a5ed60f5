#include "src/workload/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "src/power2/signature_store.hpp"
#include "src/util/checksum.hpp"
#include "src/workload/driver.hpp"

namespace p2sim::workload {
namespace {

/// Generation magic: version bumps rename the last byte, so an old binary
/// rejects a new checkpoint with "bad magic" instead of misparsing it.
constexpr char kMagic[8] = {'P', '2', 'S', 'I', 'M', 'C', 'K', '5'};
/// Generation header: magic, config hash, resume interval, journal bytes,
/// journal chain, payload size, payload checksum, header checksum.
constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kHeaderChecksumOffset = 56;

/// Journal header: magic, config hash.  Each frame that follows is
/// [u64 length][u64 fnv1a64_words(payload)][payload].
constexpr char kJournalMagic[8] = {'P', '2', 'S', 'I', 'M', 'J', 'N', '2'};
constexpr std::size_t kJournalHeaderSize = 16;
constexpr std::size_t kFrameHeaderSize = 16;

CheckpointTestHook g_test_hook = nullptr;

void put_le64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t get_le64(std::string_view bytes, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[off + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void fail_at(const char* what, std::size_t offset,
                          const char* why) {
  std::ostringstream os;
  os << "checkpoint field '" << what << "' at offset " << offset << ": "
     << why;
  throw util::CkptError(os.str());
}

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

bool read_all(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // One allocation of the file's size up front: a journal of megabytes
  // read in 64 KB appends would regrow and copy the string a dozen times.
  struct stat st {};
  if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0) {
    out->reserve(out->size() + static_cast<std::size_t>(st.st_size));
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

void fsync_dir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

/// The journal's hash chain: each frame's checksum folds into the chain
/// value of the prefix before it.
std::uint64_t chain_step(std::uint64_t chain, std::uint64_t frame_sum) {
  std::string buf;
  put_le64(buf, chain);
  put_le64(buf, frame_sum);
  return util::fnv1a64_words(buf);
}

/// Fingerprint helper: the fields stream through a CkptWriter (typed,
/// little-endian, length-prefixed strings) and the byte stream is hashed,
/// so two configs collide only by hash collision, never by ambiguous
/// concatenation.
class FingerprintSink {
 public:
  void b(bool v) { w_.put_bool(v); }
  void i(std::int64_t v) { w_.put_i64(v); }
  void u(std::uint64_t v) { w_.put_u64(v); }
  void d(double v) { w_.put_f64(v); }
  std::uint64_t digest() const {
    return util::fnv1a64(
        std::string_view(w_.bytes().data(), w_.bytes().size()));
  }

 private:
  util::CkptWriter w_;
};

/// A fresh journal's header bytes, and the position just past them.
std::string encode_journal_header(std::uint64_t config_hash) {
  std::string out(kJournalMagic, sizeof kJournalMagic);
  put_le64(out, config_hash);
  return out;
}

JournalPos journal_start(std::uint64_t config_hash) {
  return {kJournalHeaderSize,
          util::fnv1a64(encode_journal_header(config_hash))};
}

/// Verifies the journal prefix a generation stands on and returns its
/// frames; throws util::CkptError at the first damage.
std::vector<JournalFrame> verify_journal_prefix(std::string_view journal,
                                                std::uint64_t config_hash,
                                                JournalPos pos) {
  if (journal.size() < pos.bytes) {
    fail_at("journal_bytes", journal.size(),
            "journal shorter than the generation's prefix (truncated "
            "journal)");
  }
  if (pos.bytes < kJournalHeaderSize) {
    fail_at("journal_bytes", 0, "prefix shorter than the journal header");
  }
  if (std::memcmp(journal.data(), kJournalMagic, sizeof kJournalMagic) != 0) {
    fail_at("journal.magic", 0,
            "bad journal magic (not a p2sim journal, or a different "
            "container version)");
  }
  if (get_le64(journal, 8) != config_hash) {
    fail_at("journal.config_hash", 8,
            "journal fingerprint mismatch (journal belongs to a different "
            "campaign configuration)");
  }
  std::vector<JournalFrame> frames;
  std::uint64_t chain = util::fnv1a64(journal.substr(0, kJournalHeaderSize));
  std::size_t off = kJournalHeaderSize;
  while (off < pos.bytes) {
    if (pos.bytes - off < kFrameHeaderSize) {
      fail_at("frame.header", off,
              "frame header overruns the generation's prefix");
    }
    const std::uint64_t len = get_le64(journal, off);
    const std::uint64_t sum = get_le64(journal, off + 8);
    if (len > pos.bytes - off - kFrameHeaderSize) {
      fail_at("frame.length", off,
              "frame length overruns the generation's prefix (torn or "
              "corrupted frame)");
    }
    const JournalFrame frame{off + kFrameHeaderSize,
                             static_cast<std::size_t>(len)};
    if (util::fnv1a64_words(journal.substr(frame.offset, frame.size)) !=
        sum) {
      fail_at("frame.checksum", off + 8,
              "frame checksum mismatch (torn or corrupted frame)");
    }
    frames.push_back(frame);
    chain = chain_step(chain, sum);
    off = frame.offset + frame.size;
  }
  if (chain != pos.chain) {
    fail_at("journal_chain", pos.bytes,
            "hash chain mismatch (the journal was rewritten after the "
            "generation was written)");
  }
  return frames;
}

}  // namespace

void set_checkpoint_test_hook(CheckpointTestHook hook) { g_test_hook = hook; }

void checkpoint_test_tick(const char* point, std::int64_t value) {
  if (g_test_hook != nullptr) g_test_hook(point, value);
}

std::uint64_t config_fingerprint(const DriverConfig& cfg) {
  FingerprintSink s;
  // Campaign shape and demand process.
  s.i(cfg.num_nodes);
  s.i(cfg.days);
  s.d(cfg.jobs_per_day);
  s.d(cfg.weekend_factor);
  s.d(cfg.demand_walk_rho);
  s.d(cfg.demand_walk_noise);
  s.d(cfg.demand_min);
  s.d(cfg.demand_max);
  s.d(cfg.slump_prob_per_day);
  s.d(cfg.slump_depth_min);
  s.d(cfg.slump_depth_max);
  s.u(cfg.seed);
  s.b(cfg.requeue_killed_jobs);
  // Fault schedule (a pure function of its config).
  s.b(cfg.faults.enabled);
  s.d(cfg.faults.node_crashes_per_node_day);
  s.i(cfg.faults.reboot_downtime_intervals);
  s.d(cfg.faults.interval_miss_prob);
  s.d(cfg.faults.node_sample_loss_prob);
  s.d(cfg.faults.prologue_loss_prob);
  s.d(cfg.faults.epilogue_loss_prob);
  s.d(cfg.faults.record_corruption_prob);
  s.u(cfg.faults.seed);
  // PBS policy.
  s.i(cfg.sched.total_nodes);
  s.i(cfg.sched.drain_threshold_nodes);
  s.d(cfg.sched.wide_wait_patience_s);
  s.b(cfg.sched.checkpoint_for_wide);
  // Node model (monitor selection included: it steers counter wiring).
  s.d(cfg.node.clock_hz);
  s.d(cfg.node.memory_mb);
  s.b(cfg.node.monitor.divide_counter_bug);
  s.i(static_cast<std::int64_t>(cfg.node.monitor.selection));
  s.d(cfg.node.dma.eight_word_fraction);
  s.d(cfg.node.fault_fxu_inst);
  s.d(cfg.node.fault_icu_inst);
  s.d(cfg.node.fault_cycles);
  s.d(cfg.node.page_bytes);
  s.d(cfg.node.os_noise_fxu_per_s);
  s.d(cfg.node.os_noise_icu_per_s);
  s.d(cfg.node.max_sample_slice_s);
  s.b(cfg.node.reference_accrual);
  // Paging, switch, NFS.
  s.d(cfg.paging.node_memory_mb);
  s.d(cfg.paging.fault_rate_at_2x);
  s.d(cfg.paging.fault_service_s);
  s.d(cfg.paging.fxu_inst_per_fault);
  s.d(cfg.paging.icu_inst_per_fault);
  s.d(cfg.paging.cycles_per_fault);
  s.d(cfg.paging.page_bytes);
  s.d(cfg.hps.latency_s);
  s.d(cfg.hps.bandwidth_bytes_per_s);
  s.i(cfg.nfs.num_filesystems);
  s.d(cfg.nfs.capacity_gb_each);
  s.d(cfg.nfs.server_bandwidth_bytes_per_s);
  // POWER2 core: reuse the signature store's structural hash.
  s.u(power2::core_config_hash(cfg.core));
  // Job generator (vectors hashed element-wise behind their lengths).
  const JobGenConfig& g = cfg.jobgen;
  s.i(static_cast<std::int64_t>(g.node_choices.size()));
  for (int c : g.node_choices) s.i(c);
  s.i(static_cast<std::int64_t>(g.node_weights.size()));
  for (double wgt : g.node_weights) s.d(wgt);
  s.d(g.runtime_median_s);
  s.d(g.runtime_sigma);
  s.d(g.runtime_min_s);
  s.d(g.runtime_max_s);
  s.d(g.interactive_prob);
  s.d(g.dev_session_prob);
  s.d(g.dev_duty_min);
  s.d(g.dev_duty_max);
  s.i(g.dev_max_nodes);
  s.d(g.memory_median_mb);
  s.d(g.memory_sigma);
  s.i(g.paging_node_threshold);
  s.d(g.wide_paging_prob);
  s.d(g.narrow_paging_prob);
  s.d(g.paging_demand_min);
  s.d(g.paging_demand_max);
  s.d(g.paging_episode_start_prob);
  s.i(g.paging_episode_min_days);
  s.i(g.paging_episode_max_days);
  s.d(g.paging_episode_narrow_prob);
  s.i(static_cast<std::int64_t>(g.family_weights.size()));
  for (double wgt : g.family_weights) s.d(wgt);
  s.d(g.quality_mean);
  s.d(g.quality_sigma);
  s.d(g.code_reuse_prob);
  s.u(g.seed);
  // Deliberately excluded: threads, observer, signature_store_path and
  // the checkpoint config — none of them shape campaign results.
  return s.digest();
}

std::string encode_checkpoint_file(std::uint64_t config_hash,
                                   std::int64_t resume_interval,
                                   JournalPos journal,
                                   std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof kMagic);
  put_le64(out, config_hash);
  put_le64(out, std::bit_cast<std::uint64_t>(resume_interval));
  put_le64(out, journal.bytes);
  put_le64(out, journal.chain);
  put_le64(out, payload.size());
  put_le64(out, util::fnv1a64_words(payload));
  put_le64(out, util::fnv1a64(
                    std::string_view(out.data(), kHeaderChecksumOffset)));
  out.append(payload.data(), payload.size());
  return out;
}

CheckpointImage decode_checkpoint_file(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    fail_at("header", bytes.size(), "file shorter than the 64-byte header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    fail_at("magic", 0, "bad magic (not a p2sim checkpoint, or a "
                        "different container version)");
  }
  const std::uint64_t stored_header_sum =
      get_le64(bytes, kHeaderChecksumOffset);
  const std::uint64_t actual_header_sum =
      util::fnv1a64(bytes.substr(0, kHeaderChecksumOffset));
  if (stored_header_sum != actual_header_sum) {
    fail_at("header_checksum", kHeaderChecksumOffset,
            "header checksum mismatch (torn or corrupted header)");
  }
  CheckpointImage img;
  img.config_hash = get_le64(bytes, 8);
  img.resume_interval =
      std::bit_cast<std::int64_t>(get_le64(bytes, 16));
  img.journal_pos.bytes = get_le64(bytes, 24);
  img.journal_pos.chain = get_le64(bytes, 32);
  const std::uint64_t payload_size = get_le64(bytes, 40);
  const std::uint64_t payload_sum = get_le64(bytes, 48);
  if (img.resume_interval < 0) {
    fail_at("resume_interval", 16, "negative resume interval");
  }
  if (payload_size != bytes.size() - kHeaderSize) {
    fail_at("payload_size", 40,
            "payload size disagrees with file size (truncated write)");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (util::fnv1a64_words(payload) != payload_sum) {
    fail_at("payload_checksum", kHeaderSize,
            "payload checksum mismatch (torn or corrupted payload)");
  }
  img.payload.assign(payload.data(), payload.size());
  return img;
}

std::string encode_journal_frame(std::string_view payload, JournalPos* pos) {
  const std::uint64_t sum = util::fnv1a64_words(payload);
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_le64(out, payload.size());
  put_le64(out, sum);
  out.append(payload.data(), payload.size());
  pos->bytes += out.size();
  pos->chain = chain_step(pos->chain, sum);
  return out;
}

std::string checkpoint_file_name(std::int64_t resume_interval) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ckpt-%012lld.p2ck",
                static_cast<long long>(resume_interval));
  return buf;
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.compare(0, 5, "ckpt-") == 0 &&
        name.size() > 5 + 5 &&
        name.compare(name.size() - 5, 5, ".p2ck") == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool JournalWriter::start(const std::string& dir, std::uint64_t config_hash,
                          std::string* error) {
  close();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const std::string& name : list_checkpoints(dir)) {
    ::unlink((dir + "/" + name).c_str());
  }
  path_ = dir + "/" + kJournalFile;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    set_error(error, path_, "open");
    return false;
  }
  if (!write_all(fd_, encode_journal_header(config_hash)) ||
      ::fsync(fd_) != 0) {
    set_error(error, path_, "write");
    close();
    return false;
  }
  fsync_dir(dir);
  pos_ = journal_start(config_hash);
  return true;
}

bool JournalWriter::resume(const std::string& dir, const CheckpointImage& img,
                           std::string* error) {
  close();
  const std::string newest = checkpoint_file_name(img.resume_interval);
  for (const std::string& name : list_checkpoints(dir)) {
    if (name > newest) ::unlink((dir + "/" + name).c_str());
  }
  path_ = dir + "/" + kJournalFile;
  fd_ = ::open(path_.c_str(), O_WRONLY);
  if (fd_ < 0) {
    set_error(error, path_, "open");
    return false;
  }
  if (::ftruncate(fd_, static_cast<off_t>(img.journal_pos.bytes)) != 0 ||
      ::fsync(fd_) != 0) {
    set_error(error, path_, "truncate");
    close();
    return false;
  }
  fsync_dir(dir);
  pos_ = img.journal_pos;
  return true;
}

bool JournalWriter::append(std::string_view payload, std::int64_t tick_value,
                           std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = path_ + ": journal is not open";
    return false;
  }
  JournalPos next = pos_;
  const std::string frame = encode_journal_frame(payload, &next);
  // Two half-writes with a test tick between them, like the generation
  // write: the kill harness tears the frame, and the loader must ignore
  // the torn tail because no committed generation references it.
  const std::string_view data(frame);
  bool ok = ::lseek(fd_, static_cast<off_t>(pos_.bytes), SEEK_SET) >= 0 &&
            write_all(fd_, data.substr(0, data.size() / 2));
  checkpoint_test_tick("journal-mid-append", tick_value);
  ok = ok && write_all(fd_, data.substr(data.size() / 2)) &&
       ::fsync(fd_) == 0;
  if (!ok) {
    set_error(error, path_, "append");
    if (::ftruncate(fd_, static_cast<off_t>(pos_.bytes)) != 0) close();
    return false;
  }
  pos_ = next;
  checkpoint_test_tick("journal-appended", tick_value);
  return true;
}

bool write_checkpoint(const std::string& dir, std::uint64_t config_hash,
                      std::int64_t resume_interval, JournalPos journal,
                      std::string_view payload, int keep,
                      std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string data =
      encode_checkpoint_file(config_hash, resume_interval, journal, payload);
  const std::string path = dir + "/" + checkpoint_file_name(resume_interval);
  const std::string tmp = path + ".tmp";

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    set_error(error, tmp, "open");
    return false;
  }
  // Two half-writes with a test tick between them: the kill harness lands
  // SIGKILL exactly mid-checkpoint, leaving a torn .tmp the loader must
  // never consider (it only reads committed *.p2ck generations).
  const std::string_view head = std::string_view(data).substr(0, data.size() / 2);
  const std::string_view tail = std::string_view(data).substr(data.size() / 2);
  bool ok = write_all(fd, head);
  checkpoint_test_tick("ckpt-mid-write", resume_interval);
  ok = ok && write_all(fd, tail);
  if (!ok) {
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
  checkpoint_test_tick("ckpt-pre-rename", resume_interval);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, path, "rename");
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_dir(dir);
  checkpoint_test_tick("ckpt-committed", resume_interval);

  // Prune beyond `keep` generations, oldest first.  Pruning failures are
  // ignored: stale generations waste disk, never correctness.
  if (keep > 0) {
    std::vector<std::string> names = list_checkpoints(dir);
    while (names.size() > static_cast<std::size_t>(keep)) {
      ::unlink((dir + "/" + names.front()).c_str());
      names.erase(names.begin());
    }
  }
  return true;
}

std::optional<CheckpointImage> load_latest_checkpoint(
    const std::string& dir, std::uint64_t config_hash, ResumeReport* report) {
  if (report != nullptr) report->attempted = true;
  const auto reject = [report](const std::string& why) {
    if (report != nullptr) report->rejected.push_back(why);
  };
  // The journal is read once, on the first generation that needs it.
  std::string journal;
  std::string journal_error;
  bool journal_read = false;
  std::vector<std::string> names = list_checkpoints(dir);
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const std::string path = dir + "/" + *it;
    std::string bytes;
    if (!read_all(path, &bytes)) {
      reject(path + ": unreadable: " + std::strerror(errno));
      continue;
    }
    try {
      CheckpointImage img = decode_checkpoint_file(bytes);
      if (img.config_hash != config_hash) {
        fail_at("config_hash", 8,
                "config fingerprint mismatch (checkpoint belongs to a "
                "different campaign configuration)");
      }
      if (!journal_read) {
        journal_read = true;
        const std::string journal_path = dir + "/" + kJournalFile;
        if (!read_all(journal_path, &journal)) {
          journal_error = journal_path + " unreadable: " +
                          std::strerror(errno);
        }
      }
      if (!journal_error.empty()) {
        throw util::CkptError("journal: " + journal_error);
      }
      img.frames = verify_journal_prefix(journal, config_hash,
                                         img.journal_pos);
      if (report != nullptr) {
        report->resumed = true;
        report->resume_interval = img.resume_interval;
        report->loaded_path = path;
      }
      img.journal = std::move(journal);
      img.journal.resize(static_cast<std::size_t>(img.journal_pos.bytes));
      return img;
    } catch (const util::CkptError& e) {
      reject(path + ": " + e.what());
    }
  }
  return std::nullopt;
}

}  // namespace p2sim::workload
