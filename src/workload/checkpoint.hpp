// Crash-consistent campaign checkpoints: the durable on-disk formats.
//
// A checkpoint carries the complete deterministic campaign state at an
// interval boundary, so a killed campaign resumes bit-identically to the
// uninterrupted run (tests/workload/crash_recovery_test.cpp holds the
// fingerprint oracle).  The state is split in two, the way RS2HPM's daemon
// appended each interval's deltas once and never rewrote them:
//
//   * the *journal* (`journal.p2cj`, one per checkpoint directory) holds
//     the append-only collections — interval records, job records,
//     signatures, trace events.  Each checkpoint appends one frame with
//     what they gained since the previous frame, so every record is
//     written once;
//   * a *generation* (`ckpt-<interval>.p2ck`) holds only the live state
//     plus the length of the journal prefix it stands on and a hash chain
//     over that prefix's frame checksums.  Its size does not grow with
//     campaign length.
//
// Neither carries what the config recomputes: the job stream (the master
// stream's draws, the generator and every job profile) is rebuilt from the
// config on resume, which the fingerprint below covers.
//
// This module owns both containers; the payloads are opaque streams the
// driver's serializers produce.  Torn-write safety comes from the write
// order — append the frame and fsync the journal, then write the
// generation to `<name>.tmp`, fsync, atomically rename, fsync the
// directory — plus generations: the newest `keep` survive pruning (they
// share the journal, each standing on a prefix of it), and a corrupt
// newest generation, or one whose journal prefix is damaged, falls back to
// the previous one with the rejection reason reported, never silently.
//
// The config fingerprint hashes every determinism-relevant DriverConfig
// field (and none of the wall-clock-only knobs: threads, observer, the
// signature store path, the checkpoint config itself), so a checkpoint can
// never be resumed against a campaign it does not describe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/annotate.hpp"
#include "src/util/ckpt.hpp"

namespace p2sim::workload {

struct DriverConfig;

/// How a resume attempt went (wire `CheckpointConfig::report` to receive
/// it).  `rejected` lists every generation that failed validation, newest
/// first, each with the precise reason — a corrupt newest checkpoint must
/// leave an audit trail, not vanish.
struct ResumeReport {
  bool attempted = false;
  bool resumed = false;
  std::int64_t resume_interval = -1;
  std::string loaded_path;
  std::vector<std::string> rejected;
};

/// Campaign checkpointing knobs, carried inside DriverConfig.  All of it
/// is excluded from the config fingerprint: checkpoint cadence shapes
/// durability, never results.
struct CheckpointConfig {
  /// Directory for checkpoint generations; empty disables checkpointing.
  std::string dir{};
  /// Simulated-time cadence: write after every N-th interval (> 0 when
  /// `dir` is set; the driver rejects anything else).
  std::int64_t every_intervals = 96;
  /// Generations to retain (older ones are pruned after a commit).
  int keep = 2;
  /// Resume from the newest valid checkpoint in `dir` before running.
  bool resume = false;
  /// Optional resume audit sink (not owned; may be nullptr).
  ResumeReport* report = nullptr;
};

/// Test seam for the kill-injection harness: when installed, the driver
/// and the checkpoint writers announce progress points ("interval-end",
/// "journal-mid-append", "journal-appended", "ckpt-mid-write",
/// "ckpt-pre-rename", "ckpt-committed") and the harness raises SIGKILL at
/// a scheduled one.  A plain function pointer on the
/// serial path — never consulted from worker threads.
using CheckpointTestHook = void (*)(const char* point, std::int64_t value);
void set_checkpoint_test_hook(CheckpointTestHook hook);
/// Invokes the installed hook (no-op when none is).
void checkpoint_test_tick(const char* point, std::int64_t value);

/// FNV-1a/64 over every determinism-relevant DriverConfig field.  Two
/// configs with equal fingerprints produce bit-identical campaigns; the
/// loader refuses checkpoints whose fingerprint differs.
std::uint64_t config_fingerprint(const DriverConfig& cfg);

/// Where a generation's journal prefix ends: its length in bytes and the
/// hash chain over the checksums of the frames it holds.  A fresh journal
/// (header only) has its own length and a chain seeded from its header.
struct JournalPos {
  std::uint64_t bytes = 0;
  std::uint64_t chain = 0;
};

/// The journal file inside a checkpoint directory.
inline constexpr const char* kJournalFile = "journal.p2cj";

/// One frame's payload inside CheckpointImage::journal.
struct JournalFrame {
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// A validated, decoded checkpoint: one generation plus the verified
/// journal prefix it stands on.
struct CheckpointImage {
  std::uint64_t config_hash = 0;
  /// First interval the resumed loop must execute (state covers [0, this)).
  std::int64_t resume_interval = 0;
  JournalPos journal_pos;
  /// The generation's live state.
  std::string payload;
  /// The journal prefix [0, journal_pos.bytes) and its frames, oldest
  /// first (empty when decoded from a generation alone).
  std::string journal;
  std::vector<JournalFrame> frames;

  std::string_view frame(std::size_t i) const {
    return std::string_view(journal).substr(frames[i].offset,
                                            frames[i].size);
  }
};

/// Serializes a generation's header + payload into its on-disk bytes.
std::string encode_checkpoint_file(std::uint64_t config_hash,
                                   std::int64_t resume_interval,
                                   JournalPos journal,
                                   std::string_view payload);

/// Validates and decodes a generation's bytes (the journal fields are
/// decoded, not checked against a journal).  Throws util::CkptError naming
/// the offending field and offset on any malformation: bad magic or an
/// older container version, truncation anywhere, a header or payload
/// checksum mismatch.
CheckpointImage decode_checkpoint_file(std::string_view bytes);

/// Serializes one journal frame (length, checksum, payload) and advances
/// `pos` past it: its length grows and the frame's checksum enters the
/// chain.
std::string encode_journal_frame(std::string_view payload, JournalPos* pos);

/// Generation file name for a checkpoint taken after `resume_interval`
/// intervals: zero-padded so lexicographic order is interval order.
std::string checkpoint_file_name(std::int64_t resume_interval);

/// Checkpoint generations present in `dir`, ascending by interval
/// (in-flight `*.tmp` files are ignored).  Missing directory = empty.
std::vector<std::string> list_checkpoints(const std::string& dir);

/// Appends frames durably to a checkpoint directory's journal.  Serial
/// state: the driver touches it only from its checkpoint and resume paths.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Starts a fresh journal in `dir` (created if missing).  Stale
  /// generations go first, then the old journal is replaced by a durable
  /// header, so no generation can ever point into a journal it did not
  /// write.  Returns false with `*error` set on failure.
  P2SIM_SERIAL_ONLY bool start(const std::string& dir,
                               std::uint64_t config_hash, std::string* error);
  /// Reopens the journal a resumed generation stands on: generations
  /// newer than `img` are removed (the resume rejected them) and the
  /// journal is cut back to `img.journal_pos`, discarding a torn tail or
  /// frames no committed generation references.
  P2SIM_SERIAL_ONLY bool resume(const std::string& dir,
                                const CheckpointImage& img,
                                std::string* error);
  /// Appends one frame and fsyncs the journal, announcing
  /// "journal-mid-append" halfway through the write and "journal-appended"
  /// after the fsync (both with `tick_value`).  On failure the journal is
  /// cut back to its previous length, or closed when even that fails.
  P2SIM_SERIAL_ONLY bool append(std::string_view payload,
                                std::int64_t tick_value, std::string* error);

  bool is_open() const { return fd_ >= 0; }
  /// The end of the last frame appended (or of the header).
  JournalPos pos() const { return pos_; }

 private:
  void close();

  int fd_ = -1;
  std::string path_;
  JournalPos pos_;
};

/// Durably writes one generation (temp + fsync + rename + directory
/// fsync) standing on the journal prefix `journal`, and prunes generations
/// beyond `keep`.  Announces "ckpt-mid-write" / "ckpt-pre-rename" /
/// "ckpt-committed" to the test hook.  Returns false with `*error` set on
/// failure; a failed write leaves existing generations untouched.
bool write_checkpoint(const std::string& dir, std::uint64_t config_hash,
                      std::int64_t resume_interval, JournalPos journal,
                      std::string_view payload, int keep,
                      std::string* error);

/// Loads the newest valid checkpoint whose fingerprint matches
/// `config_hash`, walking generations newest-first and recording every
/// rejection (with its reason) in `report`: a damaged generation, a
/// foreign fingerprint, or a damaged or missing journal prefix (the
/// header, every frame's length and checksum, and the hash chain are
/// verified; bytes beyond the prefix, such as a torn append, are
/// ignored).  Read-only.
/// Returns nullopt when no generation validates — the caller then runs
/// from the beginning.
std::optional<CheckpointImage> load_latest_checkpoint(
    const std::string& dir, std::uint64_t config_hash, ResumeReport* report);

}  // namespace p2sim::workload
