// In-memory spans of the traced run, their Chrome trace_event export and
// the per-layer self-time table.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace p2sim::perfbench {

/// One timed call into a layer.  `parent` indexes the enclosing span
/// (-1 for a root); `run` groups the spans of one operation (a paper or a
/// query request).  Aggregate spans stand for a total the driver's
/// PhaseTimings sink accumulated over many calls; they are laid end to end
/// on a track of their own and count toward self time like any child.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;  ///< steady-clock seconds
  double end = 0.0;
  int parent = -1;
  int run = 0;
  bool aggregate = false;
};

class Tracer {
 public:
  /// Records a span and returns its index (the handle children name as
  /// their parent).
  int add(Span span);
  /// Sets the end of a span recorded before its end was known.
  void close(int id, double end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Adds every span of `other` (recorded on another thread), keeping
  /// their parent links.
  void append(const Tracer& other);

  /// Writes every span as Chrome trace_event JSON (complete events, one
  /// thread per run; aggregate spans on a separate thread per run).
  bool write_chrome(const std::string& path) const;

  /// Self seconds per layer, summed over the spans `keep` selects: a
  /// span's duration minus the durations of its children.
  std::vector<std::pair<std::string, double>> self_time_by_layer(
      const std::function<bool(const Span&)>& keep) const;

 private:
  std::vector<Span> spans_;
};

/// One checkpoint generation as the driver's progress points announced
/// it: "interval-end" (start) -> "ckpt-mid-write" (mid) ->
/// "ckpt-committed" (end), plus the committed file's size.
struct CkptSpan {
  double start = 0.0;
  double mid = 0.0;
  double end = 0.0;
  std::int64_t bytes = 0;
};

/// Installs workload::set_checkpoint_test_hook so every checkpoint the
/// campaign writes into `dir` is recorded; uninstalls on destruction.
class CkptRecorder {
 public:
  explicit CkptRecorder(const std::string& dir);
  ~CkptRecorder();
  CkptRecorder(const CkptRecorder&) = delete;
  CkptRecorder& operator=(const CkptRecorder&) = delete;

  std::vector<CkptSpan> spans() const;
};

}  // namespace p2sim::perfbench
