// A deterministic worker pool for embarrassingly parallel node loops.
//
// The campaign driver advances 144 per-node lanes every 15-minute interval;
// the lanes share no state, so the loop parallelizes with a cheap serial
// merge (the structure ScALPEL and the LIKWID stack exploit for per-node
// monitoring pipelines).  TaskPool provides exactly that shape: a fixed set
// of std::thread workers, *static* sharding — worker w of t always owns the
// contiguous index range [n*w/t, n*(w+1)/t) — and a full barrier per
// dispatch.  Because the shard map depends only on (n, t) and the lanes are
// independent, the work a given index receives is identical for every
// thread count, which is what makes "bit-identical for threads ∈ {1, 4, N}"
// a structural property rather than a hope.
//
// A dispatch costs no thread wake-up when it follows the previous one
// closely: workers and the caller spin on two atomics (the dispatch epoch
// and the completion count) for a bounded window before parking on the
// condition variables.  The driver dispatches once per pass, usually a few
// tens of microseconds apart, so within a campaign the workers rarely park.
//
// threads == 1 is the explicit serial bypass: no workers are spawned, no
// locks are taken, and run() invokes the task inline — a TaskPool(1) build
// is the pre-pool serial driver, not a pool with one worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/check/annotate.hpp"

namespace p2sim::util {

/// Half-open index range [begin, end) owned by one worker.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  P2SIM_PAR_SAFE bool empty() const noexcept { return begin >= end; }
};

/// The static shard of `n` items owned by `worker` of `workers`: contiguous,
/// sizes differing by at most one, and a pure function of (n, worker,
/// workers) — never of scheduling order.
constexpr ShardRange shard_range(std::size_t n, int worker,
                                 int workers) noexcept {
  const auto w = static_cast<std::size_t>(worker);
  const auto t = static_cast<std::size_t>(workers);
  return {n * w / t, n * (w + 1) / t};
}

class TaskPool {
 public:
  /// task(shard, begin, end): `shard` is the worker index w whose
  /// shard_range(n, w, threads()) is [begin, end), so a task may keep one
  /// accumulator per shard and write it without synchronization.
  using Task = std::function<void(int, std::size_t, std::size_t)>;

  /// threads >= 2 spawns threads-1 workers (the calling thread runs shard
  /// 0); threads == 1 runs everything inline; threads == 0 means one per
  /// hardware core.  Throws std::invalid_argument on negative counts.
  explicit TaskPool(int threads = 1);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const noexcept { return threads_; }

  /// Runs task(w, begin, end) once per non-empty shard w of [0, n) and
  /// returns only when every shard has finished (a full barrier:
  /// everything the shards wrote happens-before the return).  The first
  /// exception any shard throws is rethrown here after the barrier.  Not
  /// reentrant: shards must not call run() on the same pool.
  P2SIM_SERIAL_ONLY void run(std::size_t n, const Task& task);

 private:
  void worker_loop(int worker_index);
  void run_shard(const Task& task, std::size_t n, int worker_index);
  /// Makes (task, n) the next epoch's dispatch and wakes parked workers.
  /// A null task is the stop order.
  void publish(const Task* task, std::size_t n);
  /// Spins until ready() holds for a bounded window, then parks on `cv`.
  template <typename Ready>
  void await(std::condition_variable& cv, const Ready& ready);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  // Dispatch slot.  publish() writes it before the release increment of
  // epoch_; a worker reads it after acquiring the new epoch.  The caller
  // rewrites it only after pending_ has reached zero, so no worker is
  // still reading.
  const Task* task_ = nullptr;
  std::size_t task_items_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::exception_ptr first_error_ P2SIM_GUARDED_BY(mutex_);
};

}  // namespace p2sim::util
