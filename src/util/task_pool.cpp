#include "src/util/task_pool.hpp"

#include <stdexcept>
#include <utility>

namespace p2sim::util {

namespace {

// Spin-window length in polls.  A poll is an atomic load plus a pause;
// every 16th poll yields instead, so on an oversubscribed host (more pool
// threads than free CPUs) a spinning thread hands its CPU to the thread it
// is waiting for.  On a 4-vCPU Xeon host the window is about 100 µs:
// longer than the serial phases between two of the driver's dispatches,
// short enough that an idle pool stops burning its cores almost at once.
// Windows of 50 to 400 µs gave the same warm-store campaign time there;
// the shorter ones left slightly more CPU to other processes.
constexpr int kSpinPolls = 2048;
constexpr int kYieldEvery = 16;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

TaskPool::TaskPool(int threads) {
  if (threads < 0) {
    throw std::invalid_argument("TaskPool threads must be >= 0");
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  threads_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

TaskPool::~TaskPool() {
  if (workers_.empty()) return;
  publish(nullptr, 0);
  for (std::thread& t : workers_) t.join();
}

void TaskPool::run_shard(const Task& task, std::size_t n, int worker_index) {
  const ShardRange shard = shard_range(n, worker_index, threads_);
  if (shard.empty()) return;
  task(worker_index, shard.begin, shard.end);
}

template <typename Ready>
void TaskPool::await(std::condition_variable& cv, const Ready& ready) {
  for (int i = 1; i <= kSpinPolls; ++i) {
    if (ready()) return;
    if (i % kYieldEvery == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv.wait(lock, ready);
}

void TaskPool::publish(const Task* task, std::size_t n) {
  task_ = task;
  task_items_ = n;
  pending_.store(threads_ - 1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  // A worker past its spin window re-checks epoch_ under mutex_ before it
  // sleeps.  Passing through mutex_ after the increment means that check
  // either saw the new epoch or is already asleep when notify_all runs: no
  // lost wake-up.
  { const std::lock_guard<std::mutex> lock(mutex_); }
  work_ready_.notify_all();
}

void TaskPool::worker_loop(int worker_index) {
  std::uint64_t seen = 0;
  while (true) {
    await(work_ready_, [this, &seen] {
      return epoch_.load(std::memory_order_acquire) != seen;
    });
    // run() publishes one epoch at a time and waits for every worker, so
    // the new epoch is always the next one.
    ++seen;
    const Task* task = task_;
    if (task == nullptr) return;
    try {
      run_shard(*task, task_items_, worker_index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    // The last worker out wakes a parked caller.  It takes mutex_ after
    // its decrement, so the caller's locked re-check of pending_ either
    // saw zero or is already asleep.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(mutex_);
      work_done_.notify_one();
    }
  }
}

void TaskPool::run(std::size_t n, const Task& task) {
  if (n == 0) return;
  if (threads_ == 1) {
    task(0, 0, n);  // the serial bypass: no locks, no workers, no barrier
    return;
  }
  publish(&task, n);
  // The calling thread is worker 0: it always runs the first shard while
  // the pool threads run the rest.
  std::exception_ptr caller_error;
  try {
    run_shard(task, n, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  await(work_done_, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (!error) error = std::move(caller_error);
  if (error) std::rethrow_exception(error);
}

}  // namespace p2sim::util
