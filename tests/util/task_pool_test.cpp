#include "src/util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p2sim::util {
namespace {

// The static shard map is the determinism contract: it must cover [0, n)
// exactly once, in order, for every worker count — and it must be a pure
// function of (n, workers), never of scheduling.
TEST(ShardRange, CoversEveryIndexExactlyOnceInOrder) {
  for (std::size_t n : {0UL, 1UL, 2UL, 7UL, 16UL, 144UL, 1000UL}) {
    for (int workers : {1, 2, 3, 4, 7, 16}) {
      std::size_t next = 0;
      for (int w = 0; w < workers; ++w) {
        const ShardRange r = shard_range(n, w, workers);
        EXPECT_EQ(r.begin, next) << "n=" << n << " w=" << w;
        EXPECT_LE(r.begin, r.end);
        next = r.end;
      }
      EXPECT_EQ(next, n) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(ShardRange, BalancedToWithinOneItem) {
  const std::size_t n = 144;
  for (int workers : {2, 3, 4, 5, 7}) {
    for (int w = 0; w < workers; ++w) {
      const ShardRange r = shard_range(n, w, workers);
      const std::size_t len = r.end - r.begin;
      EXPECT_GE(len, n / static_cast<std::size_t>(workers));
      EXPECT_LE(len, n / static_cast<std::size_t>(workers) + 1);
    }
  }
}

TEST(ShardRange, MoreWorkersThanItemsYieldsEmptyTailShards) {
  int nonempty = 0;
  for (int w = 0; w < 8; ++w) {
    if (!shard_range(3, w, 8).empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 3);
}

TEST(TaskPool, RejectsNegativeThreadCount) {
  EXPECT_THROW(TaskPool(-1), std::invalid_argument);
}

TEST(TaskPool, ZeroResolvesToHardwareConcurrency) {
  const TaskPool pool(0);
  EXPECT_GE(pool.threads(), 1);
}

TEST(TaskPool, SerialBypassRunsWholeRangeInline) {
  TaskPool pool(1);
  std::vector<int> hit(10, 0);
  pool.run(hit.size(), [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hit[i];
  });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(TaskPool, ZeroItemsIsANoOp) {
  TaskPool pool(4);
  bool called = false;
  pool.run(0, [&](int, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TaskPool, ParallelRunTouchesEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hit(144);
  pool.run(hit.size(), [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  for (const auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, FewerItemsThanThreadsStillCoversAll) {
  TaskPool pool(8);
  std::vector<std::atomic<int>> hit(3);
  pool.run(hit.size(), [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  for (const auto& h : hit) EXPECT_EQ(h.load(), 1);
}

// The pool is reusable across dispatches (the driver calls run() once per
// interval, ~26k times per campaign) and results must match serial math.
TEST(TaskPool, RepeatedDispatchesMatchSerialSum) {
  const std::size_t n = 1000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 0.001 * static_cast<double>(i);
  }
  std::vector<double> out_serial(n), out_parallel(n);
  TaskPool serial(1), parallel(4);
  for (int round = 0; round < 50; ++round) {
    auto body = [&](std::vector<double>& out) {
      return [&values, &out](int, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[i] += values[i] * values[i];
      };
    };
    serial.run(n, body(out_serial));
    parallel.run(n, body(out_parallel));
  }
  // Element-wise bitwise equality: each index is computed by exactly one
  // worker with the same arithmetic, so no tolerance is needed.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out_serial[i], out_parallel[i]) << "i=" << i;
  }
}

TEST(TaskPool, WorkerExceptionPropagatesToCaller) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [](int, std::size_t b, std::size_t) {
                 if (b >= 25) throw std::runtime_error("shard failed");
               }),
      std::runtime_error);
  // The pool must stay usable after a failed dispatch.
  std::atomic<int> total{0};
  pool.run(100, [&](int, std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(TaskPool, CallerShardExceptionAlsoPropagates) {
  TaskPool pool(2);
  EXPECT_THROW(pool.run(10,
                        [](int, std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("caller shard");
                        }),
               std::runtime_error);
}

// --- the spin-then-park barrier, at several widths -------------------------
//
// Workers and the caller spin for a bounded window (well under a
// millisecond) before parking.  Back-to-back dispatches exercise the spin
// path; dispatches after a sleep longer than the window exercise the park
// path.  Run under ThreadSanitizer these also check that every dispatch
// publishes its inputs to the workers and its results back to the caller.

class TaskPoolStress : public ::testing::TestWithParam<int> {};

// Longer than the pool's spin window, so everybody has parked by the time
// the next dispatch arrives.
constexpr std::chrono::milliseconds kPastSpinWindow{3};

// One dispatch that checks both directions of the barrier: every shard
// must see the caller's latest `payload`, and the caller must see every
// shard's write when run() returns.
void checked_dispatch(TaskPool& pool, std::vector<long>& out, long payload) {
  pool.run(out.size(), [&out, &payload](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = payload;
  });
  for (long v : out) ASSERT_EQ(v, payload);
}

TEST_P(TaskPoolStress, BackToBackTinyDispatches) {
  const int threads = GetParam();
  TaskPool pool(threads);
  std::vector<long> out(static_cast<std::size_t>(threads));
  for (long d = 0; d < 100'000; ++d) {
    checked_dispatch(pool, out, d);
    if (HasFatalFailure()) return;
  }
}

TEST_P(TaskPoolStress, DispatchesAcrossTheParkPath) {
  TaskPool pool(GetParam());
  std::vector<long> out(144);
  for (long d = 0; d < 12; ++d) {
    // Alternate: a parked pickup, then a spinning one right behind it.
    std::this_thread::sleep_for(kPastSpinWindow);
    checked_dispatch(pool, out, 2 * d);
    if (HasFatalFailure()) return;
    checked_dispatch(pool, out, 2 * d + 1);
    if (HasFatalFailure()) return;
  }
}

TEST_P(TaskPoolStress, WorkerExceptionAfterSpinPickup) {
  const int threads = GetParam();
  TaskPool pool(threads);
  std::vector<long> out(144);
  const auto throw_in_last_shard = [threads](int shard, std::size_t,
                                             std::size_t) {
    if (shard == threads - 1) throw std::runtime_error("last shard failed");
  };
  for (long d = 0; d < 50; ++d) {
    checked_dispatch(pool, out, d);  // keeps the workers spinning
    if (HasFatalFailure()) return;
    EXPECT_THROW(pool.run(out.size(), throw_in_last_shard),
                 std::runtime_error);
  }
  // The error is handed off once, and the pool stays usable on both paths.
  checked_dispatch(pool, out, -1);
  std::this_thread::sleep_for(kPastSpinWindow);
  EXPECT_THROW(pool.run(out.size(), throw_in_last_shard), std::runtime_error);
  std::this_thread::sleep_for(kPastSpinWindow);
  checked_dispatch(pool, out, -2);
}

TEST_P(TaskPoolStress, DestructionWhileWorkersSpinOrPark) {
  const int threads = GetParam();
  std::vector<long> out(144);
  for (int round = 0; round < 20; ++round) {
    TaskPool never_dispatched(threads);  // destroyed mid-startup spin
  }
  for (int round = 0; round < 20; ++round) {
    TaskPool pool(threads);
    checked_dispatch(pool, out, round);  // destroyed while spinning
  }
  for (int round = 0; round < 3; ++round) {
    TaskPool pool(threads);
    checked_dispatch(pool, out, round);
    std::this_thread::sleep_for(kPastSpinWindow);  // destroyed parked
  }
}

TEST_P(TaskPoolStress, ShardIndexIsShardRangeWorker) {
  const int threads = GetParam();
  TaskPool pool(threads);
  const auto t = static_cast<std::size_t>(threads);
  for (std::size_t n : {1UL, 2UL, 3UL, 7UL, 13UL, 144UL, 1000UL}) {
    std::vector<ShardRange> seen(t);
    std::vector<int> calls(t, 0);
    pool.run(n, [&](int shard, std::size_t b, std::size_t e) {
      const auto w = static_cast<std::size_t>(shard);
      seen[w] = {b, e};
      ++calls[w];
    });
    for (int w = 0; w < threads; ++w) {
      const auto wu = static_cast<std::size_t>(w);
      const ShardRange want = shard_range(n, w, threads);
      // Exactly the non-empty shards run, once each, on their own range.
      EXPECT_EQ(calls[wu], want.empty() ? 0 : 1) << "n=" << n << " w=" << w;
      if (!want.empty()) {
        EXPECT_EQ(seen[wu].begin, want.begin) << "n=" << n << " w=" << w;
        EXPECT_EQ(seen[wu].end, want.end) << "n=" << n << " w=" << w;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, TaskPoolStress,
                         ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace p2sim::util
