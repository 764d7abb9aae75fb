// ThreadPool + parallel_for/parallel_map behaviour: lifecycle, index
// coverage, edge cases (empty range, n < threads, caller-only pools),
// exception propagation, nesting, the caller-prologue overload (runs once
// on the caller, overlaps the helpers, its exception ranks first), and a
// 10k-task stress loop (run it under --gtest_repeat for scheduling variety;
// the suite carries the `parallel` ctest label so it is exercised under
// ThreadSanitizer).
#include "util/parallel.h"
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace epserve {
namespace {

TEST(ThreadPool, ConstructsAndJoinsAtEverySize) {
  for (const std::size_t size : {0u, 1u, 2u, 4u, 8u}) {
    const ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
  }  // destructor joins; leaks/hangs would fail the test run
}

TEST(ThreadPool, SubmittedTasksAllRun) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destruction drains the queue before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvVar) {
  ::setenv("EPSERVE_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ::setenv("EPSERVE_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);  // falls back to hardware
  ::setenv("EPSERVE_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::unsetenv("EPSERVE_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 3u, 7u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    parallel_for(&pool, hits.size(), [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers " << workers << " index " << i;
    }
  }
}

TEST(ParallelFor, EmptyRangeInvokesNothing) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(&pool, 0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleIndexRunsOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  parallel_for(&pool, 1,
               [&body_thread](std::size_t) { body_thread = std::this_thread::get_id(); });
  EXPECT_EQ(body_thread, caller);
}

TEST(ParallelFor, FewerIndicesThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(&pool, hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NullPoolIsThePlainSerialLoop) {
  std::vector<int> order;
  parallel_for(nullptr, 5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));  // no pool => no data race
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptionToCaller) {
  for (const std::size_t workers : {0u, 4u}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        parallel_for(&pool, 100,
                     [](std::size_t i) {
                       if (i == 57) throw std::runtime_error("index 57");
                     }),
        std::runtime_error)
        << "workers " << workers;
  }
}

TEST(ParallelFor, ExceptionSkipsRemainingWorkButDrainsInFlight) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    parallel_for(&pool, 10000, [&completed](std::size_t i) {
      if (i == 0) throw std::invalid_argument("early abort");
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument&) {
  }
  // The abort flag stops index handout, so most of the range never ran; the
  // exact count is schedule-dependent but must be far below the range.
  EXPECT_LT(completed.load(), 10000);
}

TEST(ParallelFor, NestedOnSamePoolDoesNotDeadlock) {
  // Inner parallel_for calls run from inside worker tasks; the caller of
  // each level always participates, so a saturated pool cannot deadlock.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(&pool, 4, [&pool, &total](std::size_t) {
    parallel_for(&pool, 8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

// --- parallel_for with a caller prologue ------------------------------------

TEST(ParallelForPrologue, RunsOnceOnTheCallerAndEveryIndexRuns) {
  for (const std::size_t workers : {0u, 1u, 4u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {0u, 1u, 5u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      int prologue_calls = 0;
      std::thread::id prologue_thread;
      parallel_for(
          &pool, n,
          [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          },
          [&] {
            ++prologue_calls;
            prologue_thread = std::this_thread::get_id();
          });
      EXPECT_EQ(prologue_calls, 1) << "workers " << workers << " n " << n;
      EXPECT_EQ(prologue_thread, std::this_thread::get_id());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ParallelForPrologue, SerialPathRunsThePrologueBeforeTheLoop) {
  std::vector<int> order;
  parallel_for(
      nullptr, 3,
      [&order](std::size_t i) { order.push_back(static_cast<int>(i)); },
      [&order] { order.push_back(-1); });
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(ParallelForPrologue, HelpersRunWhileThePrologueRuns) {
  // The prologue waits for a helper to finish an index: it can only see one
  // if the helpers were handed the range before the prologue started.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  bool overlapped = false;
  parallel_for(
      &pool, 64,
      [&done](std::size_t) { done.fetch_add(1, std::memory_order_acq_rel); },
      [&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (done.load(std::memory_order_acquire) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        overlapped = done.load(std::memory_order_acquire) > 0;
      });
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(done.load(), 64);
}

TEST(ParallelForPrologue, PrologueExceptionOutranksBodyExceptions) {
  for (const std::size_t workers : {0u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> ran{0};
    try {
      parallel_for(
          &pool, 10000,
          [&ran](std::size_t i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 0) throw std::runtime_error("index 0");
          },
          [] { throw std::logic_error("prologue"); });
      FAIL() << "expected an exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "prologue");
    }
    // Un-started indices are skipped once the prologue has thrown.
    EXPECT_LT(ran.load(), 10000) << "workers " << workers;
  }
}

TEST(ParallelMap, MatchesSerialMap) {
  ThreadPool pool(4);
  const auto square = [](std::size_t i) {
    return static_cast<double>(i) * static_cast<double>(i);
  };
  const auto mapped = parallel_map(&pool, 1000, square);
  ASSERT_EQ(mapped.size(), 1000u);
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    EXPECT_DOUBLE_EQ(mapped[i], square(i)) << "index " << i;
  }
}

TEST(ParallelForStress, TenThousandTasks) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  parallel_for(&pool, 10000, [&sum](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000ull * 9999ull / 2ull);
}

TEST(ParallelForStress, RepeatedRoundsOnOnePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    parallel_for(&pool, 200, [&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 200) << "round " << round;
  }
}

}  // namespace
}  // namespace epserve
