#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace epserve {

std::size_t resolve_thread_count(int requested) {
  if (requested >= 1) return static_cast<std::size_t>(requested);
  return ThreadPool::default_thread_count();
}

std::unique_ptr<ThreadPool> make_worker_pool(std::size_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads - 1);
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(pool, n, body, nullptr);
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  const std::function<void()>& prologue) {
  const std::size_t helpers =
      pool == nullptr || n == 0 ? 0 : std::min(pool->size(), n - 1);
  if (helpers == 0) {
    if (prologue) prologue();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex mutex;
  std::condition_variable helpers_finished;
  std::size_t helpers_done = 0;
  std::exception_ptr first_error;
  std::size_t first_error_index = n;

  const auto drain = [&] {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };

  for (std::size_t h = 0; h < helpers; ++h) {
    pool->submit([&] {
      drain();
      // Notify while holding the mutex: the caller destroys this condition
      // variable as soon as it observes helpers_done == helpers, and it can
      // only observe that under the same mutex — so the cv is guaranteed to
      // still exist for the duration of the notify call.
      const std::lock_guard<std::mutex> lock(mutex);
      ++helpers_done;
      helpers_finished.notify_one();
    });
  }
  std::exception_ptr prologue_error;
  if (prologue) {
    try {
      prologue();
    } catch (...) {
      prologue_error = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  }
  drain();

  // The caller must outlive every helper referencing this frame, so wait
  // even when aborting on an exception. While waiting, help drain the pool
  // queue: if every worker is itself blocked inside a nested parallel_for,
  // the queued helper tasks would otherwise never run (deadlock). A helper
  // popped here finds the index range drained and finishes immediately.
  std::unique_lock<std::mutex> lock(mutex);
  while (helpers_done != helpers) {
    lock.unlock();
    const bool ran_one = pool->try_run_one();
    lock.lock();
    if (!ran_one && helpers_done != helpers) {
      // Queue empty, helpers still executing bodies. Completion notifies this
      // condition variable; the timeout only covers work enqueued by nested
      // loops after the empty-queue check (they notify the pool's cv, not
      // ours).
      helpers_finished.wait_for(lock, std::chrono::milliseconds(1),
                                [&] { return helpers_done == helpers; });
    }
  }
  if (prologue_error) std::rethrow_exception(prologue_error);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace epserve
