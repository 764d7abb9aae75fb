// Deterministic data parallelism: parallel_for / parallel_map over a fixed
// index range on a ThreadPool.
//
// The contract every parallel stage in epserve relies on (docs/PARALLELISM.md):
//   * the body for index i reads only shared immutable state plus per-index
//     state (its Rng::substream(i), its output slot);
//   * the body writes only to slot i of a pre-sized output;
//   * therefore the result is a pure function of the inputs and is
//     byte-identical for every thread count, including the serial path.
//
// Scheduling is dynamic (atomic index counter) purely for load balance;
// nothing observable may depend on it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/thread_pool.h"

namespace epserve {

/// Resolves a requested thread count: values >= 1 are taken literally;
/// 0 (or negative) means "auto" — EPSERVE_THREADS if set, else the hardware
/// concurrency. Always >= 1.
std::size_t resolve_thread_count(int requested);

/// Builds the pool backing an N-way parallel stage where the calling thread
/// is one of the N lanes: returns a pool with `threads - 1` workers, or
/// nullptr when threads <= 1 (the exact serial path — no pool, no atomics).
std::unique_ptr<ThreadPool> make_worker_pool(std::size_t threads);

/// Invokes body(i) for every i in [0, n), spreading indices over the pool's
/// workers plus the calling thread; blocks until all indices finish. A null
/// or empty pool (or n <= 1) degenerates to a plain serial loop.
///
/// If any body throws, remaining un-started indices are skipped and the
/// exception with the lowest index among those raised is rethrown on the
/// calling thread after all in-flight work has drained.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// parallel_for that first runs `prologue` once on the calling thread, after
/// the helpers have been handed the index range and before the caller joins
/// it — so the caller's own work overlaps the loop (the scaled generator
/// sinks chunk k while the helpers generate chunk k+1). On the serial path
/// the prologue simply runs before the loop. An empty prologue is skipped.
///
/// If the prologue throws, un-started indices are skipped and, after all
/// in-flight work has drained, the prologue's exception is rethrown: it
/// ranks before every index. Body exceptions follow the lowest-index rule
/// above.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  const std::function<void()>& prologue);

/// parallel_for that materialises fn(i) into slot i of the result vector.
/// The mapped type must be default-constructible and movable.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn) {
  using R = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<R> out(n);
  parallel_for(pool, n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace epserve
