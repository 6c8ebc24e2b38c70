/// \file parallel.hpp
/// \brief Minimal deterministic data-parallel helper. Work items are pure
/// functions of their index writing to disjoint slots, so results are
/// identical for any thread count — reconstruction stays reproducible
/// while the clique-scoring hot loop uses all cores.

#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/cancel.hpp"

namespace marioh::util {

/// Resolves a thread-count option: 0 means "hardware concurrency",
/// anything else is used as-is (minimum 1).
inline int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace internal {

/// The static block partition of [0, n) both primitives below share:
/// ranges of `chunk` indices (the last one ragged), with `chunk` sized so
/// that at most ResolveThreads(num_threads) ranges exist — one thread
/// gives the single range [0, n).
inline size_t RangeChunk(size_t n, int num_threads) {
  size_t used =
      std::min(static_cast<size_t>(ResolveThreads(num_threads)), n);
  return used == 0 ? 0 : (n + used - 1) / used;
}

}  // namespace internal

/// Number of ranges ParallelForRanges(n, num_threads, ...) hands out, so
/// callers can size one output slot per range before the loop runs.
inline size_t RangeCount(size_t n, int num_threads) {
  if (n == 0) return 0;
  size_t chunk = internal::RangeChunk(n, num_threads);
  return (n + chunk - 1) / chunk;
}

/// Range-level primitive: `fn(range, begin, end)` receives each worker's
/// contiguous index range [begin, end) under the static block partition,
/// with `range` in [0, RangeCount(n, num_threads)) numbering the ranges
/// in index order. This lets callers keep per-range running state and
/// per-range output slots — in particular a within-range early exit whose
/// outcome depends only on the range's own contents, the trick the clique
/// enumerator uses to bound truncated enumerations without cross-thread
/// coordination. ParallelFor delegates here, so the two share one
/// partition by construction.
template <typename Fn>
void ParallelForRanges(size_t n, int num_threads, Fn&& fn) {
  const size_t ranges = RangeCount(n, num_threads);
  if (ranges <= 1) {
    if (n > 0) fn(size_t{0}, size_t{0}, n);
    return;
  }
  const size_t chunk = internal::RangeChunk(n, num_threads);
  std::vector<std::thread> pool;
  pool.reserve(ranges);
  for (size_t r = 0; r < ranges; ++r) {
    size_t begin = r * chunk;
    size_t end = std::min(n, begin + chunk);
    pool.emplace_back([r, begin, end, &fn] { fn(r, begin, end); });
  }
  for (std::thread& worker : pool) worker.join();
}

/// Applies `fn(i)` for every i in [0, n) using `num_threads` threads
/// (0 = auto). `fn` must be safe to call concurrently for distinct
/// indices; iteration order within a thread is ascending, and the static
/// block partition makes the schedule deterministic. Each range polls
/// `cancel` (null = never stops) through a per-range CancelChecker before
/// every index and abandons its remaining indices once the token trips,
/// so a mid-kernel Cancel lands within one index's work plus the checker
/// stride. An untriggered token executes exactly the same index set as a
/// null one — the determinism contract is untouched — while a tripped
/// token leaves some slots unwritten; callers must discard the partial
/// output (the Session layer does).
template <typename Fn>
void ParallelFor(size_t n, int num_threads, const CancelToken* cancel,
                 Fn&& fn) {
  ParallelForRanges(n, num_threads,
                    [&fn, cancel](size_t, size_t begin, size_t end) {
    CancelChecker checker(cancel);
    for (size_t i = begin; i < end; ++i) {
      if (checker.ShouldStop()) return;
      fn(i);
    }
  });
}

}  // namespace marioh::util
