/// \file parallel.hpp
/// \brief Deterministic data-parallel loops on one process-wide kernel
/// pool. Work items are pure functions of their index writing to disjoint
/// slots, so results are identical for any thread count — reconstruction
/// stays reproducible while the clique-scoring hot loop uses all cores.
///
/// A loop at more than one thread is cut into contiguous chunks that the
/// calling thread and up to `num_threads - 1` pool helpers claim from a
/// shared cursor. The helpers are started on the first call that needs
/// them, never number more than `hardware_concurrency() - 1` for the whole
/// process, and are reused by every later call (joined at static
/// destruction). The caller always works on its own loop, so nested loops
/// and concurrent callers cannot deadlock; they share the helpers instead
/// of oversubscribing the machine. A loop at one thread never touches the
/// pool.

#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <utility>

#include "util/cancel.hpp"

namespace marioh::util {

/// Resolves a thread-count option: 0 means "hardware concurrency",
/// anything else is used as-is (minimum 1).
inline int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Chunks per requested thread when a loop runs on more than one thread:
/// enough that a range whose heavy indices sit at one end (degeneracy-
/// ordered clique roots put the large neighbourhoods last) still spreads
/// over every participant, few enough that claiming a chunk stays cheap.
inline constexpr size_t kChunksPerThread = 8;

/// Number of ranges ParallelForRanges(n, num_threads, ...) hands out, so
/// callers can size one output slot per range before the loop runs: 0 for
/// an empty loop, 1 at one thread, else min(n, kChunksPerThread × threads).
inline size_t RangeCount(size_t n, int num_threads) {
  if (n == 0) return 0;
  const auto threads = static_cast<size_t>(ResolveThreads(num_threads));
  return threads == 1 ? 1 : std::min(n, kChunksPerThread * threads);
}

namespace internal {

/// Range r of [0, n) cut into `count` contiguous ranges whose sizes differ
/// by at most one, the longer ones first.
inline std::pair<size_t, size_t> RangeBounds(size_t n, size_t count,
                                             size_t r) {
  const size_t base = n / count;
  const size_t extra = n % count;
  const size_t begin = r * base + std::min(r, extra);
  return {begin, begin + base + (r < extra ? 1 : 0)};
}

/// Runs `body(context, r)` once for every r in [0, ranges) on the calling
/// thread plus at most `helpers` kernel-pool helpers, returning when all
/// have run. An exception thrown by `body` stops further claims and is
/// rethrown here once every participant has left the loop.
void RunRanges(size_t ranges, size_t helpers, void (*body)(void*, size_t),
               void* context);

/// Helper threads the kernel pool has started so far (a test seam).
size_t KernelPoolThreads();

}  // namespace internal

/// Range-level primitive: `fn(range, begin, end)` receives contiguous
/// index ranges [begin, end) that tile [0, n) in index order, with `range`
/// in [0, RangeCount(n, num_threads)) numbering them. This lets callers
/// keep per-range running state and per-range output slots — in
/// particular a within-range early exit whose outcome depends only on the
/// range's own contents, the trick the clique enumerator uses to bound
/// truncated enumerations without cross-thread coordination. Which thread
/// runs a range, and in what order ranges run, is unspecified; output that
/// must not depend on the thread count may depend only on each range's own
/// indices and be combined in range order. ParallelFor delegates here, so
/// the two share one partition by construction.
template <typename Fn>
void ParallelForRanges(size_t n, int num_threads, Fn&& fn) {
  const size_t ranges = RangeCount(n, num_threads);
  if (ranges <= 1) {
    if (n > 0) fn(size_t{0}, size_t{0}, n);
    return;
  }
  auto run = [&fn, n, ranges](size_t r) {
    const auto [begin, end] = internal::RangeBounds(n, ranges, r);
    fn(r, begin, end);
  };
  internal::RunRanges(
      ranges, static_cast<size_t>(ResolveThreads(num_threads)) - 1,
      [](void* context, size_t r) {
        (*static_cast<decltype(run)*>(context))(r);
      },
      &run);
}

/// Applies `fn(i)` for every i in [0, n) using `num_threads` threads
/// (0 = auto). `fn` must be safe to call concurrently for distinct
/// indices; iteration order within a range is ascending. Each range polls
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
