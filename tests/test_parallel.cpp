// Tests for the deterministic parallel helper and its kernel pool, the
// task-level WorkerPool the api::Service runs jobs on, and thread-count
// invariance of the parallelized reconstruction path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/marioh.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace marioh::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 0}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(hits.size(), threads, nullptr, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads "
                                   << threads;
    }
  }
}

TEST(ParallelFor, EmptyAndSingleElement) {
  int count = 0;
  ParallelFor(0, 4, nullptr, [&](size_t) { ++count; });
  EXPECT_EQ(count, 0);
  ParallelFor(1, 4, nullptr, [&](size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, ResultsMatchSequential) {
  const size_t n = 1000;
  std::vector<double> seq(n), par(n);
  auto work = [](size_t i) {
    return std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
  };
  ParallelFor(n, 1, nullptr, [&](size_t i) { seq[i] = work(i); });
  ParallelFor(n, 4, nullptr, [&](size_t i) { par[i] = work(i); });
  EXPECT_EQ(seq, par);
}

// The partition is a contract: clique truncation's per-range early exit
// and every per-range output slot depend on it. Ranges tile [0, n) in
// index order, range r is numbered r, their count is RangeCount's, one
// thread gives the single range [0, n), and more threads cut
// min(n, kChunksPerThread × threads) ranges whose sizes differ by at most
// one.
TEST(ParallelForRanges, RangesTileTheIndexSpaceInOrder) {
  for (size_t n : {0, 1, 2, 7, 100, 1000}) {
    for (int threads : {0, 1, 2, 3, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const size_t count = RangeCount(n, threads);
      std::vector<std::pair<size_t, size_t>> ranges(
          count, {size_t{1}, size_t{0}});  // empty-and-inverted = unseen
      std::atomic<size_t> calls{0};
      ParallelForRanges(
          n, threads, [&](size_t range, size_t begin, size_t end) {
            ++calls;
            ASSERT_LT(range, count);
            ranges[range] = {begin, end};
          });
      EXPECT_EQ(calls.load(), count);
      const auto resolved = static_cast<size_t>(ResolveThreads(threads));
      const size_t expected =
          n == 0 ? 0
                 : (resolved == 1 ? 1
                                  : std::min(n, kChunksPerThread * resolved));
      EXPECT_EQ(count, expected);
      size_t next = 0;
      size_t shortest = n;
      size_t longest = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, next);
        EXPECT_LT(begin, end);
        shortest = std::min(shortest, end - begin);
        longest = std::max(longest, end - begin);
        next = end;
      }
      EXPECT_EQ(next, n);
      if (count > 0) {
        EXPECT_LE(longest - shortest, 1u);
      }
    }
  }
}

// A thread request far above the core count (a served job's `threads=`
// accepts any non-negative int) runs on the process's bounded helper set:
// every index once, and never more than cores - 1 helpers.
TEST(ParallelFor, HugeThreadRequestRunsOnTheBoundedPool) {
  std::vector<std::atomic<int>> hits(256);
  for (auto& h : hits) h = 0;
  ParallelFor(hits.size(), 1 << 20, nullptr, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  const size_t cores =
      std::max(std::thread::hardware_concurrency(), 1u);
  EXPECT_LE(internal::KernelPoolThreads(), cores - 1);
}

// Concurrent callers share the helpers, and a loop body may itself run a
// loop: the caller always works on its own loop, so neither can deadlock.
TEST(ParallelFor, ConcurrentAndNestedCallersFinishExactly) {
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 100;
  std::vector<std::vector<size_t>> sums(4, std::vector<size_t>(kOuter));
  std::vector<std::thread> callers;
  for (size_t c = 0; c < sums.size(); ++c) {
    callers.emplace_back([&sums, c] {
      ParallelFor(kOuter, 4, nullptr, [&sums, c](size_t i) {
        std::vector<size_t> inner(kInner);
        ParallelFor(kInner, 4, nullptr,
                    [&inner, i, c](size_t j) { inner[j] = c + i * j; });
        sums[c][i] = std::accumulate(inner.begin(), inner.end(), size_t{0});
      });
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t c = 0; c < sums.size(); ++c) {
    for (size_t i = 0; i < kOuter; ++i) {
      EXPECT_EQ(sums[c][i], kInner * c + i * kInner * (kInner - 1) / 2)
          << "caller " << c << " index " << i;
    }
  }
}

// An exception thrown by a range reaches the caller once the loop has
// drained, and the pool stays usable.
TEST(ParallelForRanges, ExceptionReachesTheCaller) {
  auto throw_in_range_3 = [](size_t range, size_t, size_t) {
    if (range == 3) throw std::runtime_error("range 3");
  };
  EXPECT_THROW(ParallelForRanges(100, 4, throw_in_range_3),
               std::runtime_error);
  std::atomic<size_t> visited{0};
  ParallelFor(100, 4, nullptr, [&](size_t) { ++visited; });
  EXPECT_EQ(visited.load(), 100u);
}

TEST(CancelToken, CancelAndDeadlineSetReasonOnce) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_EQ(token.reason(), CancelReason::kNone);

  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);

  // An explicit Cancel wins over a deadline that trips later, but the
  // passed deadline stays observable on its own.
  EXPECT_FALSE(token.deadline_passed());
  token.SetDeadline(0.0);
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  EXPECT_TRUE(token.deadline_passed());

  CancelToken deadline;
  deadline.SetDeadline(0.0);  // already past
  EXPECT_TRUE(deadline.ShouldStop());
  EXPECT_FALSE(deadline.cancelled());  // the flag is Cancel()'s alone
  EXPECT_EQ(deadline.reason(), CancelReason::kDeadline);

  CancelToken disarmed;
  disarmed.SetDeadline(3600.0);
  EXPECT_FALSE(disarmed.ShouldStop());
  disarmed.SetDeadline(-1.0);  // negative disarms
  EXPECT_FALSE(disarmed.ShouldStop());
  EXPECT_EQ(disarmed.reason(), CancelReason::kNone);

  // The null-token helper never stops.
  EXPECT_FALSE(ShouldStop(nullptr));
  EXPECT_TRUE(ShouldStop(&token));
}

TEST(CancelToken, CheckerLatchesAndNullTokenIsFree) {
  CancelChecker none(nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(none.ShouldStop());

  CancelToken token;
  CancelChecker checker(&token);
  EXPECT_FALSE(checker.ShouldStop());
  token.Cancel();
  EXPECT_TRUE(checker.ShouldStop());
  // Latches: stays stopped on every later poll.
  EXPECT_TRUE(checker.ShouldStop());
}

TEST(ParallelFor, UntrippedTokenLeavesResultsIdentical) {
  const size_t n = 1000;
  auto work = [](size_t i) {
    return std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
  };
  std::vector<double> plain(n);
  for (size_t i = 0; i < n; ++i) plain[i] = work(i);

  CancelToken token;  // never tripped
  for (int threads : {1, 2, 8}) {
    std::vector<double> gated(n);
    ParallelFor(n, threads, &token, [&](size_t i) { gated[i] = work(i); });
    EXPECT_EQ(gated, plain) << "threads " << threads;
  }
  // A null token never stops.
  std::vector<double> null_token(n);
  ParallelFor(n, 2, nullptr, [&](size_t i) { null_token[i] = work(i); });
  EXPECT_EQ(null_token, plain);
}

TEST(ParallelFor, TrippedTokenStopsEveryRangeEarly) {
  const size_t n = 100000;
  CancelToken token;
  token.Cancel();  // tripped before the loop even starts
  std::atomic<size_t> visited{0};
  ParallelFor(n, 4, &token, [&](size_t) { ++visited; });
  // Each worker range stops within one checker stride of the trip.
  EXPECT_LT(visited.load(), n / 2);
}

TEST(ResolveThreads, Basics) {
  EXPECT_EQ(ResolveThreads(3), 3);
  EXPECT_GE(ResolveThreads(0), 1);
}

TEST(WorkerPool, RunsEverySubmittedTaskExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    util::WorkerPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([&hits, i] { hits[i]++; });
    }
    pool.Drain();
    EXPECT_EQ(pool.pending(), 0u);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads "
                                   << threads;
    }
  }
}

TEST(WorkerPool, ShutdownDrainsTheQueueFirst) {
  std::atomic<int> done{0};
  {
    util::WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] { done++; });
    }
    pool.Shutdown();
    EXPECT_EQ(done.load(), 50);  // nothing dropped
    // Submitting after shutdown is a discard, not a crash.
    pool.Submit([&done] { done++; });
    pool.Shutdown();  // idempotent
  }  // destructor after explicit Shutdown is a no-op too
  EXPECT_EQ(done.load(), 50);
}

TEST(WorkerPool, TasksMaySubmitTasks) {
  util::WorkerPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &done] {
      pool.Submit([&done] { done++; });
    });
  }
  // Drain waits for the transitively submitted work too.
  pool.Drain();
  EXPECT_EQ(done.load(), 8);
}

// A single worker blocked on a latch, then six tasks queued with mixed
// priorities and clients: when the latch opens, the pool must dispatch
// them in the documented order — priority classes first, round-robin
// across clients within a class, FIFO within a client — independent of
// submission order. Fully deterministic: nothing runs until the latch
// opens, so every task is queued before the first scheduling decision.
TEST(WorkerPool, DispatchOrderIsPriorityThenFairShare) {
  util::WorkerPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  bool blocker_running = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    blocker_running = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  });
  {
    // The blocker must hold the worker before anything else is queued.
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return blocker_running; });
  }

  std::vector<std::string> order;
  auto task = [&mutex, &order](std::string name) {
    return [&mutex, &order, name] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(name);
    };
  };
  auto submit = [&pool, &task](const std::string& name, int priority,
                               const std::string& client) {
    pool.Submit(task(name), util::TaskOptions{priority, client});
  };
  submit("D", /*priority=*/-1, "d");  // lowest class, submitted first
  submit("A1", 0, "a");
  submit("B1", 0, "b");
  submit("A2", 0, "a");
  submit("A3", 0, "a");
  submit("C", /*priority=*/1, "c");  // highest class, submitted last

  EXPECT_EQ(pool.pending(), 6u);

  {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
  }
  cv.notify_all();
  pool.Drain();
  EXPECT_EQ(order,
            (std::vector<std::string>{"C", "A1", "B1", "A2", "A3", "D"}));
}

// The round-robin cursor wraps in ascending client order and resumes
// *after* the client served last, even across queue refills.
TEST(WorkerPool, RoundRobinCursorSurvivesRefills) {
  util::WorkerPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  bool blocker_running = false;
  auto block = [&] {
    // The blocker lives in a *different* priority bucket so its pops
    // never touch the class-0 round-robin cursor under test.
    pool.Submit(
        [&] {
          std::unique_lock<std::mutex> lock(mutex);
          blocker_running = true;
          cv.notify_all();
          cv.wait(lock, [&] { return open; });
        },
        util::TaskOptions{1, "blocker"});
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return blocker_running; });
  };
  auto release = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
    pool.Drain();
    std::lock_guard<std::mutex> lock(mutex);
    open = false;
    blocker_running = false;
  };

  std::vector<std::string> order;
  auto submit = [&](const std::string& name, const std::string& client) {
    pool.Submit(
        [&mutex, &order, name] {
          std::lock_guard<std::mutex> lock(mutex);
          order.push_back(name);
        },
        util::TaskOptions{0, client});
  };

  block();
  submit("a1", "a");
  submit("a2", "a");
  submit("b1", "b");
  release();
  // First round: a, b alternate starting from the lowest client id.
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2"}));

  // Refill: the cursor remembers "a" was served last, so "b" goes first
  // now even though "a" submitted first again.
  order.clear();
  block();
  submit("a3", "a");
  submit("b2", "b");
  release();
  EXPECT_EQ(order, (std::vector<std::string>{"b2", "a3"}));
}

TEST(ParallelReconstruction, ThreadCountDoesNotChangeResult) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("hosts"), 5);
  Rng rng(6);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  ProjectedGraph g_source = split.source.Project();
  ProjectedGraph g_target = split.target.Project();

  core::MariohOptions sequential;
  sequential.seed = 9;
  sequential.num_threads = 1;
  core::MariohOptions parallel = sequential;
  parallel.num_threads = 4;

  core::Marioh a(sequential), b(parallel);
  a.Train(g_source, split.source);
  b.Train(g_source, split.source);
  Hypergraph ha = a.Reconstruct(g_target);
  Hypergraph hb = b.Reconstruct(g_target);
  EXPECT_EQ(ha.UniqueEdges(), hb.UniqueEdges());
  EXPECT_DOUBLE_EQ(eval::MultiJaccard(ha, hb), 1.0);
}

// Kernel threads are started once and reused: a second reconstruction at
// the same thread count starts no helper.
TEST(ParallelReconstruction, SecondRunStartsNoThread) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("hosts"), 5);
  Rng rng(6);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  ProjectedGraph g_source = split.source.Project();
  ProjectedGraph g_target = split.target.Project();

  core::MariohOptions options;
  options.seed = 9;
  options.num_threads = 4;
  core::Marioh marioh(options);
  marioh.Train(g_source, split.source);
  Hypergraph first = marioh.Reconstruct(g_target);
  const size_t warm = internal::KernelPoolThreads();
  Hypergraph second = marioh.Reconstruct(g_target);
  EXPECT_EQ(internal::KernelPoolThreads(), warm);
  EXPECT_EQ(first.UniqueEdges(), second.UniqueEdges());
}

}  // namespace
}  // namespace marioh::util
