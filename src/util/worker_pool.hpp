/// \file worker_pool.hpp
/// \brief A persistent scheduling worker pool for *task*-level
/// concurrency — many independent jobs in flight at once — complementing
/// `ParallelFor`, which stays the sanctioned primitive for *data*-level
/// parallelism inside one kernel. `api::Service` runs its reconstruction
/// jobs on a WorkerPool; each job's kernels may in turn fan out with
/// `ParallelFor`.
///
/// Tasks are opaque `std::function<void()>`s executed by a fixed set of
/// threads sized with the same `ResolveThreads` rule as `ParallelFor`
/// (0 = hardware concurrency). Dispatch order is governed by
/// `TaskOptions`:
///
///  1. **Priority classes first**: a higher `priority` task always
///     dispatches before any lower-priority one, regardless of
///     submission order.
///  2. **Fair share within a class**: tasks carry a `client` id; among
///     clients with pending work of the same priority, the pool
///     round-robins in ascending client-id order, resuming after the
///     client served last. A client that floods the queue therefore
///     delays only its own later tasks, not other clients'.
///  3. **FIFO within a client**: one client's same-priority tasks run in
///     submission order, so the legacy single-client behavior (every
///     `Submit` without options) remains exactly the old FIFO queue.
///
/// The schedule is a deterministic function of the submission history —
/// no timestamps, no randomness — which is what lets the scheduling
/// tests assert exact dispatch orders. The pool never drops a task:
/// destruction and `Shutdown` drain the queue before joining.
/// Determinism note: the pool schedules *when* tasks run, never what
/// they compute — a task must be a pure function of its own captured
/// state, so results are identical to running the same tasks
/// sequentially.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace marioh::util {

/// Scheduling attributes of one submitted task.
struct TaskOptions {
  /// Dispatch class: higher runs first. Any int works; api::Service maps
  /// its Priority enum onto this.
  int priority = 0;
  /// Fair-share key. Tasks with the same client id form one FIFO lane;
  /// distinct clients of equal priority are served round-robin. The
  /// empty string is a valid (shared, anonymous) client.
  std::string client;
};

class WorkerPool {
 public:
  /// Starts `num_threads` workers (0 = hardware concurrency, min 1).
  explicit WorkerPool(int num_threads = 0);

  /// Drains remaining tasks, then joins all workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a task with default options (priority 0, anonymous
  /// client) — byte-for-byte the old FIFO behavior. Submitting after
  /// Shutdown is a no-op (the task is discarded) — the pool is then
  /// committed to terminating; callers that need the distinction should
  /// not race Submit against Shutdown.
  void Submit(std::function<void()> task);

  /// Enqueues a task under the scheduling policy described above.
  void Submit(std::function<void()> task, TaskOptions options);

  /// Blocks until every task submitted so far has finished executing
  /// (queue empty and all workers idle). Other threads may keep
  /// submitting; their tasks are not waited for.
  void Drain();

  /// Stops accepting new tasks, finishes everything already queued, and
  /// joins the workers. Idempotent.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks queued but not yet started (snapshot).
  size_t pending() const;

 private:
  /// One priority class: per-client FIFO lanes plus the round-robin
  /// cursor (the client id served last; dispatch resumes strictly after
  /// it in ascending order, wrapping).
  struct PriorityBucket {
    std::map<std::string, std::deque<std::function<void()>>> lanes;
    std::string last_client;
    bool served_any = false;
    size_t size = 0;  ///< total tasks across lanes
  };

  /// Pops the next task under the policy; requires `mutex_` held and a
  /// non-empty queue.
  std::function<void()> PopLocked();

  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;   ///< workers wait here for tasks
  std::condition_variable idle_;   ///< Drain waits here for quiescence
  /// Highest priority first (greater<int>): dispatch scans from begin().
  std::map<int, PriorityBucket, std::greater<int>> buckets_;
  size_t queued_ = 0;              ///< total tasks across buckets
  size_t active_ = 0;              ///< tasks currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace marioh::util
