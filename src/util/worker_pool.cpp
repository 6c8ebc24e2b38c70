#include "util/worker_pool.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"

namespace marioh::util {

WorkerPool::WorkerPool(int num_threads) {
  int threads = ResolveThreads(num_threads);
  workers_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Submit(std::function<void()> task) {
  Submit(std::move(task), TaskOptions{});
}

void WorkerPool::Submit(std::function<void()> task, TaskOptions options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    PriorityBucket& bucket = buckets_[options.priority];
    bucket.lanes[options.client].push_back(std::move(task));
    ++bucket.size;
    ++queued_;
  }
  wake_.notify_one();
}

std::function<void()> WorkerPool::PopLocked() {
  MARIOH_CHECK(queued_ > 0);
  // Highest non-empty priority class wins unconditionally.
  auto bit = buckets_.begin();
  while (bit->second.size == 0) ++bit;
  PriorityBucket& bucket = bit->second;
  // Round-robin across the class's client lanes: the first lane with id
  // strictly after the one served last, wrapping to the lowest id. A
  // fresh bucket starts from the lowest id.
  auto lane = bucket.served_any
                  ? bucket.lanes.upper_bound(bucket.last_client)
                  : bucket.lanes.begin();
  if (lane == bucket.lanes.end()) lane = bucket.lanes.begin();
  std::function<void()> task = std::move(lane->second.front());
  lane->second.pop_front();
  bucket.last_client = lane->first;
  bucket.served_any = true;
  if (lane->second.empty()) bucket.lanes.erase(lane);
  --bucket.size;
  --queued_;
  return task;
}

void WorkerPool::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      // A previous Shutdown already joined the workers.
      if (workers_.empty()) return;
    }
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

size_t WorkerPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
      if (queued_ == 0) return;  // shutdown with a drained queue
      task = PopLocked();
      ++active_;
    }
    if (FailPoints::active()) {
      // Fault surface: a worker stalls between dequeue and execution
      // ("worker.task_start", delay action) — the job is Running but
      // silent, which is exactly what the service watchdog must detect.
      // Error/short are meaningless on this void path and ignored.
      FailPoints::Eval("worker.task_start");
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queued_ == 0 && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace marioh::util
