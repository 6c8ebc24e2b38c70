#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <vector>

namespace marioh::util::internal {
namespace {

/// One RunRanges call in flight. It lives on the caller's stack, so the
/// caller leaves only after taking it off the queue and seeing every
/// helper that joined it leave. Fields without a comment are fixed at
/// construction; the counters are guarded by the pool's mutex.
struct Loop {
  Loop(void (*body_fn)(void*, size_t), void* body_context, size_t count)
      : body(body_fn), context(body_context), ranges(count) {}

  void (*const body)(void*, size_t);
  void* const context;
  const size_t ranges;
  std::atomic<size_t> next{0};  // the next unclaimed range
  size_t open_slots = 0;        // helpers that may still join
  size_t active = 0;            // helpers inside Claim
  std::condition_variable idle;
  std::atomic_flag failed;
  std::exception_ptr error;  // written once, by whoever sets `failed`

  /// Runs ranges until the cursor passes the end. A throw ends every
  /// participant's claiming: the cursor jumps past the end.
  void Claim() {
    try {
      for (size_t r; (r = next.fetch_add(1, std::memory_order_relaxed)) <
                     ranges;) {
        body(context, r);
      }
    } catch (...) {
      next.store(ranges, std::memory_order_relaxed);
      if (!failed.test_and_set()) error = std::current_exception();
    }
  }
};

class KernelPool {
 public:
  static KernelPool& Get() {
    static KernelPool pool;
    return pool;
  }

  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

  ~KernelPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  void Run(Loop* loop, size_t helpers) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      helpers = std::min(helpers, GrowLocked(helpers));
      if (helpers > 0) {
        loop->open_slots = helpers;
        queue_.push_back(loop);
      }
    }
    for (size_t h = 0; h < helpers; ++h) wake_.notify_one();
    loop->Claim();
    if (helpers > 0) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (loop->open_slots > 0) std::erase(queue_, loop);
      loop->idle.wait(lock, [loop] { return loop->active == 0; });
    }
  }

  size_t threads() {
    std::lock_guard<std::mutex> lock(mutex_);
    return helpers_.size();
  }

 private:
  KernelPool() = default;

  /// Starts helpers until `wanted` exist or the process cap is reached;
  /// returns how many exist. A failed thread start leaves the pool
  /// smaller until a later call retries: the caller runs whatever ranges
  /// no helper claims.
  size_t GrowLocked(size_t wanted) {
    static const size_t kCap =
        std::max(std::thread::hardware_concurrency(), 1u) - 1;
    wanted = std::min(wanted, kCap);
    while (helpers_.size() < wanted) {
      try {
        helpers_.emplace_back([this] { HelperLoop(); });
      } catch (const std::system_error&) {
        break;
      }
    }
    return helpers_.size();
  }

  void HelperLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      Loop* loop = queue_.front();
      if (--loop->open_slots == 0) queue_.pop_front();
      ++loop->active;
      lock.unlock();
      loop->Claim();
      lock.lock();
      if (--loop->active == 0) loop->idle.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Loop*> queue_;  // loops with open helper slots, FIFO
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace

void RunRanges(size_t ranges, size_t helpers, void (*body)(void*, size_t),
               void* context) {
  Loop loop(body, context, ranges);
  KernelPool::Get().Run(&loop, std::min(helpers, ranges - 1));
  if (loop.error) std::rethrow_exception(loop.error);
}

size_t KernelPoolThreads() { return KernelPool::Get().threads(); }

}  // namespace marioh::util::internal
