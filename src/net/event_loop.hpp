/// \file event_loop.hpp
/// \brief Single-threaded fd-readiness dispatch over poll(2), which runs
/// on Linux and elsewhere alike. The loop that lets one thread serve many
/// sockets — `net::TcpServer` registers its listener and every connection
/// here and never blocks on any of them. Level-triggered: a fd stays
/// ready until its callback consumes the condition.
///
/// Threading model: Add/Modify/Remove/Run and all callbacks happen on the
/// loop thread. There are two cross-thread entry points, both waking the
/// loop through one self-pipe: `Stop()` (lock-free, async-signal-safe)
/// and `Post(fn)`, which hands a closure to the loop thread (it takes a
/// mutex, so it is *not* signal-safe). This keeps every connection data
/// structure single-threaded by construction — the concurrency boundary
/// is the `api::Service` the callbacks talk to, which is internally
/// synchronized, and the post queue, which is how the Service's worker
/// threads tell the loop that a job finished.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "api/status.hpp"

namespace marioh::net {

class EventLoop {
 public:
  /// Readiness bits, both for interest masks and callback events.
  static constexpr uint32_t kRead = 1;
  static constexpr uint32_t kWrite = 2;
  /// Error/hangup conditions; always reported, never requested.
  static constexpr uint32_t kError = 4;

  /// Invoked with the ready-event mask of the fd.
  using Callback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with an interest mask. The callback may call
  /// Modify/Remove freely, including on its own fd.
  api::Status Add(int fd, uint32_t interest, Callback callback);

  /// Changes the interest mask of a registered fd.
  api::Status Modify(int fd, uint32_t interest);

  /// Unregisters a fd (does not close it). Safe mid-dispatch: pending
  /// events for the removed fd are dropped.
  api::Status Remove(int fd);

  /// Dispatches events until Stop(). Between events the loop sleeps in
  /// poll(2) with no timeout: only a ready fd, a Post or Stop wakes it.
  /// Time-driven work belongs to whoever owns the clock (for serving,
  /// the api::Service maintenance thread), never to the loop.
  void Run();

  /// Requests the loop to exit; callable from any thread and from signal
  /// handlers (atomic store + pipe write only). Idempotent.
  void Stop();

  /// Queues `fn` to run on the loop thread; callable from any thread,
  /// but not from a signal handler (it locks a mutex and allocates).
  /// Closures run in FIFO order, after the fd callbacks of the loop
  /// iteration that sees them; Run drains the queue once more after
  /// Stop() before it returns. Closures posted after Run returned are
  /// destroyed with the loop without running.
  void Post(std::function<void()> fn);

 private:
  struct Registration {
    uint32_t interest = 0;
    Callback callback;
    /// Bumped by Remove so a stale ready-event from the same dispatch
    /// batch is recognized and dropped.
    uint64_t generation = 0;
  };

  /// Writes one byte to the self-pipe (async-signal-safe).
  void Wakeup();
  void WakeupDrain();
  /// Runs the closures queued by Post so far, on the loop thread.
  void RunPosted();

  int wake_read_ = -1;  ///< self-pipe: Stop()/Post() write, the loop drains
  int wake_write_ = -1;
  std::map<int, Registration> fds_;
  uint64_t generation_ = 0;
  /// Lock-free so Stop() stays async-signal-safe.
  std::atomic<bool> stop_{false};
  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;  ///< guarded by post_mutex_
};

}  // namespace marioh::net
