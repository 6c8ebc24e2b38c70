/// \file event_loop.hpp
/// \brief Single-threaded fd-readiness dispatch over poll(2), which runs
/// on Linux and elsewhere alike. The loop that lets one thread serve many
/// sockets — `net::TcpServer` registers its listener and every connection
/// here and never blocks on any of them. Level-triggered: a fd stays
/// ready until its callback consumes the condition.
///
/// Threading model: Add/Modify/Remove/Run and all callbacks happen on the
/// loop thread; the only cross-thread (and async-signal-safe) entry point
/// is `Stop()`, which wakes the loop through a self-pipe. This keeps every
/// connection data structure single-threaded by construction — the
/// concurrency boundary is the `api::Service` the callbacks talk to, which
/// is internally synchronized.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>

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

  /// Installs a periodic callback invoked on the loop thread roughly
  /// every `period` even when no fd is ready — the driver for deferred
  /// waits, TTL retirement, and shutdown-flag checks.
  void set_tick(std::chrono::milliseconds period, std::function<void()> tick);

  /// Dispatches events until Stop(). Runs the tick at least once before
  /// returning.
  void Run();

  /// Requests the loop to exit; callable from any thread and from signal
  /// handlers (atomic store + pipe write only). Idempotent.
  void Stop();

  bool stopped() const;

 private:
  struct Registration {
    uint32_t interest = 0;
    Callback callback;
    /// Bumped by Remove so a stale ready-event from the same dispatch
    /// batch is recognized and dropped.
    uint64_t generation = 0;
  };

  void WakeupDrain();

  int wake_read_ = -1;  ///< self-pipe: Stop() writes, the loop drains
  int wake_write_ = -1;
  std::map<int, Registration> fds_;
  uint64_t generation_ = 0;
  std::chrono::milliseconds tick_interval_{50};
  std::function<void()> tick_;
  /// Lock-free so Stop() stays async-signal-safe.
  std::atomic<bool> stop_{false};
};

}  // namespace marioh::net
