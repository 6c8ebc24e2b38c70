/// \file cancel.hpp
/// \brief Cooperative cancellation: an atomic stop flag plus an optional
/// hard deadline on the steady clock, polled by the long-running kernels
/// at bounded intervals so Cancel and deadline overruns land *mid-kernel*
/// instead of at the next stage boundary.
///
/// Contract (the preemption counterpart of the determinism contract in
/// docs/ARCHITECTURE.md): a token that never trips must not change any
/// output bit — kernels may only consult it to *stop early*, never to
/// alter what they compute. A tripped token leaves partial state behind;
/// the owner (api::Session / api::Service) discards the partial result
/// and reports kCancelled / kDeadlineExceeded instead.
///
/// Tokens are plumbed as `const CancelToken*` (null = non-cancellable,
/// the default everywhere) because every kernel is a *reader*: only the
/// controlling side — a Service job's owner thread — calls Cancel().
/// Both operations are lock-free atomics, safe to call concurrently with
/// any number of polling kernels.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace marioh::util {

/// Why a token asked work to stop.
enum class CancelReason {
  kNone,       ///< not tripped
  kCancelled,  ///< Cancel() was called
  kDeadline,   ///< the armed deadline passed on the steady clock
};

/// `from + seconds` on the steady clock for a non-negative `seconds`,
/// saturating at the clock's last instant: a time too far out to
/// represent (or NaN) becomes "never". The unsaturated arithmetic would
/// overflow the double-to-ticks cast or the addition.
inline std::chrono::steady_clock::time_point SaturatingAfter(
    std::chrono::steady_clock::time_point from, double seconds) {
  using clock = std::chrono::steady_clock;
  const double ticks = std::chrono::duration<double, clock::period>(
                           std::chrono::duration<double>(seconds))
                           .count();
  const double headroom =
      static_cast<double>((clock::time_point::max() - from).count());
  if (!(ticks < headroom)) return clock::time_point::max();
  return from + clock::duration(static_cast<clock::rep>(ticks));
}

/// Shared stop signal. Immovable: kernels hold raw pointers to it, so the
/// owner must keep it at a stable address for the duration of the run
/// (api::Service stores one per Job; tests keep it on the stack).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the flag. Idempotent; wins over a deadline in reason().
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms (or re-arms) a hard deadline `seconds` from now on the steady
  /// clock; negative disarms, and one past the clock's range never trips.
  /// An armed deadline aborts mid-kernel.
  void SetDeadline(double seconds_from_now) {
    if (seconds_from_now < 0.0) {
      deadline_ticks_.store(0, std::memory_order_relaxed);
      return;
    }
    deadline_ticks_.store(
        SaturatingAfter(std::chrono::steady_clock::now(), seconds_from_now)
            .time_since_epoch()
            .count(),
        std::memory_order_relaxed);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Tripped for either reason. Reads the clock only when a deadline is
  /// armed; hot loops should poll through a CancelChecker to stride even
  /// that out.
  bool ShouldStop() const { return reason() != CancelReason::kNone; }

  CancelReason reason() const {
    if (cancelled()) return CancelReason::kCancelled;
    if (deadline_passed()) return CancelReason::kDeadline;
    return CancelReason::kNone;
  }

  /// True once an armed deadline has passed, even if Cancel() was also
  /// called (which reason() reports first). Lets an owner attribute a
  /// hard-deadline status to its deadline when a Cancel lands after it.
  bool deadline_passed() const {
    std::chrono::steady_clock::rep deadline =
        deadline_ticks_.load(std::memory_order_relaxed);
    return deadline != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >=
               deadline;
  }

  /// Publishes liveness: bumps the heartbeat counter the service
  /// watchdog samples to tell a slow-but-working job from a wedged one.
  /// Rides the existing poll sites (CancelChecker calls it on every
  /// check, Session stage gates once per stage), so the hot-path cost is
  /// one relaxed atomic add on a line only this job's kernels touch.
  /// Const because kernels hold `const CancelToken*` — beating is
  /// observability, not control, so the reader-side plumbing stays
  /// untouched.
  void Beat() const { heartbeat_.fetch_add(1, std::memory_order_relaxed); }

  /// The watchdog's sample: monotone while the job makes progress,
  /// frozen when it is wedged (e.g. stuck in a blocking call that never
  /// reaches a poll site).
  uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Steady-clock deadline in clock ticks since the clock's epoch;
  /// 0 = disarmed.
  std::atomic<std::chrono::steady_clock::rep> deadline_ticks_{0};
  /// Liveness counter for the watchdog; mutable so the polling kernels'
  /// `const CancelToken*` view can still beat (see Beat()).
  mutable std::atomic<uint64_t> heartbeat_{0};
};

/// Null-safe check for the common `const CancelToken* cancel` parameter.
inline bool ShouldStop(const CancelToken* token) {
  return token != nullptr && token->ShouldStop();
}

/// Strided poller for per-item hot loops: every call reads the atomic
/// flag (cheap — a relaxed load), but the deadline's clock read happens
/// only once per `kStride` calls. Latches once tripped, so a loop can
/// keep calling it after breaking out of an inner scope.
class CancelChecker {
 public:
  static constexpr uint32_t kStride = 64;

  explicit CancelChecker(const CancelToken* token) : token_(token) {}

  /// True once the token tripped (checked with the striding above).
  /// Every call also publishes a heartbeat, so the poll sites double as
  /// the liveness signal the service watchdog samples.
  bool ShouldStop() {
    if (stopped_ || token_ == nullptr) return stopped_;
    token_->Beat();
    if (token_->cancelled()) {
      stopped_ = true;
    } else if (++calls_ >= kStride) {
      calls_ = 0;
      stopped_ = token_->ShouldStop();
    }
    return stopped_;
  }

 private:
  const CancelToken* token_;
  uint32_t calls_ = 0;
  bool stopped_ = false;
};

}  // namespace marioh::util
