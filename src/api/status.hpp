/// \file status.hpp
/// \brief Error propagation for the public API: a lightweight `Status` /
/// `StatusOr<T>` pair (in the spirit of absl::Status, from scratch).
///
/// Library entry points that can fail on *user input* — unknown method
/// names, malformed files, bad option strings, tripped deadlines —
/// return a `Status` (or `StatusOr<T>` when they produce a value) instead
/// of aborting, so callers such as `marioh_cli` or a future server front
/// end can report the problem and keep running. `MARIOH_CHECK` remains the
/// guard for programming errors only.

#pragma once

#include <optional>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace marioh::api {

/// Canonical error categories (a deliberately small subset of the gRPC
/// code space — grow it only when a caller needs to dispatch on it).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< malformed user input (option values, file syntax)
  kNotFound,            ///< unknown method / profile / missing file
  kAlreadyExists,       ///< dataset name already bound to another path
  kFailedPrecondition,  ///< API misuse (e.g. Reconstruct before Configure)
  kDeadlineExceeded,    ///< a CancelToken's armed hard deadline tripped
  kCancelled,           ///< a CancelToken tripped (Cancel or shutdown)
  kResourceExhausted,   ///< admission control: queue/quota/connection limit hit
  kInternal,            ///< invariant violation surfaced as an error
  /// Transient infrastructure failure (an injected or real load/read
  /// hiccup) — the one code the service retry policy treats as
  /// retryable by default: the operation may well succeed if repeated.
  kUnavailable,
};

/// Stable upper-case name of a code ("INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

/// An error code plus a human-readable message. Default-constructed
/// `Status` is OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE_NAME>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value or a non-OK `Status`. Accessing `value()` / `operator*`
/// on an error is a checked programming error.
template <typename T>
class StatusOr {
 public:
  /// Implicit from a non-OK status (constructing from OK is an error:
  /// an OK StatusOr must carry a value).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    MARIOH_CHECK(!status_.ok());
  }
  /// Implicit from a value.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    MARIOH_CHECK(ok());
    return *value_;
  }
  T& value() & {
    MARIOH_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    MARIOH_CHECK(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Unwraps a StatusOr or dies with a check failure at the caller's
/// location; for call sites that pass roster constants and treat failure
/// as a programming error. Use as
/// `return ValueOrDie(std::move(result), __FILE__, __LINE__);`.
template <typename T>
T ValueOrDie(StatusOr<T> result, const char* file, int line) {
  if (!result.ok()) {
    util::CheckFailed(file, line, result.status().ToString());
  }
  return std::move(result).value();
}

}  // namespace marioh::api

/// Evaluates `expr` (a `Status` expression) and returns it from the
/// enclosing function if it is an error.
#define MARIOH_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::marioh::api::Status mh_status = (expr);     \
    if (!mh_status.ok()) return mh_status;        \
  } while (0)
