/// \file request.hpp
/// \brief The typed request a service client submits: which method to run
/// on which cached datasets, under what seed/budget, with which
/// `key=value` overrides. Pure data — `Service::Submit` alone validates it
/// (`ValidateRequestSerializable` below, then the job's `Session::Configure`
/// for method and overrides, then the named datasets).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/status.hpp"

namespace marioh::api {

/// Scheduling class of a job. A higher class always dispatches before a
/// lower one (regardless of submission order); within a class the
/// service's worker pool round-robins across client ids (see
/// util::WorkerPool). The numeric values are the pool's priority ints.
enum class Priority {
  kBatch = 0,        ///< bulk work; yields to everything else
  kNormal = 1,       ///< the default
  kInteractive = 2,  ///< latency-sensitive; jumps every queue
};

/// Stable lower-case name of a priority ("batch", "normal",
/// "interactive").
inline const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      return "normal";
    case Priority::kInteractive:
      return "interactive";
  }
  return "unknown";
}

/// Parses a priority name as printed by PriorityName. Returns false (and
/// leaves `*out` alone) for anything else.
inline bool ParsePriority(const std::string& name, Priority* out) {
  if (name == "batch") {
    *out = Priority::kBatch;
  } else if (name == "normal") {
    *out = Priority::kNormal;
  } else if (name == "interactive") {
    *out = Priority::kInteractive;
  } else {
    return false;
  }
  return true;
}

/// Per-request retry policy for *transient* failures. When an attempt
/// fails with kUnavailable (the code every injected/transient fault
/// surface reports) and attempts remain, the service re-queues the job
/// through its normal fair-share lanes after an exponential backoff —
/// the job stays the same JobId, returns to QUEUED during the backoff
/// (so the stats partition invariant holds unchanged), and its hard
/// deadline is re-armed per attempt. Permanent errors (kNotFound,
/// kInvalidArgument, ...) stay fail-fast, and trips are never retried:
/// a kCancelled / kDeadlineExceeded attempt, or any failure after
/// Cancel() was requested, is terminal.
struct RetryPolicy {
  /// Total attempts including the first; at least 1 (the default: fail
  /// fast, no retries).
  int max_attempts = 1;
  /// Backoff before attempt k+1 after k failed attempts:
  /// `initial * 2^(k-1)`, capped at 2 s, stretched by up to a tenth of
  /// itself. The jitter is a pure function of (job id, attempt), so a
  /// replayed schedule backs off identically — determinism survives the
  /// fault path.
  double initial_backoff_seconds = 0.05;
};

/// One reconstruction job. Dataset fields name entries of the service's
/// `DatasetCache`.
struct ReconstructRequest {
  /// Registry name of the method to run.
  std::string method = "MARIOH";

  /// Source pair for supervised training (must be a dataset holding a
  /// hypergraph *and* its projection, as `DatasetCache` hypergraph loads
  /// are). Empty skips the train stage — required for supervised methods,
  /// optional for unsupervised ones.
  std::string train_dataset;

  /// Reconstruction input (any dataset holding a graph). Required.
  std::string target_dataset;

  /// Ground truth to score the reconstruction against (any dataset
  /// holding a hypergraph). Empty skips evaluation.
  std::string ground_truth_dataset;

  uint64_t seed = 1;

  /// Wall-clock budget over train + reconstruct in seconds; negative
  /// means unlimited (the `Session` OOT semantics: the overrunning run
  /// still completes and scores, and the job reports `budget_overrun`).
  double time_budget_seconds = -1.0;

  /// Hard wall-clock deadline in seconds, armed when the job *starts
  /// running* (queue time does not count); negative means none. Unlike
  /// the soft budget above, overrunning it aborts the job mid-kernel via
  /// its CancelToken: the job ends DEADLINE_EXCEEDED with no result.
  double deadline_seconds = -1.0;

  /// Scheduling class (see Priority above).
  Priority priority = Priority::kNormal;

  /// Fair-share key: jobs with the same client id form one FIFO lane;
  /// distinct clients of equal priority are served round-robin, so one
  /// flooding client only delays itself. Empty is a valid shared
  /// (anonymous) lane — the default keeps single-tenant submission
  /// order.
  std::string client_id;

  /// Retry policy for transient failures (see RetryPolicy). The default
  /// never retries.
  RetryPolicy retry;

  /// Session/method `key=value` overrides, applied through
  /// `ApplySessionOverride` (so `threads=N`, `theta_init=0.8`,
  /// `alpha=0.1`, ... all work). `threads=N` is the job's kernel thread
  /// count (0 = all cores; unset = 1): results are identical for any
  /// value (the thread-count-invariance contract), only the job's
  /// wall-clock and CPU share change. Each key may appear once, and the
  /// typed wire keys (`seed`, `budget`, ...) and `time_budget_seconds` are
  /// reserved for the fields above; Submit rejects both kInvalidArgument.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Serializes `request` as one line of the `submit` wire grammar —
/// space-separated `key=value` tokens (`method= train= target= truth=
/// seed= budget= deadline= priority= client= retries= backoff=` then
/// overrides), with fields at their default value omitted. This is the
/// single source of truth shared by the LineProtocol `submit` verb and
/// the write-ahead journal's accept records, so the two formats cannot
/// drift; doubles round-trip exactly (17 significant digits). Callers
/// must hold a request that passes `ValidateRequestSerializable`.
std::string SerializeReconstructRequest(const ReconstructRequest& request);

/// Parses the wire grammar above into `*request`, which the caller
/// pre-initializes (typically default-constructed; the LineProtocol seeds
/// `client_id` with the connection default first). Typed keys overwrite
/// fields; unknown keys append to `overrides` for Submit to vet. Strict:
/// malformed tokens, bad values, and *any* duplicated key — typed or
/// override — are rejected with a precise kInvalidArgument, so a typo
/// can never silently half-apply.
Status ParseReconstructRequest(const std::string& text,
                               ReconstructRequest* request);

/// Whether `request` survives Serialize → Parse unchanged: a method, no
/// whitespace in strings, finite doubles, backoff >= 0, max_attempts >= 1,
/// a known priority, no empty, reserved, duplicated or '='-bearing override
/// keys, no empty override values. `Service::Submit` enforces it with or
/// without a journal, so every admitted job could be recovered.
Status ValidateRequestSerializable(const ReconstructRequest& request);

}  // namespace marioh::api
