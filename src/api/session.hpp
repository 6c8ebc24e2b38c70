/// \file session.hpp
/// \brief The `Session` façade: one reusable object that walks the
/// paper's whole protocol — configure a method, Train on the source pair,
/// Reconstruct the target, Evaluate against ground truth — with per-stage
/// timing and a cooperative `util::CancelToken`. The out-of-time rule of
/// the paper's tables is the caller's (`eval::OutOfTime`), read off the
/// stage timer.
///
/// Every consumer of the library goes through this façade (or the
/// registry below it): the evaluation harness, `marioh_cli`, the bench
/// drivers, examples, and `api::Service` (one Session per job). Inputs
/// are in-memory graphs or shared `DatasetHandle`s; reading files is the
/// caller's business (`io/text_io.hpp`, `DatasetCache`). All failure
/// modes arrive as `Status` values, never aborts.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/registry.hpp"
#include "api/status.hpp"
#include "core/marioh.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace marioh::api {

/// Full configuration of a Session.
struct SessionOptions {
  /// Registry name of the method to run (see `MethodRegistry::Names()`).
  std::string method = "MARIOH";
  uint64_t seed = 1;
  /// Cooperative stop signal, checked at stage entry and threaded into
  /// the MARIOH-family kernels so Cancel()/deadline trips land
  /// *mid-kernel* with bounded latency (baselines, which ignore the
  /// typed `marioh` options, still stop at stage boundaries). When the
  /// token trips during a stage, that stage's partial result is
  /// discarded and the stage returns kCancelled — or kDeadlineExceeded
  /// when the token's armed deadline tripped it. Not owned; must outlive
  /// every stage call. Null = no cancellation (the default).
  const util::CancelToken* cancel = nullptr;
  /// Typed base options for the MARIOH-family methods; ignored by
  /// baselines.
  core::MariohOptions marioh;
  /// `key=value` overrides forwarded to the method factory (e.g.
  /// "theta_init=0.8"); unknown keys fail Configure.
  std::vector<std::pair<std::string, std::string>> overrides;
  /// Session-level keys already consumed by `ApplySessionOverride`, used
  /// to reject duplicate assignments (e.g. two `seed=` overrides) with a
  /// precise error. Managed by ApplySessionOverride; leave it alone.
  std::vector<std::string> applied_session_keys;
};

/// Applies one `key=value` assignment to `options`. Session-level keys
/// (`method`, `seed`, `threads`) are set directly;
/// any other key is appended to `options.overrides` for the method
/// factory to validate at Configure time. `threads=N` (0 = all cores)
/// sets `marioh.num_threads` — the thread count of the reconstruction
/// hot kernels, with thread-count-invariant results; like the rest of
/// the typed `marioh` options it only affects the MARIOH-family methods
/// (baselines ignore it). Method-level keys ride the override list the
/// same way — e.g. `theta_init=0.8` sets the MARIOH loop's initial
/// classification threshold. kInvalidArgument on syntax errors (missing
/// '=', empty key, empty value), bad session-level values, and duplicate
/// session-level keys (each of `method`/`seed`/`threads` may be assigned
/// at most once per SessionOptions).
Status ApplySessionOverride(SessionOptions* options,
                            const std::string& assignment);

/// Scores of the most recent reconstruction.
struct EvaluationResult {
  double jaccard = 0.0;        ///< Table II metric
  double multi_jaccard = 0.0;  ///< Table III metric
  size_t reconstructed_unique_edges = 0;
  size_t reconstructed_total_edges = 0;
};

/// A configured reconstruction run. Reusable across stages but
/// single-shot per reconstruction: Configure again for a fresh run.
class Session {
 public:
  Session() = default;

  /// Resolves the method in the registry and instantiates it. kNotFound
  /// for unknown methods (listing the candidates), kInvalidArgument for
  /// bad overrides. Resets all prior state.
  Status Configure(SessionOptions options);

  bool configured() const { return method_ != nullptr; }

  /// Metadata of the configured method. Configure first.
  const MethodInfo& method_info() const;

  /// Trains the configured method on the source pair. A no-op stage for
  /// unsupervised methods (still recorded in the stage timer).
  /// kInvalidArgument, before the stage starts, if the method is
  /// supervised and `h_source` has no hyperedges.
  Status Train(const ProjectedGraph& g_source, const Hypergraph& h_source);

  /// Trains on a shared dataset handle (a hypergraph with its
  /// projection, as `DatasetCache` hypergraph loads provide). The session
  /// keeps the handle alive for its own lifetime, so N concurrent
  /// sessions can train on one in-memory copy — and cache eviction can
  /// never invalidate a running session. kInvalidArgument if the handle
  /// is not a source pair.
  Status Train(const DatasetHandle& source);

  /// Reconstructs a hypergraph from the target projected graph; the
  /// result is available through `reconstruction()` (no copy is made).
  /// kFailedPrecondition if a supervised method was not trained.
  Status Reconstruct(const ProjectedGraph& g_target);

  /// Reconstructs from a shared dataset handle (any dataset holding a
  /// graph); the session keeps the handle alive. kInvalidArgument if the
  /// handle holds no graph.
  Status Reconstruct(const DatasetHandle& target);

  /// Scores the most recent reconstruction against `ground_truth`.
  StatusOr<EvaluationResult> Evaluate(const Hypergraph& ground_truth);

  /// Writes the most recent reconstruction to `path` (text format).
  Status WriteReconstruction(const std::string& path) const;

  /// The most recent reconstruction, or null before Reconstruct.
  const Hypergraph* reconstruction() const {
    return reconstruction_ ? &*reconstruction_ : nullptr;
  }

  /// Moves the reconstruction out of the session (the session then holds
  /// none, as before Reconstruct). kFailedPrecondition if there is
  /// nothing to take. Lets callers like `api::Service` hand the result
  /// off without a copy.
  StatusOr<Hypergraph> TakeReconstruction();

  /// Per-stage wall-clock of this session ("train", "reconstruct",
  /// "evaluate").
  const util::StageTimer& stage_timer() const { return stage_timer_; }

  /// Seconds since the first stage began (0 before any stage).
  double elapsed_seconds() const;

 private:
  /// Cancellation gate at stage entry; starts the session clock.
  Status BeginStage(const std::string& stage);
  /// Records stage time.
  void EndStage(const std::string& stage, double stage_seconds);

  SessionOptions options_;
  MethodInfo info_;
  std::unique_ptr<Reconstructor> method_;
  /// Shared-handle pins: keep handle-based inputs alive for the
  /// session's lifetime even if the cache evicts them mid-run.
  DatasetHandle source_handle_;
  DatasetHandle target_handle_;
  std::optional<Hypergraph> reconstruction_;
  util::StageTimer stage_timer_;
  std::optional<util::Timer> clock_;
  bool trained_ = false;
};

}  // namespace marioh::api
