/// \file harness.hpp
/// \brief Shared experiment driver used by the benchmark binaries:
/// dataset preparation (generate, optionally multiplicity-reduce, split,
/// project) and mean ± std accuracy evaluation with per-method time
/// budgets (the paper's OOT semantics at laptop scale).
///
/// Methods are resolved through the `api/` layer: the method registry
/// (`api/registry.hpp`) supplies the rosters and factories, and
/// each seed runs inside an `api::Session` (train → reconstruct →
/// evaluate), judged against the wall-clock budget by `OutOfTime`.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/session.hpp"
#include "api/status.hpp"
#include "core/marioh.hpp"
#include "gen/profiles.hpp"

namespace marioh::eval {

/// A prepared experiment instance: the split halves and their
/// projections, held through shared immutable handles so any number of
/// concurrent sessions (or `api::Service` jobs) can run on one in-memory
/// copy — insert them into a `DatasetCache` or pass them to the
/// handle-based `Session` entry points directly.
struct PreparedDataset {
  std::string name;
  api::HypergraphHandle source;   ///< H_S (training supervision)
  api::HypergraphHandle target;   ///< H_T (hidden ground truth)
  api::GraphHandle g_source;      ///< G_S
  api::GraphHandle g_target;      ///< G_T (reconstruction input)
  std::vector<uint32_t> labels;
  size_t num_classes = 0;

  /// The source pair as a trainable dataset handle.
  api::DatasetHandle train() const { return {name, source, g_source}; }
  /// The reconstruction input as a dataset handle.
  api::DatasetHandle target_input() const {
    return {name, nullptr, g_target};
  }
  /// The hidden ground truth as a dataset handle (for evaluation).
  api::DatasetHandle ground_truth() const { return {name, target, nullptr}; }
};

/// How the source/target halves are produced.
enum class SplitMode {
  /// Uniform random split of the hyperedge multiset (the paper's fallback
  /// when no timestamps exist).
  kRandom,
  /// Timestamp split: synthetic per-occurrence timestamps are attached
  /// and the earliest half becomes the source (the paper's protocol for
  /// timestamped datasets).
  kTemporal,
};

/// Generates a dataset by profile name, optionally reduces hyperedge
/// multiplicities to 1 (the Table II setting), splits it into halves, and
/// projects both. kNotFound (listing known profiles) on unknown names.
api::StatusOr<PreparedDataset> TryPrepareDataset(
    const std::string& profile_name, bool multiplicity_reduced,
    uint64_t seed, SplitMode split_mode = SplitMode::kRandom);

/// Like TryPrepareDataset but dies on unknown profile names; for call
/// sites that pass roster constants.
PreparedDataset PrepareDataset(const std::string& profile_name,
                               bool multiplicity_reduced, uint64_t seed,
                               SplitMode split_mode = SplitMode::kRandom);

/// The paper's out-of-time (OOT) rule, shared by the harness and
/// `marioh_cli --budget`: true when `session`'s train + reconstruct stage
/// seconds exceed a non-negative `budget_seconds` (negative = no limit).
/// Evaluation does not count. The overrunning run still completed and
/// can still be scored; what OOT costs is the caller's policy.
bool OutOfTime(const api::Session& session, double budget_seconds);

/// One accuracy evaluation outcome.
struct AccuracyResult {
  std::string method;
  std::string dataset;
  double mean = 0.0;     ///< Jaccard (x100) or multi-Jaccard (x100)
  double std_dev = 0.0;
  double mean_seconds = 0.0;
  bool out_of_time = false;  ///< exceeded the time budget
  int seeds = 0;
};

/// Options for RunAccuracy.
struct AccuracyOptions {
  int num_seeds = 3;
  /// Per-seed wall-clock budget; a run exceeding it marks the method OOT
  /// and skips remaining seeds (laptop-scale analogue of the 24 h limit).
  double time_budget_seconds = 120.0;
  bool multiplicity_reduced = true;  ///< Table II vs Table III setting
  uint64_t base_seed = 42;
  core::MariohOptions marioh_base = {};
};

/// Runs `method_name` on `profile_name` over several seeds; reports the
/// mean ± std of Jaccard (multiplicity-reduced) or multi-Jaccard
/// (multiplicity-preserved), scaled by 100 as in the paper's tables.
/// kNotFound for unknown methods or profiles.
api::StatusOr<AccuracyResult> TryRunAccuracy(
    const std::string& method_name, const std::string& profile_name,
    const AccuracyOptions& options);

/// Like TryRunAccuracy but dies on unknown names; for roster-driven
/// benches.
AccuracyResult RunAccuracy(const std::string& method_name,
                           const std::string& profile_name,
                           const AccuracyOptions& options);

/// Cross-dataset variant for the transfer experiment (Table V): train on
/// `source_profile`'s source half, reconstruct `target_profile`'s target
/// half.
AccuracyResult RunTransfer(const std::string& method_name,
                           const std::string& source_profile,
                           const std::string& target_profile,
                           const AccuracyOptions& options);

}  // namespace marioh::eval
