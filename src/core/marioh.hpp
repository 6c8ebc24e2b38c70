/// \file marioh.hpp
/// \brief The MARIOH reconstructor (Algorithm 1): filtering + iterated
/// bidirectional search with adaptive threshold decay, plus the ablation
/// variants evaluated in the paper (MARIOH-M / -F / -B).

#pragma once

#include <cstdint>
#include <memory>

#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "core/filtering.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"
#include "util/timer.hpp"

namespace marioh::core {

/// Full configuration of a MARIOH run. The defaults follow the paper's
/// settings (theta_init in the robust range of Fig. 4, alpha = 1/20).
struct MariohOptions {
  double theta_init = 0.9;   ///< initial classification threshold
  double r_percent = 20.0;   ///< negative prediction processing ratio (%)
  double alpha = 1.0 / 20;   ///< threshold adjust ratio
  bool use_filtering = true;       ///< false reproduces MARIOH-F
  bool use_bidirectional = true;   ///< false reproduces MARIOH-B
  /// kStructural reproduces MARIOH-M (SHyRe-Count-style features).
  FeatureMode feature_mode = FeatureMode::kMultiplicityAware;
  /// Safety cap on reconstruction iterations; the algorithm normally stops
  /// when the residual graph is empty.
  size_t max_iterations = 10'000;
  /// Threads for the read-only kernels of every iteration — filtering's
  /// MHH pass, CSR snapshot builds, maximal-clique enumeration, and
  /// clique scoring (0 = all cores). Results are identical for any value
  /// (the determinism contract of docs/ARCHITECTURE.md).
  int num_threads = 1;
  /// Snapshot-reuse threshold of the reconstruction loop: when the
  /// fraction of nodes touched by an iteration's peels is at most this,
  /// the next iteration's CSR snapshot is *patched* from the previous one
  /// (only the touched adjacency rows are rebuilt; see CsrGraph's patch
  /// constructor) instead of rebuilt from scratch. Either way the
  /// snapshot — and therefore the reconstruction — is bit-identical; only
  /// wall-clock changes. The value follows the BM_CsrPatchRebuild
  /// crossover (patching still wins at 50% touched on the benchmark
  /// graphs, so the threshold sits safely below that). A constant, not a
  /// per-run setting.
  static constexpr double snapshot_reuse = 0.4;
  uint64_t seed = 1;  ///< seed for training and sub-clique sampling
  ClassifierOptions classifier;
  /// Cooperative stop signal for Reconstruct, threaded into every hot
  /// kernel (filtering's MHH pass, clique enumeration roots/emissions,
  /// scoring slots, peel steps) so Cancel/deadline trips land mid-kernel
  /// within a bounded number of work items — not at the next stage
  /// boundary. Null (the default) is non-cancellable; an *untriggered*
  /// token leaves the output bit-identical (property-tested by
  /// test_cancellation). After a trip the returned hypergraph is partial
  /// — check `ReconstructionStats::cancelled` and discard it
  /// (api::Session does, mapping the trip to kCancelled /
  /// kDeadlineExceeded). Train polls it too (source enumeration, feature
  /// rows, once per MLP mini-batch) and, once it trips, leaves the
  /// classifier untrained; a Reconstruct under a tripped token returns at
  /// once, flagged cancelled. The token must outlive the calls it gates.
  const util::CancelToken* cancel = nullptr;
};

/// Named ablation variants from the paper's effectiveness study.
enum class MariohVariant {
  kFull,      ///< MARIOH
  kNoMulti,   ///< MARIOH-M: structural features only
  kNoFilter,  ///< MARIOH-F: no theoretically-guaranteed filtering
  kNoBidir,   ///< MARIOH-B: no sub-clique exploration
};

/// Convenience: options for a named variant on top of `base`.
MariohOptions OptionsForVariant(MariohVariant variant,
                                MariohOptions base = {});

/// Aggregate counters of one Reconstruct call.
struct ReconstructionStats {
  size_t iterations = 0;         ///< bidirectional-search iterations run
  size_t maximal_cliques = 0;    ///< cliques enumerated, summed over iters
  /// Of those, cliques carried over from the previous iteration instead
  /// of found anew, and cliques whose Phase-1 score was reused.
  size_t cliques_carried = 0;
  size_t scores_reused = 0;
  size_t accepted_phase1 = 0;    ///< hyperedges accepted from Q_pos
  size_t accepted_phase2 = 0;    ///< hyperedges accepted from sub-cliques
  size_t subcliques_scored = 0;  ///< sub-clique candidates evaluated
  size_t filtering_edges = 0;    ///< size-2 hyperedges from Algorithm 2
  /// Snapshot upkeep: how many CSR snapshots were patched from the
  /// previous iteration's snapshot vs rebuilt from scratch (the
  /// `snapshot_reuse` threshold). Patches + rebuilds = snapshots built.
  size_t snapshot_patches = 0;
  size_t snapshot_rebuilds = 0;
  /// True if any iteration's maximal-clique enumeration was truncated by
  /// the clique cap — the reconstruction then worked on partial candidate
  /// pools and callers should not treat the output as exhaustive.
  bool cliques_truncated = false;
  /// True if `MariohOptions::cancel` tripped mid-run: the loop stopped at
  /// its next preemption point and the returned hypergraph is partial —
  /// discard it.
  bool cancelled = false;
  /// Wall-clock seconds of Algorithm 2 (filtering, with the first
  /// snapshot it hands on) and of the bidirectional-search loop.
  double filtering_seconds = 0.0;
  double bidirectional_seconds = 0.0;
};

/// Supervised multiplicity-aware hypergraph reconstructor.
///
/// Usage:
/// ```
/// Marioh m(options);
/// m.Train(g_source, h_source);
/// Hypergraph h_hat = m.Reconstruct(g_target);
/// ```
/// Reconstruct keeps no state, so threads may share one trained model.
class Marioh {
 public:
  explicit Marioh(MariohOptions options = {});

  /// Trains the clique classifier on the source pair (Problem 1's
  /// supervision).
  void Train(const ProjectedGraph& g_source, const Hypergraph& h_source);

  /// Reconstructs a hypergraph from the target projected graph
  /// (Algorithm 1). When `stats` is non-null it receives this call's
  /// counters and phase times.
  Hypergraph Reconstruct(const ProjectedGraph& g_target,
                         ReconstructionStats* stats = nullptr) const;

 private:
  MariohOptions options_;
  CliqueClassifier classifier_;
};

}  // namespace marioh::core
