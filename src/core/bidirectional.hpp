/// \file bidirectional.hpp
/// \brief One iteration of MARIOH's bidirectional search (Algorithm 3):
/// apply high-scoring maximal cliques greedily, then explore random
/// sub-cliques of the least promising cliques.

#pragma once

#include <optional>
#include <vector>

#include "core/classifier.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace marioh::core {

/// Per-iteration statistics.
struct BidirectionalStats {
  size_t maximal_cliques = 0;   ///< cliques enumerated this iteration
  /// Of those, cliques carried over from the previous iteration's store
  /// rather than found anew (0 without a `CarriedCliques`).
  size_t cliques_carried = 0;
  /// Of those, cliques whose Phase-1 score was reused, not recomputed.
  size_t scores_reused = 0;
  size_t accepted_phase1 = 0;   ///< hyperedges added from Q_pos
  size_t accepted_phase2 = 0;   ///< hyperedges added from sub-cliques
  size_t subcliques_scored = 0; ///< sub-clique candidates evaluated
  /// True if the enumeration cap truncated the maximal-clique set this
  /// iteration (the iteration then worked on a partial candidate pool).
  bool cliques_truncated = false;
  /// True if `BidirectionalOptions::cancel` tripped mid-iteration: the
  /// iteration stopped at its next preemption point, `*h` holds whatever
  /// was accepted before the trip, and the caller must abandon the run
  /// (the reconstruction loop does, and api::Session discards the
  /// partial hypergraph).
  bool cancelled = false;
  /// Sorted, duplicate-free set of nodes belonging to any clique peeled
  /// this iteration — exactly the rows of `g` that changed. The caller
  /// uses it to patch the next iteration's CSR snapshot instead of
  /// rebuilding it from scratch (see CsrGraph's patch constructor).
  std::vector<NodeId> touched_nodes;
};

/// Options controlling one bidirectional-search iteration.
struct BidirectionalOptions {
  /// Classification threshold theta for this iteration.
  double theta = 0.9;
  /// Negative prediction processing ratio r in percent: the fraction of
  /// non-promising cliques whose sub-cliques are explored.
  double r_percent = 20.0;
  /// Run Phase 2 (sub-clique exploration). false reproduces MARIOH-B.
  bool explore_subcliques = true;
  /// Threads for the read-only kernels of the iteration — maximal-clique
  /// enumeration, clique scoring, Phase 2 sub-clique scoring and the
  /// post-Phase-1 snapshot patch (0 = all cores). Each is a pure function
  /// of a frozen snapshot, so results are identical for any thread count.
  int num_threads = 1;
  /// Cooperative stop signal threaded into every kernel of the iteration
  /// (enumeration roots/emissions, scoring blocks of both phases, each
  /// peel, and each Phase 2 sample draw). A trip during scoring marks the
  /// iteration cancelled before any partial score is consumed. Null =
  /// non-cancellable; untriggered = bit-identical output.
  const util::CancelToken* cancel = nullptr;
};

/// What one iteration hands the next, so it need not re-enumerate and
/// re-score the whole graph: the maximal cliques of its snapshot with
/// their Phase-1 scores, and the nodes whose rows changed since. The
/// reconstruction loop owns one and passes it to every iteration.
struct CarriedCliques {
  /// The last iteration's enumeration (unset before the first, and after
  /// a cancelled iteration).
  std::optional<MaximalCliqueResult> previous;
  /// `previous`'s Phase-1 scores, one per clique.
  std::vector<double> scores;
  /// Sorted nodes whose rows changed since `previous` was enumerated —
  /// set by the caller, who knows every peel, fallback ones included.
  std::vector<NodeId> touched;
};

/// Runs one iteration of Algorithm 3 on `g` in place, appending accepted
/// hyperedges to `h`. `snapshot` must be a CSR snapshot of `*g` in its
/// current (pre-iteration) state — the reconstruction loop owns it and
/// keeps it fresh across iterations via patch-or-rebuild, so late
/// iterations that peel little pay almost nothing for snapshot upkeep; a
/// single-shot caller passes `CsrGraph(*g)`. Returns per-iteration
/// statistics, including the nodes whose adjacency the peels changed.
/// `rng` drives the random sub-clique sampling of Phase 2; its draws do
/// not depend on `options.num_threads`.
///
/// With `carried` (null = enumerate and score everything), the maximal
/// cliques come from `UpdateMaximalCliques` over `carried->previous` and
/// `carried->touched`, and a carried clique with no touched member keeps
/// its score when the classifier's features read only member rows
/// (`FeatureExtractor::ReadsOnlyMemberRows`). On return `carried` holds
/// this iteration's cliques and Phase-1 scores; the caller must set its
/// `touched` before the next call. The output is the same either way,
/// bit for bit.
BidirectionalStats BidirectionalSearch(ProjectedGraph* g,
                                       const CsrGraph& snapshot,
                                       const CliqueClassifier& classifier,
                                       const BidirectionalOptions& options,
                                       util::Rng* rng, Hypergraph* h,
                                       CarriedCliques* carried = nullptr);

}  // namespace marioh::core
