/// \file classifier.hpp
/// \brief The clique classifier M: an MLP over clique features trained on
/// the source pair (G_S, H_S) with negative sampling (Sect. III-D and the
/// paper's online appendix).

#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/features.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "util/cancel.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::core {

/// Training options for the clique classifier.
struct ClassifierOptions {
  /// MLP hyperparameters (input dim is set by the feature mode).
  ml::MlpOptions mlp;
  /// Negative examples sampled per positive example.
  double negatives_per_positive = 3.0;
  /// Fraction of negatives drawn as "hard negatives": proper sub-cliques
  /// of true hyperedges that are not hyperedges themselves. These share
  /// most of their structure with positives, sharpening the decision
  /// boundary (cf. the paper's negative-sampling appendix). 0 disables.
  double hard_negative_fraction = 0.0;
  /// Cap on the number of positive examples (subsampled when exceeded).
  size_t max_positives = 20'000;
  /// Fraction of source hyperedges available as supervision (the
  /// semi-supervised setting of Table VI). 1.0 = full supervision.
  double supervision_fraction = 1.0;
};

/// Supervised clique scorer: trains on cliques of the source projected
/// graph labeled by membership in the source hypergraph, then assigns
/// P(clique is a hyperedge) to arbitrary cliques at reconstruction time.
class CliqueClassifier {
 public:
  CliqueClassifier(FeatureMode mode, ClassifierOptions options);

  /// Trains on the source pair. Positives are the (sub-sampled) unique
  /// hyperedges of `h_source`; negatives are maximal cliques of `g_source`
  /// and random sub-cliques of them that are not hyperedges. `cancel`
  /// (null = non-cancellable) is polled — and its heartbeat beaten — by
  /// the source clique enumeration, per negative-sampling attempt, per
  /// training example's features and once per MLP mini-batch; a Train it
  /// interrupts leaves the classifier untrained rather than half-fitted.
  void Train(const ProjectedGraph& g_source, const Hypergraph& h_source,
             util::Rng* rng, const util::CancelToken* cancel = nullptr);

  /// Prediction score M(Q) in (0, 1) for a canonical NodeSet or
  /// CliqueView. Must be trained first.
  double Score(const ProjectedGraph& g, CliqueView clique,
               bool is_maximal) const;

  /// Batched scoring straight off a clique arena against a frozen CSR
  /// snapshot — the reconstruction loop's path: element i is
  /// `Score(g, cliques[i], is_maximal)` on the same graph, bit for bit.
  /// Each range of `util::ParallelForRanges` (0 = all cores) is scored
  /// in blocks of `kScoreBlock` cliques: each clique's features are
  /// written straight into its row of one small buffer
  /// (`FeatureExtractor::ExtractInto`), scaled, and passed through one
  /// `Mlp::PredictBatch`. Scoring fills `g`'s MHH column, if it has one,
  /// as it goes. A row's score depends only on its own features, so
  /// scores are identical for any thread count and block size. A
  /// tripped `cancel` token (null = non-cancellable) stops each range
  /// within one block; the returned vector then holds unwritten (zero)
  /// slots and must be discarded by the caller.
  std::vector<double> ScoreAll(const CsrGraph& g, const CliqueStore& cliques,
                               bool is_maximal, int num_threads,
                               const util::CancelToken* cancel =
                                   nullptr) const;

  /// True once Train has completed.
  bool trained() const { return mlp_ != nullptr; }

  /// Number of (positive, negative) training examples used by the last
  /// Train call.
  std::pair<size_t, size_t> train_counts() const { return train_counts_; }

  const FeatureExtractor& extractor() const { return extractor_; }

  /// Cliques per ScoreAll block: large enough to amortize the batched
  /// forward pass, small enough that no whole-store feature matrix is
  /// ever built.
  static constexpr size_t kScoreBlock = 64;

 private:
  FeatureExtractor extractor_;
  ClassifierOptions options_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Mlp> mlp_;
  std::pair<size_t, size_t> train_counts_ = {0, 0};
};

}  // namespace marioh::core
