#include "core/classifier.hpp"

#include <algorithm>

#include "hypergraph/clique.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace marioh::core {
namespace {

/// Draws one uniformly random k-subset of the canonical set `from`.
NodeSet RandomSubset(const NodeSet& from, size_t k, util::Rng* rng) {
  NodeSet out = rng->SampleWithoutReplacement(from, k);
  Canonicalize(&out);
  return out;
}

}  // namespace

CliqueClassifier::CliqueClassifier(FeatureMode mode,
                                   ClassifierOptions options)
    : extractor_(mode), options_(std::move(options)) {}

void CliqueClassifier::Train(const ProjectedGraph& g_source,
                             const Hypergraph& h_source, util::Rng* rng,
                             const util::CancelToken* cancel) {
  MARIOH_CHECK_GT(h_source.num_unique_edges(), 0u);
  mlp_.reset();

  // Positive examples: unique source hyperedges (optionally sub-sampled for
  // the semi-supervised setting), which are cliques of G_S by construction.
  std::vector<NodeSet> positives = h_source.UniqueEdges();
  if (options_.supervision_fraction < 1.0) {
    size_t keep = std::max<size_t>(
        1, static_cast<size_t>(options_.supervision_fraction *
                               static_cast<double>(positives.size())));
    positives = rng->SampleWithoutReplacement(positives, keep);
  }
  if (positives.size() > options_.max_positives) {
    positives =
        rng->SampleWithoutReplacement(positives, options_.max_positives);
  }

  std::unordered_set<NodeSet, util::VectorHash> positive_set(
      positives.begin(), positives.end());
  std::unordered_set<NodeSet, util::VectorHash> hyperedge_set;
  for (const auto& [e, m] : h_source.edges()) hyperedge_set.insert(e);

  // Maximality oracle for feature computation: the maximal cliques of
  // G_S, materialized out of the arena because the hash-set oracle and
  // the random sub-clique sampling below need owning sets.
  CliqueOptions clique_options;
  clique_options.cancel = cancel;
  MaximalCliqueResult enumerated =
      EnumerateMaximalCliques(g_source, clique_options);
  if (enumerated.cancelled) return;
  std::vector<NodeSet> max_cliques = enumerated.cliques.ToNodeSets();
  std::unordered_set<NodeSet, util::VectorHash> maximal_set(
      max_cliques.begin(), max_cliques.end());

  // Negative sampling: maximal cliques that are not hyperedges, plus random
  // sub-cliques of maximal cliques that are not hyperedges, plus random
  // edges (size-2 cliques) that are not hyperedges. The sampling loops
  // poll `checker` per attempt: a trip returns with the classifier still
  // untrained, and polling draws nothing from `rng`.
  util::CancelChecker checker(cancel);
  size_t want_neg = static_cast<size_t>(options_.negatives_per_positive *
                                        static_cast<double>(positives.size()));
  want_neg = std::max<size_t>(want_neg, 16);
  std::vector<NodeSet> negatives;
  negatives.reserve(want_neg);
  std::unordered_set<NodeSet, util::VectorHash> negative_set;

  auto try_add_negative = [&](NodeSet q) {
    if (q.size() < 2) return;
    if (hyperedge_set.count(q) > 0) return;
    if (negative_set.insert(q).second) negatives.push_back(std::move(q));
  };

  // Hard negatives first: proper sub-cliques of true hyperedges. They are
  // cliques of G_S by construction and structurally closest to positives.
  if (options_.hard_negative_fraction > 0.0) {
    size_t want_hard = static_cast<size_t>(options_.hard_negative_fraction *
                                           static_cast<double>(want_neg));
    size_t hard_attempts = 0;
    const size_t max_hard_attempts = want_hard * 20 + 100;
    std::vector<const NodeSet*> large_positives;
    for (const NodeSet& e : positives) {
      if (e.size() >= 3) large_positives.push_back(&e);
    }
    while (!large_positives.empty() && negatives.size() < want_hard &&
           hard_attempts < max_hard_attempts) {
      if (checker.ShouldStop()) return;
      ++hard_attempts;
      const NodeSet& e =
          *large_positives[rng->UniformIndex(large_positives.size())];
      size_t k = static_cast<size_t>(
          rng->UniformInt(2, static_cast<int64_t>(e.size()) - 1));
      try_add_negative(RandomSubset(e, k, rng));
    }
  }

  for (const NodeSet& q : max_cliques) {
    if (negatives.size() >= want_neg) break;
    try_add_negative(q);
  }
  std::vector<ProjectedGraph::Edge> edges = g_source.Edges();
  size_t attempts = 0;
  const size_t max_attempts = want_neg * 20 + 1000;
  while (negatives.size() < want_neg && attempts < max_attempts &&
         !max_cliques.empty()) {
    if (checker.ShouldStop()) return;
    ++attempts;
    if (attempts % 2 == 0 && !edges.empty()) {
      const auto& e = edges[rng->UniformIndex(edges.size())];
      try_add_negative(NodeSet{e.u, e.v});
      continue;
    }
    const NodeSet& q = max_cliques[rng->UniformIndex(max_cliques.size())];
    if (q.size() <= 2) continue;
    size_t k = static_cast<size_t>(rng->UniformInt(
        2, static_cast<int64_t>(q.size()) - 1));
    try_add_negative(RandomSubset(q, k, rng));
  }

  // Assemble the training matrix.
  const size_t n = positives.size() + negatives.size();
  la::Matrix x(n, extractor_.dim());
  std::vector<double> y(n, 0.0);
  size_t row = 0;
  FeatureScratch scratch;
  auto fill = [&](const std::vector<NodeSet>& cliques, double label) {
    for (const NodeSet& q : cliques) {
      if (checker.ShouldStop()) return;
      extractor_.ExtractInto(g_source, q, maximal_set.count(q) > 0,
                             &scratch, {x.Row(row), x.cols()});
      y[row] = label;
      ++row;
    }
  };
  fill(positives, 1.0);
  fill(negatives, 0.0);
  if (checker.ShouldStop()) return;
  MARIOH_CHECK_EQ(row, n);

  scaler_.Fit(x);
  scaler_.Transform(&x);

  auto mlp = std::make_unique<ml::Mlp>(extractor_.dim(), 1, options_.mlp);
  mlp->Fit(x, y, cancel);
  // A tripped token leaves the network part-trained: drop it, so
  // trained() stays false and nothing scores with it.
  if (util::ShouldStop(cancel)) return;
  mlp_ = std::move(mlp);
  train_counts_ = {positives.size(), negatives.size()};
}

double CliqueClassifier::Score(const ProjectedGraph& g, CliqueView clique,
                               bool is_maximal) const {
  MARIOH_CHECK(trained());
  la::Vector f = extractor_.Extract(g, clique, is_maximal);
  scaler_.Transform(&f);
  return mlp_->Predict(f);
}

std::vector<double> CliqueClassifier::ScoreAll(const CsrGraph& g,
                                               const CliqueStore& cliques,
                                               bool is_maximal,
                                               int num_threads,
                                               const util::CancelToken*
                                                   cancel) const {
  MARIOH_CHECK(trained());
  std::vector<double> scores(cliques.size());
  const size_t dim = extractor_.dim();
  util::ParallelForRanges(
      cliques.size(), num_threads, [&](size_t, size_t begin, size_t end) {
        // One scratch per thread, kept across calls and graphs: extraction
        // leaves its node-indexed buffers zeroed after every clique, so
        // only growth zero-fills. An exception mid-clique could leave them
        // dirty, so it drops the scratch.
        thread_local FeatureScratch scratch;
        util::CancelChecker checker(cancel);
        la::Matrix features;
        try {
          for (size_t start = begin; start < end; start += kScoreBlock) {
            if (checker.ShouldStop()) return;
            const size_t rows = std::min(kScoreBlock, end - start);
            if (features.rows() != rows) features = la::Matrix(rows, dim);
            for (size_t r = 0; r < rows; ++r) {
              extractor_.ExtractInto(g, cliques[start + r], is_maximal,
                                     &scratch, {features.Row(r), dim});
            }
            scaler_.Transform(&features);
            la::Vector p = mlp_->PredictBatch(features);
            std::copy(p.begin(), p.end(), scores.begin() + start);
          }
        } catch (...) {
          scratch = FeatureScratch();
          throw;
        }
      });
  return scores;
}

}  // namespace marioh::core
