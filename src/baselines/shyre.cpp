#include "baselines/shyre.hpp"

#include "api/registry.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "hypergraph/clique.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {
namespace {

core::FeatureMode ToFeatureMode(ShyreFeatures f) {
  // Both SHyRe variants are multiplicity-blind; the motif variant adds
  // clustering-coefficient and square-count motif statistics.
  return f == ShyreFeatures::kCount ? core::FeatureMode::kStructural
                                    : core::FeatureMode::kMotif;
}

}  // namespace

Shyre::Shyre() : Shyre(Options()) {}

Shyre::Shyre(Options options)
    : options_(std::move(options)),
      classifier_(ToFeatureMode(options_.features), options_.classifier) {}

void Shyre::Train(const ProjectedGraph& g_source,
                  const Hypergraph& h_source) {
  util::Rng rng(options_.seed);
  classifier_.Train(g_source, h_source, &rng);

  // Estimate rho(n, k): for each maximal clique of size n in G_S, count
  // source hyperedges of size k fully inside it; average per clique size.
  // The cliques stay in the enumeration arena — containment tests run on
  // views, so no per-clique NodeSet is ever materialized here.
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(g_source);
  const CliqueStore& maximal = enumerated.cliques;
  size_t max_n = 2;
  for (CliqueView q : maximal) max_n = std::max(max_n, q.size());

  std::vector<std::vector<double>> counts(max_n + 1);
  std::vector<size_t> cliques_of_size(max_n + 1, 0);
  for (auto& row : counts) row.assign(max_n + 1, 0.0);

  for (CliqueView q : maximal) {
    ++cliques_of_size[q.size()];
    // Count hyperedges contained in q, bucketed by size. Hyperedges are
    // few; test containment directly.
    for (const auto& [e, m] : h_source.edges()) {
      (void)m;
      if (e.size() > q.size()) continue;
      if (std::includes(q.begin(), q.end(), e.begin(), e.end())) {
        counts[q.size()][e.size()] += 1.0;
      }
    }
  }
  rho_.assign(max_n + 1, {});
  for (size_t n = 2; n <= max_n; ++n) {
    rho_[n].assign(max_n + 1, 0.0);
    if (cliques_of_size[n] == 0) continue;
    for (size_t k = 2; k <= n; ++k) {
      rho_[n][k] = counts[n][k] / static_cast<double>(cliques_of_size[n]);
    }
  }
}

double Shyre::Rho(size_t n, size_t k) const {
  if (n < rho_.size() && k < rho_[n].size()) return rho_[n][k];
  // Unseen clique size: fall back to the largest learned size.
  if (rho_.size() > 2) {
    size_t last = rho_.size() - 1;
    if (k < rho_[last].size()) return rho_[last][k];
  }
  return 0.0;
}

api::Reconstruction Shyre::Reconstruct(const ProjectedGraph& g_target) const {
  Hypergraph h(g_target.num_nodes());
  util::Rng rng(options_.seed ^ 0xabcdef12345ULL);
  // Maximal cliques stay in the enumeration arena; candidates are scored
  // as views, and the dedup lookup reuses one scratch key. Only accepted
  // candidates own their nodes (inside the `accepted` set).
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(g_target);

  std::unordered_set<NodeSet, util::VectorHash> accepted;
  NodeSet lookup_key;  // reused buffer: no allocation per candidate
  auto consider = [&](CliqueView q, bool is_maximal) {
    if (q.size() < 2) return;
    lookup_key.assign(q.begin(), q.end());
    if (accepted.count(lookup_key) > 0) return;
    double score = classifier_.Score(g_target, q, is_maximal);
    if (score > options_.threshold) accepted.insert(lookup_key);
  };

  for (CliqueView q : enumerated.cliques) {
    consider(q, true);
    size_t budget = options_.max_candidates_per_clique;
    for (size_t k = 2; k < q.size() && budget > 0; ++k) {
      // Number of size-k candidates to sample from this clique, following
      // the learned rho (at least one sample when rho > 0).
      double expect = Rho(q.size(), k);
      size_t samples = static_cast<size_t>(std::ceil(expect));
      samples = std::min(samples, budget);
      for (size_t s = 0; s < samples; ++s) {
        NodeSet sub = rng.SampleWithoutReplacement(q, k);
        Canonicalize(&sub);
        consider(sub, false);
        --budget;
        if (budget == 0) break;
      }
    }
  }
  for (const NodeSet& q : accepted) h.AddEdge(q, 1);
  return {std::move(h)};
}

namespace {

/// Shared factory body for the two SHyRe feature families.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyre(
    ShyreFeatures features, const api::MethodConfig& config) {
  Shyre::Options options;
  options.features = features;
  options.seed = config.seed;
  api::OverrideReader reader(config);
  reader.Get("threshold", &options.threshold);
  reader.Get("max_candidates_per_clique",
             &options.max_candidates_per_clique);
  MARIOH_RETURN_IF_ERROR(reader.Finish());
  std::unique_ptr<api::Reconstructor> method =
      std::make_unique<Shyre>(options);
  return method;
}

}  // namespace

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyreCount(
    const api::MethodConfig& config) {
  return MakeShyre(ShyreFeatures::kCount, config);
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyreMotif(
    const api::MethodConfig& config) {
  return MakeShyre(ShyreFeatures::kMotif, config);
}

}  // namespace marioh::baselines
