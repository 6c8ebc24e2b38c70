#include "baselines/bayesian_mdl.hpp"

#include "api/registry.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "hypergraph/clique.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {
namespace {

/// Description length of a candidate cover: hyperedge count weighted
/// against total node incidences (parsimony: fewer, larger-but-tight
/// hyperedges are cheaper than many overlapping ones).
double DescriptionLength(const std::vector<NodeSet>& cover) {
  double bits = 0.0;
  for (const NodeSet& e : cover) {
    bits += 1.0 + static_cast<double>(e.size());
  }
  return bits;
}

/// True if every projected edge is covered by some clique of `cover`.
bool CoversAllEdges(const std::vector<NodeSet>& cover,
                    const std::vector<ProjectedGraph::Edge>& edges) {
  std::unordered_set<NodePair, util::PairHash> covered;
  for (const NodeSet& e : cover) {
    for (size_t i = 0; i < e.size(); ++i) {
      for (size_t j = i + 1; j < e.size(); ++j) {
        covered.insert(MakePair(e[i], e[j]));
      }
    }
  }
  for (const ProjectedGraph::Edge& e : edges) {
    if (covered.count(MakePair(e.u, e.v)) == 0) return false;
  }
  return true;
}

}  // namespace

api::Reconstruction BayesianMdl::Reconstruct(
    const ProjectedGraph& g_target) const {
  util::Rng rng(seed_);
  std::vector<ProjectedGraph::Edge> edges = g_target.Edges();
  Hypergraph h(g_target.num_nodes());
  if (edges.empty()) return {std::move(h)};

  // Greedy weighted set cover over maximal cliques: repeatedly take the
  // clique covering the most uncovered edges per unit description length.
  // Candidates are read as views into the enumeration arena; only cliques
  // accepted into the cover materialize an owning NodeSet.
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(g_target);
  const CliqueStore& maximal = enumerated.cliques;
  std::unordered_set<NodePair, util::PairHash> uncovered;
  for (const ProjectedGraph::Edge& e : edges) {
    uncovered.insert(MakePair(e.u, e.v));
  }
  std::vector<NodeSet> cover;
  while (!uncovered.empty()) {
    double best_gain = -1.0;
    size_t best = maximal.size();  // sentinel: none
    for (size_t c = 0; c < maximal.size(); ++c) {
      CliqueView q = maximal[c];
      size_t newly = 0;
      for (size_t i = 0; i < q.size(); ++i) {
        for (size_t j = i + 1; j < q.size(); ++j) {
          if (uncovered.count(MakePair(q[i], q[j])) > 0) ++newly;
        }
      }
      if (newly == 0) continue;
      double gain = static_cast<double>(newly) /
                    (1.0 + static_cast<double>(q.size()));
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    // No clique covers anything further — possible when a truncated
    // enumeration left some edge pairs uncoverable.
    if (best == maximal.size()) break;
    CliqueView chosen = maximal[best];
    cover.push_back(maximal.Materialize(best));
    for (size_t i = 0; i < chosen.size(); ++i) {
      for (size_t j = i + 1; j < chosen.size(); ++j) {
        uncovered.erase(MakePair(chosen[i], chosen[j]));
      }
    }
  }

  // Simulated annealing: try replacing one cover element by a random
  // sub-clique or dropping it, accepting moves that keep the cover valid
  // and improve (or, early on, mildly worsen) the description length.
  double current_dl = DescriptionLength(cover);
  double temperature = 1.0;
  for (size_t step = 0; step < anneal_steps_ && cover.size() > 1; ++step) {
    temperature = 1.0 - static_cast<double>(step) /
                            static_cast<double>(anneal_steps_);
    size_t pick = rng.UniformIndex(cover.size());
    std::vector<NodeSet> proposal = cover;
    if (rng.Bernoulli(0.5)) {
      proposal.erase(proposal.begin() + static_cast<long>(pick));
    } else if (cover[pick].size() > 2) {
      size_t k = static_cast<size_t>(
          rng.UniformInt(2, static_cast<int64_t>(cover[pick].size()) - 1));
      NodeSet sub = rng.SampleWithoutReplacement(cover[pick], k);
      Canonicalize(&sub);
      proposal[pick] = sub;
    } else {
      continue;
    }
    if (!CoversAllEdges(proposal, edges)) continue;
    double dl = DescriptionLength(proposal);
    double delta = dl - current_dl;
    if (delta < 0 || rng.Bernoulli(std::exp(-delta / std::max(
                                       temperature, 1e-3)))) {
      cover = std::move(proposal);
      current_dl = dl;
    }
  }

  for (const NodeSet& e : cover) h.AddEdge(e, 1);
  return {std::move(h)};
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeBayesianMdl(
    const api::MethodConfig& config) {
  size_t anneal_steps = 2000;
  api::OverrideReader reader(config);
  reader.Get("anneal_steps", &anneal_steps);
  MARIOH_RETURN_IF_ERROR(reader.Finish());
  std::unique_ptr<api::Reconstructor> method =
      std::make_unique<BayesianMdl>(config.seed, anneal_steps);
  return method;
}

}  // namespace marioh::baselines
