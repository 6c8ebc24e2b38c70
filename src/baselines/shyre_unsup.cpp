#include "baselines/shyre_unsup.hpp"

#include "api/registry.hpp"

#include <algorithm>

#include "hypergraph/clique.hpp"

namespace marioh::baselines {
namespace {

/// Ranking key: larger cliques first, then lower average edge multiplicity,
/// then lexicographic for determinism.
struct RankedClique {
  NodeSet nodes;
  double avg_multiplicity;

  bool operator<(const RankedClique& other) const {
    if (nodes.size() != other.nodes.size()) {
      return nodes.size() > other.nodes.size();
    }
    if (avg_multiplicity != other.avg_multiplicity) {
      return avg_multiplicity < other.avg_multiplicity;
    }
    return nodes < other.nodes;
  }
};

double AverageMultiplicity(const ProjectedGraph& g, CliqueView q) {
  double sum = 0.0;
  size_t cnt = 0;
  for (size_t i = 0; i < q.size(); ++i) {
    for (size_t j = i + 1; j < q.size(); ++j) {
      sum += static_cast<double>(g.Weight(q[i], q[j]));
      ++cnt;
    }
  }
  return cnt == 0 ? 0.0 : sum / static_cast<double>(cnt);
}

}  // namespace

api::Reconstruction ShyreUnsup::Reconstruct(
    const ProjectedGraph& g_target) const {
  ProjectedGraph g = g_target;
  Hypergraph h(g.num_nodes());

  size_t iterations = 0;
  std::vector<RankedClique> queue;
  while (!g.Empty() && iterations < max_iterations_) {
    if (queue.empty()) {
      // (Re-)enumerate and rank the maximal cliques of the current graph —
      // the repeated expensive search the paper criticizes. The queue
      // outlives the enumeration arena, so entries materialize here.
      MaximalCliqueResult enumerated = EnumerateMaximalCliques(g);
      queue.reserve(enumerated.cliques.size());
      for (size_t c = 0; c < enumerated.cliques.size(); ++c) {
        double avg = AverageMultiplicity(g, enumerated.cliques[c]);
        queue.push_back({enumerated.cliques.Materialize(c), avg});
      }
      std::sort(queue.begin(), queue.end());
      std::reverse(queue.begin(), queue.end());  // pop_back = best
      if (queue.empty()) break;
    }
    RankedClique top = std::move(queue.back());
    queue.pop_back();
    // The queue may be stale after earlier peels; re-validate.
    if (!g.IsClique(top.nodes)) continue;
    h.AddEdge(top.nodes, 1);
    g.PeelClique(top.nodes);
    ++iterations;
  }
  return {std::move(h)};
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyreUnsup(
    const api::MethodConfig& config) {
  size_t max_iterations = 1'000'000;
  api::OverrideReader reader(config);
  reader.Get("max_iterations", &max_iterations);
  MARIOH_RETURN_IF_ERROR(reader.Finish());
  std::unique_ptr<api::Reconstructor> method =
      std::make_unique<ShyreUnsup>(max_iterations);
  return method;
}

}  // namespace marioh::baselines
