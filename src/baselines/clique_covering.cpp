#include "baselines/clique_covering.hpp"

#include "api/registry.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {

api::Reconstruction CliqueCovering::Reconstruct(
    const ProjectedGraph& g_target) const {
  Hypergraph h(g_target.num_nodes());
  std::vector<ProjectedGraph::Edge> edges = g_target.Edges();
  std::unordered_set<NodePair, util::PairHash> covered;
  util::Rng rng(seed_);

  for (const ProjectedGraph::Edge& e : edges) {
    if (covered.count(MakePair(e.u, e.v)) > 0) continue;
    // Grow a maximal clique starting from {u, v}, preferring candidates
    // adjacent to all current members that touch many uncovered edges.
    NodeSet clique = {e.u, e.v};
    std::vector<NodeId> candidates = g_target.CommonNeighbors(e.u, e.v);
    std::sort(candidates.begin(), candidates.end(),
              [&](NodeId a, NodeId b) {
                size_t da = g_target.Degree(a);
                size_t db = g_target.Degree(b);
                return da != db ? da > db : a < b;
              });
    for (NodeId c : candidates) {
      bool adjacent_to_all = true;
      for (NodeId m : clique) {
        if (!g_target.HasEdge(c, m)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (adjacent_to_all) clique.push_back(c);
    }
    Canonicalize(&clique);
    h.AddEdge(clique, 1);
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        covered.insert(MakePair(clique[i], clique[j]));
      }
    }
  }
  return {std::move(h)};
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeCliqueCovering(
    const api::MethodConfig& config) {
  MARIOH_RETURN_IF_ERROR(api::OverrideReader(config).Finish());
  std::unique_ptr<api::Reconstructor> method =
      std::make_unique<CliqueCovering>(config.seed);
  return method;
}

}  // namespace marioh::baselines
