#include "baselines/maxclique.hpp"

#include "api/registry.hpp"

#include "hypergraph/clique.hpp"

namespace marioh::baselines {

api::Reconstruction MaxCliqueDecomposition::Reconstruct(
    const ProjectedGraph& g_target) const {
  Hypergraph h(g_target.num_nodes());
  // Read the cliques straight out of the enumeration arena; the only
  // per-clique copy is the NodeSet the hypergraph itself stores.
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(g_target);
  for (CliqueView q : enumerated.cliques) {
    h.AddEdge(NodeSet(q.begin(), q.end()), 1);
  }
  return {std::move(h)};
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeMaxClique(
    const api::MethodConfig& config) {
  MARIOH_RETURN_IF_ERROR(api::OverrideReader(config).Finish());
  std::unique_ptr<api::Reconstructor> method =
      std::make_unique<MaxCliqueDecomposition>();
  return method;
}

}  // namespace marioh::baselines
