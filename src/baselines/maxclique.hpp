/// \file maxclique.hpp
/// \brief MaxClique baseline [36]: clique decomposition that outputs every
/// maximal clique of the projected graph as a hyperedge.

#pragma once

#include "api/method.hpp"

namespace marioh::baselines {

/// Outputs the set of maximal cliques (via Bron–Kerbosch) as hyperedges,
/// each with multiplicity 1. Fast but blind to overlaps and multiplicity.
class MaxCliqueDecomposition : public api::Reconstructor {
 public:
  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;
};

/// Factory of this method's row in api/builtin_methods.cpp. Override keys:
/// none.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeMaxClique(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
