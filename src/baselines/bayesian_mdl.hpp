/// \file bayesian_mdl.hpp
/// \brief Bayesian-MDL baseline (Young, Petri, Peixoto [13]): reconstructs
/// the hypergraph that explains the projected graph most parsimoniously.
///
/// The original uses MCMC over a Bayesian generative model in graph-tool;
/// we optimize the same minimum-description-length objective — the number
/// of hyperedges plus their total size — with a greedy set-cover pass
/// followed by simulated-annealing local moves (split a hyperedge /
/// replace two by their union when it stays a clique). DESIGN.md documents
/// this substitution.

#pragma once

#include <cstdint>

#include "api/method.hpp"

namespace marioh::baselines {

/// MDL clique-cover reconstructor.
class BayesianMdl : public api::Reconstructor {
 public:
  /// `anneal_steps` local-search moves refine the greedy cover;
  /// deterministic given `seed`.
  explicit BayesianMdl(uint64_t seed = 1, size_t anneal_steps = 2000)
      : seed_(seed), anneal_steps_(anneal_steps) {}

  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;

 private:
  uint64_t seed_;
  size_t anneal_steps_;
};

/// Factory of this method's row in api/builtin_methods.cpp. Override keys:
/// `anneal_steps`.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeBayesianMdl(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
