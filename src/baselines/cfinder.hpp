/// \file cfinder.hpp
/// \brief CFinder baseline [34]: k-clique percolation. Two k-cliques are
/// adjacent when they share k-1 nodes; connected unions of adjacent
/// k-cliques form communities, which are output as hyperedges.

#pragma once

#include <cstddef>

#include "api/method.hpp"

namespace marioh::baselines {

/// k-clique percolation communities as hyperedges. When trained, `k` is
/// chosen from the source hypergraph's hyperedge-size quantiles (the paper
/// selects the optimal k within the [0.1, 0.5] quantile range); untrained
/// runs use the constructor default.
class CFinder : public api::Reconstructor {
 public:
  explicit CFinder(size_t k = 3) : k_(k) {}

  void Train(const ProjectedGraph& g_source,
             const Hypergraph& h_source) override;
  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;

  size_t k() const { return k_; }

 private:
  size_t k_;
};

/// Factory of this method's row in api/builtin_methods.cpp. Override keys:
/// `k`.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeCFinder(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
