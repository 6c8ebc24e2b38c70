/// \file shyre_unsup.hpp
/// \brief SHyRe-Unsup baseline ([6], appendix): the only prior method that
/// uses edge multiplicity. Iteratively selects the top-ranked maximal
/// clique — preferring larger cliques with lower average edge multiplicity
/// — converts it to a hyperedge, decrements its edge multiplicities, and
/// repeats until no edges remain.

#pragma once

#include <cstddef>

#include "api/method.hpp"

namespace marioh::baselines {

/// Unsupervised multiplicity-aware maximal-clique peeling.
class ShyreUnsup : public api::Reconstructor {
 public:
  /// `max_iterations` caps the peel loop (each iteration may re-enumerate
  /// maximal cliques, which is what makes the original slow).
  explicit ShyreUnsup(size_t max_iterations = 1'000'000)
      : max_iterations_(max_iterations) {}

  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;

 private:
  size_t max_iterations_;
};

/// Factory of this method's row in api/builtin_methods.cpp. Override keys:
/// `max_iterations`.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyreUnsup(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
