/// \file clique_covering.hpp
/// \brief CliqueCovering baseline [35]: greedy edge clique cover — every
/// edge of the projected graph must be covered by at least one output
/// clique, while keeping the cover small.

#pragma once

#include <cstdint>

#include "api/method.hpp"

namespace marioh::baselines {

/// Greedy edge clique cover: repeatedly takes an uncovered edge, grows it
/// into a maximal clique preferring neighbors that cover many uncovered
/// edges, and emits the clique as a hyperedge. Terminates when every edge
/// is covered.
class CliqueCovering : public api::Reconstructor {
 public:
  explicit CliqueCovering(uint64_t seed = 1) : seed_(seed) {}
  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;

 private:
  uint64_t seed_;
};

/// Factory of this method's row in api/builtin_methods.cpp. Override keys:
/// none.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeCliqueCovering(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
