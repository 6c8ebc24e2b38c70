/// \file demon.hpp
/// \brief Demon baseline [33]: local-first overlapping community detection.
/// Each node's ego network is clustered with label propagation; the ego is
/// added to each local community, and communities are merged when one is
/// (almost) contained in another. Communities are output as hyperedges.

#pragma once

#include <cstdint>

#include "api/method.hpp"

namespace marioh::baselines {

/// Demon overlapping community detector used as a reconstruction baseline.
class Demon : public api::Reconstructor {
 public:
  /// `epsilon` is the merge containment threshold (the paper uses
  /// epsilon = 1, i.e. merge only full containment); `min_size` the
  /// minimum community size (paper: 2).
  explicit Demon(double epsilon = 1.0, size_t min_size = 2,
                 uint64_t seed = 1)
      : epsilon_(epsilon), min_size_(min_size), seed_(seed) {}

  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;

 private:
  double epsilon_;
  size_t min_size_;
  uint64_t seed_;
};

/// Factory of this method's row in api/builtin_methods.cpp. Override keys:
/// `epsilon`, `min_size`.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeDemon(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
