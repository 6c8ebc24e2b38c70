/// \file shyre.hpp
/// \brief SHyRe-Count and SHyRe-Motif baselines (Wang & Kleinberg [6]):
/// supervised hypergraph reconstruction that samples candidate cliques
/// from the maximal cliques of the projected graph according to a learned
/// distribution rho(n, k) and classifies them once — no iteration, no edge
/// multiplicity. SHyRe-Count uses basic structural count features;
/// SHyRe-Motif adds motif (triangle / wedge / 4-path) statistics.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/method.hpp"
#include "core/classifier.hpp"

namespace marioh::baselines {

/// Feature family used by a SHyRe instance.
enum class ShyreFeatures {
  kCount,  ///< SHyRe-Count: structural count features
  kMotif,  ///< SHyRe-Motif: count features + motif statistics
};

/// Supervised SHyRe reconstructor.
class Shyre : public api::Reconstructor {
 public:
  /// Training / inference knobs.
  struct Options {
    ShyreFeatures features = ShyreFeatures::kCount;
    /// Classifier acceptance threshold at reconstruction.
    double threshold = 0.5;
    /// Cap on sampled sub-clique candidates per maximal clique.
    size_t max_candidates_per_clique = 64;
    uint64_t seed = 1;
    core::ClassifierOptions classifier;
  };

  /// Constructs SHyRe-Count with default options.
  Shyre();
  explicit Shyre(Options options);

  /// Learns rho(n, k) — the expected number of size-k hyperedges inside a
  /// size-n maximal clique — and trains the clique classifier.
  void Train(const ProjectedGraph& g_source,
             const Hypergraph& h_source) override;

  /// Samples candidates per maximal clique according to rho and keeps the
  /// ones the classifier accepts. One pass; no peeling.
  api::Reconstruction Reconstruct(
      const ProjectedGraph& g_target) const override;

 private:
  /// Expected count of size-k hyperedges within a maximal clique of size n
  /// (0 when unseen in training).
  double Rho(size_t n, size_t k) const;

  Options options_;
  core::CliqueClassifier classifier_;
  // rho_[n][k] = average count; ragged, indexed by clique size.
  std::vector<std::vector<double>> rho_;
};

/// Factories of the two SHyRe rows in api/builtin_methods.cpp. Override keys:
/// `threshold`, `max_candidates_per_clique`.
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyreCount(
    const api::MethodConfig& config);
api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeShyreMotif(
    const api::MethodConfig& config);

}  // namespace marioh::baselines
