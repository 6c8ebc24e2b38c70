/// \file features.hpp
/// \brief Clique feature extraction for the multiplicity-aware classifier
/// (Sect. III-D) and for the SHyRe-Count-style structural features used by
/// the MARIOH-M ablation and the SHyRe baselines.
///
/// Every feature family can be computed against either the mutable
/// hash-map `ProjectedGraph` or an immutable `CsrGraph` snapshot; both
/// paths produce bit-identical vectors (work caps truncate neighbor sets
/// in ascending-id order on both). The CSR overload is the reconstruction
/// loop's hot path: `CliqueClassifier::ScoreAll` calls `ExtractInto` per
/// clique, writing straight into its block's feature row, inside one
/// parallel loop over the frozen snapshot; on a CSR snapshot the
/// multiplicity-aware pair kernel reads and fills the snapshot's MHH
/// column, so each pair's MHH is summed once per row version.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"
#include "la/matrix.hpp"

namespace marioh::core {

/// Which feature family to compute for a clique.
enum class FeatureMode {
  /// The paper's multiplicity-aware features: weighted node degrees
  /// (aggregated), per-edge {multiplicity, MHH, MHH/multiplicity}
  /// (aggregated), plus {clique size, cut ratio, is-maximal}. 23 dims.
  kMultiplicityAware,
  /// SHyRe-Count-style purely structural features (no edge multiplicity):
  /// unweighted node degrees (aggregated), per-edge common-neighbor counts
  /// (aggregated), edge density of the neighborhood, clique size,
  /// is-maximal. 13 dims. Used by MARIOH-M and the SHyRe-Count baseline.
  kStructural,
  /// SHyRe-Motif features: the structural features plus motif statistics —
  /// per-node clustering coefficients and per-edge square (4-cycle) counts
  /// (both aggregated). 23 dims. Used by the SHyRe-Motif baseline.
  kMotif,
};

/// Caller-owned scratch of feature extraction, reused across calls so a
/// loop over many cliques allocates nothing per clique. `row_weights` is
/// a node-indexed buffer that one clique member's weight row is scattered
/// into at a time (and, on a CSR snapshot, `row_slots` the neighbors'
/// positions in that row, which address its MHH column entries); it grows
/// to the graph's node count on first use and is all zero between calls,
/// so one instance serves any number of cliques and graphs. The other
/// vectors hold one clique's per-node and per-pair values until they are
/// aggregated. Not shareable across threads: keep one per thread (the
/// batched scorer keeps one per parallel range).
struct FeatureScratch {
  std::vector<uint32_t> row_weights;
  std::vector<uint32_t> row_slots;
  std::vector<double> node_values;
  std::vector<double> pair_values[3];
  std::vector<NodeId> hood;
  std::vector<NodeId> neighbor_ids;
};

/// Extracts fixed-length feature vectors for cliques of a projected graph.
/// Node- and edge-level features are summarized with the five-number
/// aggregation {sum, mean, min, max, std} exactly as in the paper.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureMode mode) : mode_(mode) {}

  /// Dimensionality of the produced vectors.
  size_t dim() const;

  /// Feature vector of `clique` (a canonical NodeSet or CliqueView,
  /// size >= 2) measured on graph `g`. `is_maximal` is the caller-supplied
  /// maximality indicator (cliques from the maximal enumeration pass 1,
  /// sub-cliques 0). `scratch` is reused across calls by loops over many
  /// cliques; null makes the call build its own. A wrapper over
  /// ExtractInto.
  la::Vector Extract(const ProjectedGraph& g, CliqueView clique,
                     bool is_maximal,
                     FeatureScratch* scratch = nullptr) const;

  /// Same features measured on a CSR snapshot; bit-identical to the
  /// ProjectedGraph overload on the same graph.
  la::Vector Extract(const CsrGraph& g, CliqueView clique, bool is_maximal,
                     FeatureScratch* scratch = nullptr) const;

  /// Extract written into `out` (exactly `dim()` values, e.g. a feature
  /// matrix row), bit for bit, with every temporary in `*scratch`: the
  /// allocation-free form batched scoring and training use. `scratch` is
  /// required (not null), unlike Extract's.
  void ExtractInto(const ProjectedGraph& g, CliqueView clique,
                   bool is_maximal, FeatureScratch* scratch,
                   std::span<double> out) const;
  void ExtractInto(const CsrGraph& g, CliqueView clique, bool is_maximal,
                   FeatureScratch* scratch, std::span<double> out) const;

  FeatureMode mode() const { return mode_; }

  /// True if a clique's features read nothing but its own members' rows
  /// (their neighbors and weights), so the clique scores the same on any
  /// graph where those rows are unchanged. Holds for kMultiplicityAware;
  /// kStructural and kMotif also read the rows of the members' neighbors
  /// (neighborhood density, clustering coefficients, squares).
  bool ReadsOnlyMemberRows() const {
    return mode_ == FeatureMode::kMultiplicityAware;
  }

 private:
  FeatureMode mode_;
};

}  // namespace marioh::core
