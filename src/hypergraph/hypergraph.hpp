/// \file hypergraph.hpp
/// \brief Multiset hypergraph `H = (V, E*_H)` with hyperedge multiplicities
/// and clique expansion into the weighted projected graph.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hypergraph/types.hpp"
#include "util/hash.hpp"

namespace marioh {

class ProjectedGraph;

/// A hypergraph over nodes 0..num_nodes-1 whose hyperedges form a multiset:
/// each unique hyperedge (a canonical `NodeSet` of size >= 2) carries a
/// positive multiplicity `M_H(e)`. This mirrors the paper's
/// `H = (V, E_H, M_H)` formulation (Sect. II-A).
class Hypergraph {
 public:
  /// Map from unique hyperedge to its multiplicity.
  using EdgeMap = std::unordered_map<NodeSet, uint32_t, util::VectorHash>;

  /// Creates an empty hypergraph over `num_nodes` nodes.
  explicit Hypergraph(size_t num_nodes = 0) : num_nodes_(num_nodes) {}

  /// Adds `count` copies of hyperedge `e` (canonicalized internally);
  /// silently ignores edges with fewer than two distinct nodes. Grows the
  /// node count if `e` mentions an unseen node.
  void AddEdge(NodeSet e, uint32_t count = 1);

  /// Removes up to `count` copies of hyperedge `e`; returns the number of
  /// copies actually removed.
  uint32_t RemoveEdge(const NodeSet& e, uint32_t count = 1);

  /// Multiplicity of hyperedge `e` (0 if absent).
  uint32_t Multiplicity(const NodeSet& e) const;

  /// True if at least one copy of `e` is present.
  bool Contains(const NodeSet& e) const { return Multiplicity(e) > 0; }

  /// Number of nodes |V|.
  size_t num_nodes() const { return num_nodes_; }

  /// Number of unique hyperedges |E_H|.
  size_t num_unique_edges() const { return edges_.size(); }

  /// Total hyperedge count |E*_H| = sum of multiplicities.
  size_t num_total_edges() const { return total_edges_; }

  /// Unique-edge → multiplicity map.
  const EdgeMap& edges() const { return edges_; }

  /// Unique hyperedges as a vector (deterministic order: sorted).
  std::vector<NodeSet> UniqueEdges() const;

  /// All hyperedges with repetitions expanded (deterministic order).
  std::vector<NodeSet> ExpandedEdges() const;

  /// Returns a copy with all hyperedge multiplicities reduced to 1 — the
  /// "multiplicity-reduced" evaluation setting of the paper. Note this does
  /// NOT make the projected graph unweighted.
  Hypergraph MultiplicityReduced() const;

  /// Clique expansion: the weighted projected graph `G = (V, E_G, w)` with
  /// `w(u,v) = sum_e M_H(e) * 1({u,v} ⊆ e)`.
  ProjectedGraph Project() const;

  /// Average hyperedge multiplicity (the `Avg. M_H` column of Table I);
  /// 0 for an empty hypergraph.
  double AverageMultiplicity() const;

  /// Average hyperedge size over the multiset; 0 for an empty hypergraph.
  double AverageEdgeSize() const;

  /// Per-node degree: the number of hyperedges (counting multiplicity)
  /// containing each node.
  std::vector<uint32_t> NodeDegrees() const;

  /// For each node, the list of unique hyperedges containing it (indices
  /// into `UniqueEdges()`' order is not guaranteed; pointers into the map
  /// are). Used by the downstream-task feature code.
  std::vector<std::vector<const NodeSet*>> IncidenceLists() const;

  /// Approximate resident heap footprint in bytes (edge map buckets,
  /// node vectors, per-node allocation overhead). O(|E_H|); the
  /// `DatasetCache` byte-budget accounting uses this at insert time.
  size_t ApproxBytes() const;

 private:
  size_t num_nodes_ = 0;
  size_t total_edges_ = 0;
  EdgeMap edges_;
};

}  // namespace marioh
