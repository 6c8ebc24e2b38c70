/// \file projected_graph.hpp
/// \brief Mutable weighted graph `G = (V, E_G, w)`: the clique expansion of
/// a hypergraph, and the object MARIOH's reconstruction loop peels.

#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "hypergraph/types.hpp"

namespace marioh {

/// Weighted undirected graph with integer edge weights (edge
/// multiplicities). Adjacency is a per-node hash map so the reconstruction
/// loop can decrement and delete edges in O(1) expected time.
class ProjectedGraph {
 public:
  /// Neighbor → weight map for a single node.
  using AdjMap = std::unordered_map<NodeId, uint32_t>;

  /// Creates an edgeless graph over `num_nodes` nodes.
  explicit ProjectedGraph(size_t num_nodes = 0) : adj_(num_nodes) {}

  /// Number of nodes |V|.
  size_t num_nodes() const { return adj_.size(); }

  /// Number of (undirected) edges |E_G| currently present.
  size_t num_edges() const { return num_edges_; }

  /// True if no edges remain (the reconstruction loop's stop condition).
  bool Empty() const { return num_edges_ == 0; }

  /// Weight w(u,v); 0 if the edge is absent or u == v.
  uint32_t Weight(NodeId u, NodeId v) const;

  /// True if {u,v} is an edge.
  bool HasEdge(NodeId u, NodeId v) const { return Weight(u, v) > 0; }

  /// Adds `delta` to w(u,v), inserting the edge if absent. `u != v`, and
  /// the sum must fit uint32_t (checked).
  void AddWeight(NodeId u, NodeId v, uint32_t delta);

  /// Subtracts `delta` from w(u,v); removes the edge if the weight reaches
  /// zero. Subtracting more than the current weight clamps to removal.
  /// Returns the amount actually subtracted.
  uint32_t SubtractWeight(NodeId u, NodeId v, uint32_t delta);

  /// Removes the edge {u,v} entirely; returns its former weight.
  uint32_t RemoveEdge(NodeId u, NodeId v);

  /// Neighbor map of `u` (weights included).
  const AdjMap& Neighbors(NodeId u) const { return adj_[u]; }

  /// Degree |N(u)|.
  size_t Degree(NodeId u) const { return adj_[u].size(); }

  /// Weighted degree: sum of w(u,v) over neighbors v.
  uint64_t WeightedDegree(NodeId u) const;

  /// Average edge weight (the `Avg. w` column of Table I); 0 if edgeless.
  double AverageWeight() const;

  /// All edges as (u, v, w) with u < v, sorted for determinism.
  struct Edge {
    NodeId u;
    NodeId v;
    uint32_t weight;
  };
  std::vector<Edge> Edges() const;

  /// True if every pair of distinct nodes in `nodes` (a canonical NodeSet
  /// or CliqueView) is an edge — i.e. `nodes` is a clique of this graph.
  bool IsClique(std::span<const NodeId> nodes) const;

  /// Maximum number of higher-order hyperedges through edge {u,v}
  /// (Eq. (1)): `MHH(u,v) = sum_{z in N(u) ∩ N(v)} min(w(u,z), w(v,z))`.
  /// Iterates the smaller of the two neighbor maps.
  uint64_t Mhh(NodeId u, NodeId v) const;

  /// Common neighbors N(u) ∩ N(v), unsorted.
  std::vector<NodeId> CommonNeighbors(NodeId u, NodeId v) const;

  /// |N(u) ∩ N(v)| without materializing the intersection.
  size_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// Subtracts 1 from every edge of the clique `nodes`, removing edges that
  /// hit zero. Callers must ensure `nodes` is currently a clique.
  void PeelClique(std::span<const NodeId> nodes);

  /// Sum of all edge weights.
  uint64_t TotalWeight() const;

  /// Approximate resident heap footprint in bytes (per-node adjacency
  /// maps, buckets, allocation overhead). O(|V|); the `DatasetCache`
  /// byte-budget accounting uses this at insert time.
  size_t ApproxBytes() const;

 private:
  std::vector<AdjMap> adj_;
  size_t num_edges_ = 0;
};

}  // namespace marioh
