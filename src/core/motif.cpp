#include "core/motif.hpp"

#include <algorithm>
#include <vector>

namespace marioh::core {
namespace {

/// Collects up to `cap` neighbor ids of u in ascending order, skipping
/// `skip`. Both graphs keep rows sorted, so the capped statistics are
/// identical between them.
template <typename Graph>
std::vector<NodeId> CappedSortedNeighbors(const Graph& g, NodeId u,
                                          NodeId skip, size_t cap) {
  std::vector<NodeId> out;
  out.reserve(std::min(g.Degree(u), cap));
  for (NodeId v : NeighborIds(g, u)) {
    if (v == skip) continue;
    out.push_back(v);
    if (out.size() >= cap) break;
  }
  return out;
}

}  // namespace

template <typename Graph>
uint64_t TrianglesThroughEdge(const Graph& g, NodeId u, NodeId v) {
  return g.CommonNeighborCount(u, v);
}

template <typename Graph>
uint64_t TrianglesAtNode(const Graph& g, NodeId u) {
  // Sum over incident edges of common-neighbor counts double-counts each
  // triangle at u exactly twice (once per incident edge).
  uint64_t twice = 0;
  for (NodeId v : NeighborIds(g, u)) twice += TrianglesThroughEdge(g, u, v);
  return twice / 2;
}

template <typename Graph>
uint64_t WedgesAtNode(const Graph& g, NodeId u) {
  uint64_t d = g.Degree(u);
  return d * (d - 1) / 2;
}

template <typename Graph>
double ClusteringCoefficient(const Graph& g, NodeId u) {
  uint64_t wedges = WedgesAtNode(g, u);
  if (wedges == 0) return 0.0;
  return static_cast<double>(TrianglesAtNode(g, u)) /
         static_cast<double>(wedges);
}

template <typename Graph>
uint64_t SquaresThroughEdge(const Graph& g, NodeId u, NodeId v,
                            size_t max_neighbors) {
  std::vector<NodeId> nu = CappedSortedNeighbors(g, u, v, max_neighbors);
  std::vector<NodeId> nv = CappedSortedNeighbors(g, v, u, max_neighbors);
  // A square u-x-y-v-u needs x in N(u), y in N(v), edge (x,y), x != y.
  uint64_t squares = 0;
  for (NodeId x : nu) {
    for (NodeId y : nv) {
      if (x == y) continue;
      if (g.HasEdge(x, y)) ++squares;
    }
  }
  return squares;
}

template uint64_t TrianglesThroughEdge(const ProjectedGraph&, NodeId, NodeId);
template uint64_t TrianglesThroughEdge(const CsrGraph&, NodeId, NodeId);
template uint64_t TrianglesAtNode(const ProjectedGraph&, NodeId);
template uint64_t TrianglesAtNode(const CsrGraph&, NodeId);
template uint64_t WedgesAtNode(const ProjectedGraph&, NodeId);
template uint64_t WedgesAtNode(const CsrGraph&, NodeId);
template double ClusteringCoefficient(const ProjectedGraph&, NodeId);
template double ClusteringCoefficient(const CsrGraph&, NodeId);
template uint64_t SquaresThroughEdge(const ProjectedGraph&, NodeId, NodeId,
                                     size_t);
template uint64_t SquaresThroughEdge(const CsrGraph&, NodeId, NodeId, size_t);

}  // namespace marioh::core
