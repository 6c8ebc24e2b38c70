#include "hypergraph/projected_graph.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace marioh {

uint32_t ProjectedGraph::Weight(NodeId u, NodeId v) const {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return 0;
  const AdjMap& nu = adj_[u];
  auto it = nu.find(v);
  return it == nu.end() ? 0 : it->second;
}

void ProjectedGraph::AddWeight(NodeId u, NodeId v, uint32_t delta) {
  MARIOH_CHECK_NE(u, v);
  MARIOH_CHECK_LT(u, adj_.size());
  MARIOH_CHECK_LT(v, adj_.size());
  if (delta == 0) return;
  uint32_t& wu = adj_[u][v];
  MARIOH_CHECK_LE(delta, std::numeric_limits<uint32_t>::max() - wu);
  if (wu == 0) ++num_edges_;
  wu += delta;
  adj_[v][u] = wu;
}

uint32_t ProjectedGraph::SubtractWeight(NodeId u, NodeId v, uint32_t delta) {
  if (u == v) return 0;
  auto it = adj_[u].find(v);
  if (it == adj_[u].end()) return 0;
  uint32_t removed = std::min(delta, it->second);
  it->second -= removed;
  if (it->second == 0) {
    adj_[u].erase(it);
    adj_[v].erase(u);
    --num_edges_;
  } else {
    adj_[v][u] = it->second;
  }
  return removed;
}

uint32_t ProjectedGraph::RemoveEdge(NodeId u, NodeId v) {
  uint32_t w = Weight(u, v);
  if (w > 0) SubtractWeight(u, v, w);
  return w;
}

uint64_t ProjectedGraph::WeightedDegree(NodeId u) const {
  uint64_t s = 0;
  for (const auto& [v, w] : adj_[u]) s += w;
  return s;
}

double ProjectedGraph::AverageWeight() const {
  if (num_edges_ == 0) return 0.0;
  return static_cast<double>(TotalWeight()) /
         static_cast<double>(num_edges_);
}

std::vector<ProjectedGraph::Edge> ProjectedGraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (const auto& [v, w] : adj_[u]) {
      if (u < v) out.push_back({u, v, w});
    }
  }
  std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return out;
}

bool ProjectedGraph::IsClique(std::span<const NodeId> nodes) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (!HasEdge(nodes[i], nodes[j])) return false;
    }
  }
  return true;
}

uint64_t ProjectedGraph::Mhh(NodeId u, NodeId v) const {
  const AdjMap* small = &adj_[u];
  const AdjMap* large = &adj_[v];
  NodeId other_small = v;  // endpoint to skip while iterating *small
  NodeId other_large = u;
  if (small->size() > large->size()) {
    std::swap(small, large);
    std::swap(other_small, other_large);
  }
  uint64_t total = 0;
  for (const auto& [z, wz] : *small) {
    if (z == other_small) continue;
    auto it = large->find(z);
    if (it == large->end()) continue;
    total += std::min(wz, it->second);
  }
  return total;
}

std::vector<NodeId> ProjectedGraph::CommonNeighbors(NodeId u, NodeId v) const {
  const AdjMap* small = &adj_[u];
  const AdjMap* large = &adj_[v];
  NodeId skip = v;
  if (small->size() > large->size()) {
    std::swap(small, large);
    skip = u;
  }
  std::vector<NodeId> out;
  for (const auto& [z, wz] : *small) {
    (void)wz;
    if (z == skip) continue;
    if (large->count(z) > 0) out.push_back(z);
  }
  return out;
}

size_t ProjectedGraph::CommonNeighborCount(NodeId u, NodeId v) const {
  const AdjMap* small = &adj_[u];
  const AdjMap* large = &adj_[v];
  NodeId skip = v;
  if (small->size() > large->size()) {
    std::swap(small, large);
    skip = u;
  }
  size_t count = 0;
  for (const auto& [z, wz] : *small) {
    (void)wz;
    if (z == skip) continue;
    if (large->count(z) > 0) ++count;
  }
  return count;
}

void ProjectedGraph::PeelClique(std::span<const NodeId> nodes) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      SubtractWeight(nodes[i], nodes[j], 1);
    }
  }
}

uint64_t ProjectedGraph::TotalWeight() const {
  uint64_t s = 0;
  for (const AdjMap& m : adj_) {
    for (const auto& [v, w] : m) {
      (void)v;
      s += w;
    }
  }
  return s / 2;
}

size_t ProjectedGraph::ApproxBytes() const {
  // Per hash-map node: key + value + chain pointer + a conservative
  // allocator-overhead constant.
  constexpr size_t kNodeOverhead = 24;
  size_t bytes = sizeof(*this) + adj_.capacity() * sizeof(AdjMap);
  for (const AdjMap& m : adj_) {
    bytes += m.bucket_count() * sizeof(void*);
    bytes += m.size() * (sizeof(NodeId) + sizeof(uint32_t) + kNodeOverhead);
  }
  return bytes;
}

}  // namespace marioh
