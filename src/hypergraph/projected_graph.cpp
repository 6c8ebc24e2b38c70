#include "hypergraph/projected_graph.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace marioh {
namespace {

/// First entry of `row` whose neighbor id is not below `v`.
template <typename Row>
auto LowerBound(Row& row, NodeId v) {
  return std::lower_bound(
      row.begin(), row.end(), v,
      [](const ProjectedGraph::Entry& e, NodeId id) { return e.first < id; });
}

/// Calls `fn(z, wu, wv)` for every common neighbor z of rows `a` and `b`,
/// with wu = w(u, z) and wv = w(v, z), by a sorted merge. No row holds
/// its own node, so z is never u or v.
template <typename Fn>
void ForEachCommon(std::span<const ProjectedGraph::Entry> a,
                   std::span<const ProjectedGraph::Entry> b, Fn&& fn) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first == b[j].first) {
      fn(a[i].first, a[i].second, b[j].second);
      ++i;
      ++j;
    } else if (a[i].first < b[j].first) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace

uint32_t ProjectedGraph::Weight(NodeId u, NodeId v) const {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return 0;
  const Row& row = adj_[u];
  auto it = LowerBound(row, v);
  return it == row.end() || it->first != v ? 0 : it->second;
}

void ProjectedGraph::AddWeight(NodeId u, NodeId v, uint32_t delta) {
  MARIOH_CHECK_NE(u, v);
  MARIOH_CHECK_LT(u, adj_.size());
  MARIOH_CHECK_LT(v, adj_.size());
  if (delta == 0) return;
  Row& ru = adj_[u];
  Row& rv = adj_[v];
  auto it = LowerBound(ru, v);
  if (it == ru.end() || it->first != v) {
    ru.insert(it, {v, delta});
    rv.insert(LowerBound(rv, u), {u, delta});
    ++num_edges_;
    return;
  }
  MARIOH_CHECK_LE(delta, std::numeric_limits<uint32_t>::max() - it->second);
  it->second += delta;
  LowerBound(rv, u)->second = it->second;
}

uint32_t ProjectedGraph::SubtractWeight(NodeId u, NodeId v, uint32_t delta) {
  if (u == v) return 0;
  Row& ru = adj_[u];
  auto it = LowerBound(ru, v);
  if (it == ru.end() || it->first != v) return 0;
  Row& rv = adj_[v];
  auto mirror = LowerBound(rv, u);
  uint32_t removed = std::min(delta, it->second);
  it->second -= removed;
  if (it->second == 0) {
    ru.erase(it);
    rv.erase(mirror);
    --num_edges_;
  } else {
    mirror->second = it->second;
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
  uint64_t total = 0;
  ForEachCommon(adj_[u], adj_[v], [&total](NodeId, uint32_t wu, uint32_t wv) {
    total += std::min(wu, wv);
  });
  return total;
}

std::vector<NodeId> ProjectedGraph::CommonNeighbors(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  ForEachCommon(adj_[u], adj_[v],
                [&out](NodeId z, uint32_t, uint32_t) { out.push_back(z); });
  return out;
}

size_t ProjectedGraph::CommonNeighborCount(NodeId u, NodeId v) const {
  size_t count = 0;
  ForEachCommon(adj_[u], adj_[v],
                [&count](NodeId, uint32_t, uint32_t) { ++count; });
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
  for (NodeId u = 0; u < adj_.size(); ++u) s += WeightedDegree(u);
  return s / 2;
}

size_t ProjectedGraph::ApproxBytes() const {
  size_t bytes = sizeof(*this) + adj_.capacity() * sizeof(Row);
  for (const Row& row : adj_) bytes += row.capacity() * sizeof(Entry);
  return bytes;
}

}  // namespace marioh
