#include "hypergraph/hypergraph.hpp"

#include <algorithm>

#include "hypergraph/projected_graph.hpp"
#include "util/check.hpp"

namespace marioh {

void Hypergraph::AddEdge(NodeSet e, uint32_t count) {
  if (count == 0) return;
  Canonicalize(&e);
  if (e.size() < 2) return;
  num_nodes_ = std::max<size_t>(num_nodes_, e.back() + 1);
  edges_[std::move(e)] += count;
  total_edges_ += count;
}

uint32_t Hypergraph::RemoveEdge(const NodeSet& e, uint32_t count) {
  auto it = edges_.find(e);
  if (it == edges_.end()) return 0;
  uint32_t removed = std::min(count, it->second);
  it->second -= removed;
  total_edges_ -= removed;
  if (it->second == 0) edges_.erase(it);
  return removed;
}

uint32_t Hypergraph::Multiplicity(const NodeSet& e) const {
  auto it = edges_.find(e);
  return it == edges_.end() ? 0 : it->second;
}

std::vector<NodeSet> Hypergraph::UniqueEdges() const {
  std::vector<NodeSet> out;
  out.reserve(edges_.size());
  for (const auto& [e, m] : edges_) out.push_back(e);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeSet> Hypergraph::ExpandedEdges() const {
  std::vector<NodeSet> out;
  out.reserve(total_edges_);
  for (const NodeSet& e : UniqueEdges()) {
    uint32_t m = Multiplicity(e);
    for (uint32_t i = 0; i < m; ++i) out.push_back(e);
  }
  return out;
}

Hypergraph Hypergraph::MultiplicityReduced() const {
  Hypergraph h(num_nodes_);
  for (const auto& [e, m] : edges_) h.AddEdge(e, 1);
  return h;
}

ProjectedGraph Hypergraph::Project() const {
  ProjectedGraph g(num_nodes_);
  for (const auto& [e, m] : edges_) {
    for (size_t i = 0; i < e.size(); ++i) {
      for (size_t j = i + 1; j < e.size(); ++j) {
        g.AddWeight(e[i], e[j], m);
      }
    }
  }
  return g;
}

double Hypergraph::AverageMultiplicity() const {
  if (edges_.empty()) return 0.0;
  return static_cast<double>(total_edges_) /
         static_cast<double>(edges_.size());
}

double Hypergraph::AverageEdgeSize() const {
  if (total_edges_ == 0) return 0.0;
  double s = 0.0;
  for (const auto& [e, m] : edges_) {
    s += static_cast<double>(e.size()) * m;
  }
  return s / static_cast<double>(total_edges_);
}

std::vector<uint32_t> Hypergraph::NodeDegrees() const {
  std::vector<uint32_t> deg(num_nodes_, 0);
  for (const auto& [e, m] : edges_) {
    for (NodeId u : e) deg[u] += m;
  }
  return deg;
}

std::vector<std::vector<const NodeSet*>> Hypergraph::IncidenceLists() const {
  std::vector<std::vector<const NodeSet*>> inc(num_nodes_);
  for (const auto& [e, m] : edges_) {
    for (NodeId u : e) inc[u].push_back(&e);
  }
  return inc;
}

size_t Hypergraph::ApproxBytes() const {
  // Hash-map node: the key vector header + its heap buffer, the value,
  // the chain pointer, and a conservative allocator-overhead constant.
  constexpr size_t kNodeOverhead = 32;
  size_t bytes = sizeof(*this);
  bytes += edges_.bucket_count() * sizeof(void*);
  for (const auto& [e, m] : edges_) {
    (void)m;
    bytes += sizeof(NodeSet) + sizeof(uint32_t) + kNodeOverhead;
    bytes += e.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace marioh
