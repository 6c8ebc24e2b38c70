#include "hypergraph/csr.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace marioh {

uint64_t CsrGraph::CopyRow(NodeId u, const ProjectedGraph& g) {
  const size_t base = offsets_[u];
  uint64_t weighted = 0;
  size_t t = base;
  for (const auto& [v, w] : g.Neighbors(u)) {
    neighbors_[t] = v;
    weights_[t] = w;
    weighted += w;
    ++t;
  }
  return weighted;
}

CsrGraph::CsrGraph(const ProjectedGraph& g, int num_threads,
                   MhhColumn column) {
  const size_t n = g.num_nodes();
  offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    offsets_[u + 1] = offsets_[u] + g.Degree(u);
  }
  neighbors_.resize(offsets_.back());
  weights_.resize(offsets_.back());
  if (column == MhhColumn::kAllocate) {
    mhh_.assign(offsets_.back(), kMhhUnknown);
  }
  weighted_degrees_.assign(n, 0);
  // Rows are independent slots, already sorted in `g`, so the copy is
  // deterministic for any thread count.
  util::ParallelFor(n, num_threads, nullptr, [&](size_t u) {
    weighted_degrees_[u] = CopyRow(static_cast<NodeId>(u), g);
  });
  for (uint64_t wd : weighted_degrees_) total_weight_ += wd;
  total_weight_ /= 2;
}

CsrGraph::CsrGraph(const CsrGraph& prev, const ProjectedGraph& g,
                   std::span<const NodeId> touched_nodes, int num_threads) {
  const size_t n = g.num_nodes();
  MARIOH_CHECK_EQ(prev.num_nodes(), n);
  std::vector<uint8_t> is_touched(n, 0);
  for (NodeId u : touched_nodes) {
    MARIOH_CHECK_LT(u, n);
    is_touched[u] = 1;
  }
  // New row lengths: touched rows from the mutable graph, the rest from
  // the previous snapshot (their degrees cannot have changed).
  offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    offsets_[u + 1] =
        offsets_[u] + (is_touched[u] ? g.Degree(u) : prev.Degree(u));
  }
  neighbors_.resize(offsets_.back());
  weights_.resize(offsets_.back());
  // An MHH entry carries over only from an untouched row to an untouched
  // neighbor: MHH(u, v) reads rows u and v. So an untouched row's entries
  // are copied whole, and only a row adjacent to a touched node
  // (`near_touched`) is then scanned for entries to forget. A `prev`
  // without a column gives a patch without one.
  const bool memo = !prev.mhh_.empty();
  std::vector<uint8_t> near_touched;
  if (memo) {
    mhh_.resize(offsets_.back());
    near_touched.assign(n, 0);
    for (NodeId v : touched_nodes) {
      for (NodeId u : prev.Neighbors(v)) near_touched[u] = 1;
    }
  }
  weighted_degrees_.assign(n, 0);
  // Rows are independent slots, so the fill is deterministic for any
  // thread count: untouched rows are straight copies of `prev`'s rows,
  // touched rows are copied from `g` exactly as in the from-scratch
  // build. `prev` has no concurrent fills while it is patched, so its
  // column is read plainly.
  util::ParallelFor(n, num_threads, nullptr, [&](size_t u) {
    const size_t base = offsets_[u];
    if (!is_touched[u]) {
      auto src_n = prev.Neighbors(u);
      auto src_w = prev.Weights(u);
      std::copy(src_n.begin(), src_n.end(), neighbors_.begin() + base);
      std::copy(src_w.begin(), src_w.end(), weights_.begin() + base);
      if (memo) {
        auto src_mhh = prev.mhh_.begin() + prev.offsets_[u];
        std::copy(src_mhh, src_mhh + src_n.size(), mhh_.begin() + base);
        if (near_touched[u]) {
          for (size_t t = 0; t < src_n.size(); ++t) {
            if (is_touched[src_n[t]]) mhh_[base + t] = kMhhUnknown;
          }
        }
      }
      weighted_degrees_[u] = prev.weighted_degrees_[u];
      return;
    }
    if (memo) {
      std::fill(mhh_.begin() + base, mhh_.begin() + offsets_[u + 1],
                kMhhUnknown);
    }
    weighted_degrees_[u] = CopyRow(static_cast<NodeId>(u), g);
  });
  for (uint64_t wd : weighted_degrees_) total_weight_ += wd;
  total_weight_ /= 2;
}

uint32_t CsrGraph::Weight(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes() || u == v) return 0;
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0;
  return weights_[offsets_[u] + static_cast<size_t>(it - nbrs.begin())];
}

std::vector<NodeId> CsrGraph::CommonNeighbors(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  auto nu = Neighbors(u);
  auto nv = Neighbors(v);
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] == nv[j]) {
      if (nu[i] != u && nu[i] != v) out.push_back(nu[i]);
      ++i;
      ++j;
    } else if (nu[i] < nv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

size_t CsrGraph::CommonNeighborCount(NodeId u, NodeId v) const {
  auto nu = Neighbors(u);
  auto nv = Neighbors(v);
  // Members of N(u) ∩ N(v) can equal neither u nor v (no self-loops), so
  // no endpoint skip is needed. The linear merge is branch-predictable
  // and beats binary-search skipping at realistic degree skews.
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] == nv[j]) {
      ++count;
      ++i;
      ++j;
    } else if (nu[i] < nv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

uint64_t CsrGraph::Mhh(NodeId u, NodeId v) const {
  auto nu = Neighbors(u);
  auto nv = Neighbors(v);
  auto wu = Weights(u);
  auto wv = Weights(v);
  uint64_t total = 0;
  // As in CommonNeighborCount: z ∈ N(u) ∩ N(v) implies z != u, z != v.
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] == nv[j]) {
      total += std::min(wu[i], wv[j]);
      ++i;
      ++j;
    } else if (nu[i] < nv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

bool CsrGraph::IsClique(std::span<const NodeId> nodes) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (!HasEdge(nodes[i], nodes[j])) return false;
    }
  }
  return true;
}

}  // namespace marioh
