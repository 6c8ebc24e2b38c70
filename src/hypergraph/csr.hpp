/// \file csr.hpp
/// \brief CSR (compressed sparse row) snapshot of a projected graph:
/// cache-friendly sorted neighbor ranges, O(log d) adjacency tests, fast
/// sorted-merge common-neighbor iteration, and a memo of MHH (Eq. (1))
/// per edge slot. This is the read path of the reconstruction loop's
/// snapshot-then-peel pattern (see docs/ARCHITECTURE.md "The hot path"):
/// every iteration freezes the mutable hash-map `ProjectedGraph` into a
/// `CsrGraph`, runs the read-heavy kernels (maximal-clique enumeration,
/// MHH, feature extraction) on the snapshot — in parallel, since its
/// adjacency never changes — and then applies the accepted peels back to
/// the mutable graph.
///
/// The adjacency (offsets, neighbors, weights, degrees) is immutable once
/// built. The MHH column is a memo beside it: entry t of row u caches
/// MHH(u, Neighbors(u)[t]), is filled on first use (by `Filtering`, or by
/// the multiplicity-aware feature kernel) with relaxed atomic stores, and
/// is exact whenever it is filled — MHH(u, v) reads only rows u and v, so
/// a patched snapshot carries every entry whose two endpoints' rows it
/// copied. Concurrent fills of one entry store the same integer. A
/// snapshot built only to enumerate cliques skips the column
/// (`MhhColumn::kSkip`).

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"

namespace marioh {

/// Weighted-graph snapshot in CSR layout: an immutable adjacency plus
/// the lazily filled MHH column (see the file comment).
class CsrGraph {
 public:
  /// Value of an MHH column entry that has not been computed yet. The
  /// column holds 32-bit entries; an MHH too large for one is never
  /// stored, so it stays unknown and is recomputed on every read.
  static constexpr uint32_t kMhhUnknown = ~uint32_t{0};

  /// An empty snapshot (0 nodes); a placeholder to patch or assign into.
  CsrGraph() = default;

  /// Whether a full build allocates the MHH column. Only snapshots whose
  /// edges or cliques get MHH read it; a build for clique enumeration
  /// alone passes kSkip and saves the column's 4 bytes per slot. Without
  /// a column every MHH read is computed afresh and nothing is stored.
  enum class MhhColumn { kAllocate, kSkip };

  /// Builds a snapshot of `g`. Neighbors of every node are sorted by id.
  /// `num_threads` parallelizes the per-row sort (0 = all cores); the
  /// result is identical for any thread count. The MHH column, if
  /// allocated, starts unknown.
  explicit CsrGraph(const ProjectedGraph& g, int num_threads = 1,
                    MhhColumn column = MhhColumn::kAllocate);

  /// Incremental snapshot reuse: builds a snapshot of `g` by patching
  /// `prev`, a snapshot of an earlier state of the same graph from which
  /// `g` differs only in the adjacency rows of `touched_nodes` (e.g. the
  /// members of cliques peeled since `prev` was taken — peeling only
  /// mutates edges whose two endpoints are both in the peeled clique, so
  /// every other row is bit-identical and is copied straight from `prev`
  /// instead of being re-gathered and re-sorted from the hash map).
  /// `touched_nodes` may be in any order and contain duplicates; nodes
  /// whose rows did not actually change are harmless (their rebuilt rows
  /// come out identical). The adjacency is bit-identical to `CsrGraph(g)`
  /// for any thread count. If `prev` has an MHH column, the patch keeps
  /// its entries whose two endpoints are both untouched (their value is
  /// unchanged) and leaves the rest unknown; otherwise it has none.
  CsrGraph(const CsrGraph& prev, const ProjectedGraph& g,
           std::span<const NodeId> touched_nodes, int num_threads = 1);

  /// Number of nodes.
  size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of undirected edges.
  size_t num_edges() const { return neighbors_.size() / 2; }

  /// Degree of node u.
  size_t Degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Weighted degree: sum of w(u,v) over neighbors v. O(1), precomputed.
  uint64_t WeightedDegree(NodeId u) const { return weighted_degrees_[u]; }

  /// Sorted neighbor ids of u.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {neighbors_.data() + offsets_[u],
            neighbors_.data() + offsets_[u + 1]};
  }

  /// Weights aligned with Neighbors(u).
  std::span<const uint32_t> Weights(NodeId u) const {
    return {weights_.data() + offsets_[u],
            weights_.data() + offsets_[u + 1]};
  }

  /// Weight of edge (u, v); 0 if absent. O(log deg(u)).
  uint32_t Weight(NodeId u, NodeId v) const;

  /// True if {u, v} is an edge.
  bool HasEdge(NodeId u, NodeId v) const { return Weight(u, v) > 0; }

  /// Common neighbors of u and v by sorted merge; ascending order.
  std::vector<NodeId> CommonNeighbors(NodeId u, NodeId v) const;

  /// |N(u) ∩ N(v)| (excluding u and v themselves) by sorted merge,
  /// without materializing the intersection.
  size_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// MHH (Eq. (1)) computed on the snapshot by a sorted merge of rows u
  /// and v; matches ProjectedGraph::Mhh on the same graph. Neither reads
  /// nor fills the MHH column.
  uint64_t Mhh(NodeId u, NodeId v) const;

  /// MHH(u, Neighbors(u)[t]) from the MHH column; on a miss it is
  /// computed with `Mhh` and stored. Safe to call from many threads.
  uint64_t MhhAt(NodeId u, size_t t) const {
    const uint32_t known = KnownMhh(u, t);
    if (known != kMhhUnknown) return known;
    const uint64_t mhh = Mhh(u, Neighbors(u)[t]);
    StoreMhh(u, t, mhh);
    return mhh;
  }

  /// The MHH column entry of slot t of row u — MHH(u, Neighbors(u)[t]) —
  /// or kMhhUnknown if it has not been filled or there is no column.
  uint32_t KnownMhh(NodeId u, size_t t) const {
    if (mhh_.empty()) return kMhhUnknown;
    return std::atomic_ref<uint32_t>(mhh_[offsets_[u] + t])
        .load(std::memory_order_relaxed);
  }

  /// Fills slot t of row u with `mhh`, which must equal
  /// MHH(u, Neighbors(u)[t]); a value that does not fit an entry, or a
  /// snapshot without a column, stores nothing. Racing fills store the
  /// same value.
  void StoreMhh(NodeId u, size_t t, uint64_t mhh) const {
    if (mhh >= kMhhUnknown || mhh_.empty()) return;
    std::atomic_ref<uint32_t>(mhh_[offsets_[u] + t])
        .store(static_cast<uint32_t>(mhh), std::memory_order_relaxed);
  }

  /// True if every pair of distinct nodes in `nodes` (a canonical
  /// NodeSet or CliqueView) is an edge — i.e. `nodes` is a clique of
  /// this snapshot.
  bool IsClique(std::span<const NodeId> nodes) const;

  /// Sum of all edge weights.
  uint64_t TotalWeight() const { return total_weight_; }

 private:
  std::vector<size_t> offsets_;     // size num_nodes + 1
  std::vector<NodeId> neighbors_;   // concatenated sorted adjacency
  std::vector<uint32_t> weights_;   // aligned with neighbors_
  std::vector<uint64_t> weighted_degrees_;  // size num_nodes
  uint64_t total_weight_ = 0;
  // MHH memo aligned with neighbors_ (empty when built with kSkip):
  // exact or kMhhUnknown. Mutable
  // because const readers fill it; readers and fillers go through
  // std::atomic_ref, so concurrent fills are race-free.
  mutable std::vector<uint32_t> mhh_;
};

}  // namespace marioh
