/// \file filtering.hpp
/// \brief Theoretically-guaranteed filtering (Algorithm 2): extract edges
/// whose residual multiplicity proves they are size-2 hyperedges.

#pragma once

#include <vector>

#include "hypergraph/csr.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"
#include "util/cancel.hpp"

namespace marioh::core {

/// Statistics reported by a Filtering run.
struct FilteringStats {
  /// Number of distinct edges identified as guaranteed size-2 hyperedges.
  size_t edges_identified = 0;
  /// Total multiplicity of extracted size-2 hyperedges (sum of r_uv).
  size_t total_multiplicity = 0;
  /// Sorted, duplicate-free endpoints of the extracted edges — exactly
  /// the adjacency rows of `g` the subtraction pass changed. Together
  /// with `pre_snapshot` (below) this lets the reconstruction loop patch
  /// its first iteration snapshot instead of rebuilding it.
  std::vector<NodeId> touched_nodes;
};

/// Runs Algorithm 2 on `g` in place: for every edge (u,v), computes
/// `MHH(u,v)` (Eq. (1)) on the input graph and the residual
/// `r_uv = w(u,v) - MHH(u,v)`. If `r_uv > 0`, adds `{u,v}` to `h` with
/// multiplicity `r_uv` and subtracts `r_uv` from w(u,v), deleting the edge
/// when the weight reaches zero. By Lemmas 1-2 every extracted hyperedge is
/// guaranteed to be in the original hypergraph.
///
/// The MHH pass is read-only, so it runs over a CSR snapshot of `g` with
/// `num_threads` threads (0 = all cores); extractions are applied
/// sequentially in sorted edge order afterwards, so the result is
/// identical for any thread count. If `pre_snapshot` is non-null it
/// receives that internal snapshot (of `g` *before* the subtraction
/// pass, its MHH column filled by the pass), so the caller can reuse it —
/// patched with `FilteringStats::touched_nodes`, which keeps every MHH
/// entry between two untouched nodes — instead of paying a second build.
///
/// A tripped `cancel` token (null = non-cancellable) stops the MHH pass
/// within one node's row and skips the subtraction pass entirely, so a
/// cancelled call leaves `*g`/`*h` partially filtered at worst by the
/// already-applied extractions of *no* pass (the subtraction is
/// all-or-nothing); the caller discards the run either way.
FilteringStats Filtering(ProjectedGraph* g, Hypergraph* h,
                         int num_threads = 1,
                         CsrGraph* pre_snapshot = nullptr,
                         const util::CancelToken* cancel = nullptr);

}  // namespace marioh::core
