#include "core/filtering.hpp"

#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace marioh::core {

FilteringStats Filtering(ProjectedGraph* g, Hypergraph* h, int num_threads,
                         CsrGraph* pre_snapshot,
                         const util::CancelToken* cancel) {
  FilteringStats stats;
  // MHH is defined on the input graph, so compute every residual before
  // mutating any weight (Algorithm 2 reads w from G, not G'). The
  // residual pass only reads, so it runs on a frozen CSR snapshot: one
  // slot per node, each holding that node's u < v extractions in
  // ascending v order, concatenated afterwards into sorted edge order.
  // Every u < v MHH lands in the snapshot's MHH column on the way, so the
  // snapshot handed back through `pre_snapshot` starts fully memoized.
  struct Extraction {
    NodeId u;
    NodeId v;
    uint32_t count;
  };
  CsrGraph csr(*g, num_threads);
  const size_t n = csr.num_nodes();
  std::vector<std::vector<Extraction>> slots(n);
  util::ParallelFor(n, num_threads, cancel, [&](size_t u) {
    auto neighbors = csr.Neighbors(u);
    auto weights = csr.Weights(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      NodeId v = neighbors[i];
      if (v <= u) continue;  // each undirected edge once, as (min, max)
      uint64_t mhh = csr.MhhAt(static_cast<NodeId>(u), i);
      if (weights[i] > mhh) {
        slots[u].push_back(
            {static_cast<NodeId>(u), v,
             static_cast<uint32_t>(weights[i] - mhh)});
      }
    }
  });
  if (util::ShouldStop(cancel)) {
    // The slots are partial, so applying them would extract a
    // timing-dependent subset; skip the subtraction pass entirely and
    // hand back the (still exact) pre-subtraction snapshot.
    if (pre_snapshot != nullptr) *pre_snapshot = std::move(csr);
    return stats;
  }
  for (const std::vector<Extraction>& slot : slots) {
    for (const Extraction& ex : slot) {
      h->AddEdge(NodeSet{ex.u, ex.v}, ex.count);
      g->SubtractWeight(ex.u, ex.v, ex.count);
      stats.touched_nodes.push_back(ex.u);
      stats.touched_nodes.push_back(ex.v);
      ++stats.edges_identified;
      stats.total_multiplicity += ex.count;
    }
  }
  Canonicalize(&stats.touched_nodes);
  // Hand the pre-subtraction snapshot to the caller for patch-based
  // reuse rather than throwing the build away.
  if (pre_snapshot != nullptr) *pre_snapshot = std::move(csr);
  return stats;
}

}  // namespace marioh::core
