#include "baselines/cfinder.hpp"

#include "api/registry.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "hypergraph/clique.hpp"
#include "util/hash.hpp"

namespace marioh::baselines {
namespace {

/// All k-cliques of g, derived by expanding each maximal clique's
/// k-subsets (bounded: maximal cliques much larger than k are truncated to
/// their first combinations to keep the enumeration polynomial).
std::vector<NodeSet> KCliques(const ProjectedGraph& g, size_t k,
                              size_t max_per_maximal = 2000) {
  std::unordered_set<NodeSet, util::VectorHash> found;
  // Maximal cliques stay in the enumeration arena; only the k-subsets
  // materialize owning sets.
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(g);
  for (CliqueView q : enumerated.cliques) {
    if (q.size() < k) continue;
    // Enumerate k-subsets of q with a bounded combination walk.
    std::vector<size_t> idx(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    size_t emitted = 0;
    while (emitted < max_per_maximal) {
      NodeSet sub(k);
      for (size_t i = 0; i < k; ++i) sub[i] = q[idx[i]];
      found.insert(sub);
      ++emitted;
      // Next combination.
      size_t i = k;
      while (i > 0) {
        --i;
        if (idx[i] != i + q.size() - k) break;
        if (i == 0) {
          i = k;  // done flag
          break;
        }
      }
      if (i == k) break;
      ++idx[i];
      for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
  }
  std::vector<NodeSet> out(found.begin(), found.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void CFinder::Train(const ProjectedGraph& g_source,
                    const Hypergraph& h_source) {
  (void)g_source;
  // Pick k from the source hyperedge sizes: the paper selects the best k in
  // the [0.1, 0.5] size-quantile range; we use the 0.3 quantile as the
  // representative choice (>= 3 so percolation is meaningful).
  std::vector<size_t> sizes;
  for (const auto& [e, m] : h_source.edges()) {
    for (uint32_t i = 0; i < m; ++i) sizes.push_back(e.size());
  }
  if (sizes.empty()) return;
  std::sort(sizes.begin(), sizes.end());
  size_t q = sizes[static_cast<size_t>(0.3 * static_cast<double>(
                                                 sizes.size() - 1))];
  k_ = std::max<size_t>(3, q);
}

api::Reconstruction CFinder::Reconstruct(const ProjectedGraph& g_target) const {
  Hypergraph h(g_target.num_nodes());
  std::vector<NodeSet> cliques = KCliques(g_target, k_);
  if (cliques.empty()) return {std::move(h)};

  // Union-find over k-cliques; two cliques join when sharing k-1 nodes.
  // Index cliques by their (k-1)-subsets: cliques sharing a subset are
  // adjacent.
  std::vector<size_t> parent(cliques.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[b] = a;
  };

  std::unordered_map<NodeSet, size_t, util::VectorHash> subset_owner;
  for (size_t i = 0; i < cliques.size(); ++i) {
    const NodeSet& q = cliques[i];
    for (size_t drop = 0; drop < q.size(); ++drop) {
      NodeSet sub;
      sub.reserve(q.size() - 1);
      for (size_t j = 0; j < q.size(); ++j) {
        if (j != drop) sub.push_back(q[j]);
      }
      auto [it, inserted] = subset_owner.try_emplace(sub, i);
      if (!inserted) unite(i, it->second);
    }
  }

  std::unordered_map<size_t, NodeSet> communities;
  for (size_t i = 0; i < cliques.size(); ++i) {
    NodeSet& c = communities[find(i)];
    c.insert(c.end(), cliques[i].begin(), cliques[i].end());
  }
  for (auto& [root, nodes] : communities) {
    (void)root;
    Canonicalize(&nodes);
    h.AddEdge(nodes, 1);
  }
  return {std::move(h)};
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeCFinder(
    const api::MethodConfig& config) {
  size_t k = 3;
  api::OverrideReader reader(config);
  reader.Get("k", &k);
  MARIOH_RETURN_IF_ERROR(reader.Finish());
  std::unique_ptr<api::Reconstructor> method = std::make_unique<CFinder>(k);
  return method;
}

}  // namespace marioh::baselines
