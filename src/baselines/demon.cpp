#include "baselines/demon.hpp"

#include "api/registry.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {
namespace {

/// Label propagation on the subgraph of `g` induced by `nodes`; returns the
/// communities (node sets) found.
std::vector<NodeSet> LabelPropagation(const ProjectedGraph& g,
                                      const std::vector<NodeId>& nodes,
                                      util::Rng* rng, int max_rounds = 20) {
  std::unordered_map<NodeId, NodeId> label;
  std::unordered_set<NodeId> members(nodes.begin(), nodes.end());
  for (NodeId u : nodes) label[u] = u;

  std::vector<NodeId> order = nodes;
  for (int round = 0; round < max_rounds; ++round) {
    rng->Shuffle(&order);
    bool changed = false;
    for (NodeId u : order) {
      // Most frequent label among in-subgraph neighbors, weight-weighted.
      std::unordered_map<NodeId, uint64_t> freq;
      for (const auto& [v, w] : g.Neighbors(u)) {
        if (members.count(v) > 0) freq[label[v]] += w;
      }
      if (freq.empty()) continue;
      NodeId best_label = label[u];
      uint64_t best_count = 0;
      for (const auto& [l, c] : freq) {
        if (c > best_count || (c == best_count && l < best_label)) {
          best_label = l;
          best_count = c;
        }
      }
      if (best_label != label[u]) {
        label[u] = best_label;
        changed = true;
      }
    }
    if (!changed) break;
  }

  std::unordered_map<NodeId, NodeSet> groups;
  for (NodeId u : nodes) groups[label[u]].push_back(u);
  std::vector<NodeSet> out;
  out.reserve(groups.size());
  for (auto& [l, group] : groups) {
    (void)l;
    Canonicalize(&group);
    out.push_back(std::move(group));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Fraction of `a`'s nodes contained in `b` (both canonical).
double Containment(const NodeSet& a, const NodeSet& b) {
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return a.empty() ? 0.0
                   : static_cast<double>(inter) /
                         static_cast<double>(a.size());
}

}  // namespace

api::Reconstruction Demon::Reconstruct(const ProjectedGraph& g_target) const {
  util::Rng rng(seed_);
  std::vector<NodeSet> communities;
  std::unordered_set<NodeSet, util::VectorHash> seen;

  for (NodeId ego = 0; ego < g_target.num_nodes(); ++ego) {
    if (g_target.Degree(ego) == 0) continue;
    auto ids = NeighborIds(g_target, ego);
    std::vector<NodeId> ego_net(ids.begin(), ids.end());  // ascending
    for (NodeSet community : LabelPropagation(g_target, ego_net, &rng)) {
      community.push_back(ego);
      Canonicalize(&community);
      if (community.size() < min_size_) continue;
      if (seen.insert(community).second) {
        communities.push_back(std::move(community));
      }
    }
  }

  // Merge pass: drop a community fully (>= epsilon) contained in another.
  std::sort(communities.begin(), communities.end(),
            [](const NodeSet& a, const NodeSet& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  std::vector<bool> absorbed(communities.size(), false);
  for (size_t i = 0; i < communities.size(); ++i) {
    for (size_t j = i + 1; j < communities.size(); ++j) {
      if (absorbed[i]) break;
      if (absorbed[j]) continue;
      if (Containment(communities[i], communities[j]) >= epsilon_) {
        absorbed[i] = true;
      }
    }
  }

  Hypergraph h(g_target.num_nodes());
  for (size_t i = 0; i < communities.size(); ++i) {
    if (!absorbed[i]) h.AddEdge(communities[i], 1);
  }
  return {std::move(h)};
}

api::StatusOr<std::unique_ptr<api::Reconstructor>> MakeDemon(
    const api::MethodConfig& config) {
  double epsilon = 1.0;
  size_t min_size = 2;
  api::OverrideReader reader(config);
  reader.Get("epsilon", &epsilon);
  reader.Get("min_size", &min_size);
  MARIOH_RETURN_IF_ERROR(reader.Finish());
  std::unique_ptr<api::Reconstructor> method =
      std::make_unique<Demon>(epsilon, min_size, config.seed);
  return method;
}

}  // namespace marioh::baselines
