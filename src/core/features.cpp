#include "core/features.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/motif.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace marioh::core {
namespace {

/// The neighborhood-density pass below consumes at most this many nodes
/// in total, so neighbor lists never need more than the 64 smallest ids.
constexpr size_t kHoodCap = 64;

/// The `kHoodCap` smallest neighbor ids of u in ascending order. The CSR
/// overload is a sorted-prefix view; the hash-map overload collects into
/// `scratch` and partial-sorts (O(d log 64), not O(d log d), on hubs).
/// Routing both representations through the same ascending order is what
/// makes capped neighborhood statistics identical across the two paths.
std::span<const NodeId> SortedNeighborIds(const CsrGraph& g, NodeId u,
                                          std::vector<NodeId>* scratch) {
  (void)scratch;
  auto nbrs = g.Neighbors(u);
  return nbrs.subspan(0, std::min(nbrs.size(), kHoodCap));
}

std::span<const NodeId> SortedNeighborIds(const ProjectedGraph& g, NodeId u,
                                          std::vector<NodeId>* scratch) {
  scratch->clear();
  for (const auto& [v, w] : g.Neighbors(u)) {
    (void)w;
    scratch->push_back(v);
  }
  size_t keep = std::min(scratch->size(), kHoodCap);
  std::partial_sort(scratch->begin(), scratch->begin() + keep,
                    scratch->end());
  return {scratch->data(), keep};
}

/// Calls `fn(v, w(u,v))` for every neighbor v of u, in the graph's own
/// row order — the per-row accessor that lets one pair kernel serve both
/// representations. Callers only form order-independent integer sums.
template <typename Fn>
void ForEachNeighbor(const CsrGraph& g, NodeId u, Fn&& fn) {
  auto nbrs = g.Neighbors(u);
  auto weights = g.Weights(u);
  for (size_t t = 0; t < nbrs.size(); ++t) fn(nbrs[t], weights[t]);
}

template <typename Fn>
void ForEachNeighbor(const ProjectedGraph& g, NodeId u, Fn&& fn) {
  for (const auto& [v, w] : g.Neighbors(u)) fn(v, w);
}

size_t FeatureDim(FeatureMode mode) {
  switch (mode) {
    case FeatureMode::kMultiplicityAware:
      // 5 (weighted degree) + 3 * 5 (edge features) + 3 (clique-level).
      return 23;
    case FeatureMode::kStructural:
      // 5 (degree) + 5 (common neighbors) + 3 (density, size, maximal).
      return 13;
    case FeatureMode::kMotif:
      // Structural 13 + 5 (clustering coeff) + 5 (square counts).
      return 23;
  }
  MARIOH_CHECK(false);
  return 0;
}

template <typename Graph>
la::Vector ExtractMultiplicityAware(const Graph& g, CliqueView clique,
                                    bool is_maximal,
                                    FeatureScratch* scratch) {
  const size_t k = clique.size();

  // Node-level: weighted degree of each clique member.
  std::vector<double> wdeg;
  wdeg.reserve(k);
  for (NodeId u : clique) {
    wdeg.push_back(static_cast<double>(g.WeightedDegree(u)));
  }

  // Edge-level: multiplicity, MHH, MHH / multiplicity per clique edge,
  // in (i, j) pair order. Row i's weights are scattered into the zeroed
  // node-indexed buffer once; then w(i, j) = row[q_j], and MHH(i, j)
  // (Eq. (1)) is the sum of min(w_jz, row[z]) over row j — row[q_i] = 0
  // and q_j is not its own neighbor, so exactly the common neighbors
  // count. Integer sums, so the values are exact in any row order.
  std::vector<uint32_t>& row = scratch->row_weights;
  if (row.size() < g.num_nodes()) row.resize(g.num_nodes(), 0);
  std::vector<double> mult, mhh, mhh_ratio;
  mult.reserve(k * (k - 1) / 2);
  mhh.reserve(mult.capacity());
  mhh_ratio.reserve(mult.capacity());
  double internal_weight = 0.0;
  for (size_t i = 0; i + 1 < k; ++i) {
    ForEachNeighbor(g, clique[i], [&row](NodeId z, uint32_t w) {
      row[z] = w;
    });
    for (size_t j = i + 1; j < k; ++j) {
      uint64_t common = 0;
      ForEachNeighbor(g, clique[j], [&row, &common](NodeId z, uint32_t w) {
        common += std::min(w, row[z]);
      });
      double w = static_cast<double>(row[clique[j]]);
      double m = static_cast<double>(common);
      mult.push_back(w);
      mhh.push_back(m);
      mhh_ratio.push_back(w > 0 ? m / w : 0.0);
      internal_weight += w;
    }
    ForEachNeighbor(g, clique[i], [&row](NodeId z, uint32_t) { row[z] = 0; });
  }

  // Clique-level: size, cut ratio, maximality.
  double boundary = 0.0;
  for (double d : wdeg) boundary += d;
  boundary -= 2.0 * internal_weight;  // each internal edge counted twice
  double cut_ratio = (internal_weight + boundary) > 0
                         ? internal_weight / (internal_weight + boundary)
                         : 0.0;

  la::Vector out;
  out.reserve(FeatureDim(FeatureMode::kMultiplicityAware));
  auto append = [&out](const std::vector<double>& agg) {
    out.insert(out.end(), agg.begin(), agg.end());
  };
  append(util::Aggregate5(wdeg));
  append(util::Aggregate5(mult));
  append(util::Aggregate5(mhh));
  append(util::Aggregate5(mhh_ratio));
  out.push_back(static_cast<double>(k));
  out.push_back(cut_ratio);
  out.push_back(is_maximal ? 1.0 : 0.0);
  MARIOH_CHECK_EQ(out.size(), FeatureDim(FeatureMode::kMultiplicityAware));
  return out;
}

template <typename Graph>
la::Vector ExtractStructural(const Graph& g, CliqueView clique,
                             bool is_maximal) {
  const size_t k = clique.size();

  // Node-level: unweighted degree.
  std::vector<double> deg;
  deg.reserve(k);
  for (NodeId u : clique) deg.push_back(static_cast<double>(g.Degree(u)));

  // Edge-level: common-neighbor count of each edge's endpoints.
  std::vector<double> common;
  common.reserve(k * (k - 1) / 2);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      common.push_back(static_cast<double>(
          g.CommonNeighborCount(clique[i], clique[j])));
    }
  }

  // Neighborhood edge density: fraction of pairs among the union of the
  // clique's neighbors (capped for cost, in ascending-id order) that are
  // connected.
  NodeSet hood(clique.begin(), clique.end());
  std::vector<NodeId> scratch;
  for (NodeId u : clique) {
    for (NodeId v : SortedNeighborIds(g, u, &scratch)) {
      hood.push_back(v);
      if (hood.size() >= kHoodCap) break;
    }
    if (hood.size() >= kHoodCap) break;
  }
  Canonicalize(&hood);
  double density = 0.0;
  if (hood.size() >= 2) {
    size_t present = 0;
    size_t pairs = 0;
    for (size_t i = 0; i < hood.size(); ++i) {
      for (size_t j = i + 1; j < hood.size(); ++j) {
        ++pairs;
        if (g.HasEdge(hood[i], hood[j])) ++present;
      }
    }
    density = static_cast<double>(present) / static_cast<double>(pairs);
  }

  la::Vector out;
  out.reserve(FeatureDim(FeatureMode::kStructural));
  auto append = [&out](const std::vector<double>& agg) {
    out.insert(out.end(), agg.begin(), agg.end());
  };
  append(util::Aggregate5(deg));
  append(util::Aggregate5(common));
  out.push_back(density);
  out.push_back(static_cast<double>(k));
  out.push_back(is_maximal ? 1.0 : 0.0);
  // 13 structural dims; kMotif extends this vector afterwards.
  MARIOH_CHECK_EQ(out.size(), 13u);
  return out;
}

template <typename Graph>
la::Vector ExtractMotif(const Graph& g, CliqueView clique,
                        bool is_maximal) {
  // Structural features first (13 dims, computed identically to
  // kStructural), then motif statistics.
  la::Vector out = ExtractStructural(g, clique, is_maximal);

  std::vector<double> clustering;
  clustering.reserve(clique.size());
  for (NodeId u : clique) {
    clustering.push_back(ClusteringCoefficient(g, u));
  }
  std::vector<double> squares;
  squares.reserve(clique.size() * (clique.size() - 1) / 2);
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      squares.push_back(static_cast<double>(
          SquaresThroughEdge(g, clique[i], clique[j])));
    }
  }
  auto append = [&out](const std::vector<double>& agg) {
    out.insert(out.end(), agg.begin(), agg.end());
  };
  append(util::Aggregate5(clustering));
  append(util::Aggregate5(squares));
  MARIOH_CHECK_EQ(out.size(), FeatureDim(FeatureMode::kMotif));
  return out;
}

template <typename Graph>
la::Vector ExtractImpl(FeatureMode mode, const Graph& g, CliqueView clique,
                       bool is_maximal, FeatureScratch* scratch) {
  MARIOH_CHECK_GE(clique.size(), 2u);
  switch (mode) {
    case FeatureMode::kMultiplicityAware: {
      FeatureScratch own;  // empty, so free, unless `scratch` is null
      return ExtractMultiplicityAware(g, clique, is_maximal,
                                      scratch != nullptr ? scratch : &own);
    }
    case FeatureMode::kStructural:
      return ExtractStructural(g, clique, is_maximal);
    case FeatureMode::kMotif:
      return ExtractMotif(g, clique, is_maximal);
  }
  MARIOH_CHECK(false);
  return {};
}

}  // namespace

size_t FeatureExtractor::dim() const { return FeatureDim(mode_); }

la::Vector FeatureExtractor::Extract(const ProjectedGraph& g,
                                     CliqueView clique, bool is_maximal,
                                     FeatureScratch* scratch) const {
  return ExtractImpl(mode_, g, clique, is_maximal, scratch);
}

la::Vector FeatureExtractor::Extract(const CsrGraph& g, CliqueView clique,
                                     bool is_maximal,
                                     FeatureScratch* scratch) const {
  return ExtractImpl(mode_, g, clique, is_maximal, scratch);
}

}  // namespace marioh::core
