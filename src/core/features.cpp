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

/// Scatters row u into `s->row_weights` (w(u, z) at index z) and, on a
/// CSR snapshot, each neighbor's position in the row into `s->row_slots`.
void ScatterRow(const ProjectedGraph& g, NodeId u, FeatureScratch* s) {
  for (const auto& [z, w] : g.Neighbors(u)) s->row_weights[z] = w;
}

void ScatterRow(const CsrGraph& g, NodeId u, FeatureScratch* s) {
  auto nbrs = g.Neighbors(u);
  auto weights = g.Weights(u);
  for (size_t t = 0; t < nbrs.size(); ++t) {
    s->row_weights[nbrs[t]] = weights[t];
    s->row_slots[nbrs[t]] = static_cast<uint32_t>(t);
  }
}

/// MHH(u, v) (Eq. (1)) given u's row scattered into `row`: the sum of
/// min(w_vz, row[z]) over row v. row[u] = 0 and v is not its own
/// neighbor, so exactly the common neighbors count. An integer sum, so
/// the value is exact in any row order.
template <typename Graph>
uint64_t ScanMhh(const Graph& g, NodeId v, const std::vector<uint32_t>& row) {
  uint64_t common = 0;
  ForEachNeighbor(g, v, [&row, &common](NodeId z, uint32_t w) {
    common += std::min(w, row[z]);
  });
  return common;
}

/// MHH(u, v) with u's row scattered into `s`. The hash-map graph scans;
/// a CSR snapshot reads the pair's MHH column entry, found in O(1)
/// through the scattered slots, and scans and stores it on a miss. A
/// non-edge (a Phase-2 sub-clique pair Phase 1 peeled away) has no
/// entry and is always scanned.
uint64_t PairMhh(const ProjectedGraph& g, NodeId, NodeId v,
                 const FeatureScratch& s) {
  return ScanMhh(g, v, s.row_weights);
}

uint64_t PairMhh(const CsrGraph& g, NodeId u, NodeId v,
                 const FeatureScratch& s) {
  if (s.row_weights[v] == 0) return ScanMhh(g, v, s.row_weights);
  const size_t t = s.row_slots[v];
  const uint32_t known = g.KnownMhh(u, t);
  if (known != CsrGraph::kMhhUnknown) return known;
  const uint64_t mhh = ScanMhh(g, v, s.row_weights);
  g.StoreMhh(u, t, mhh);
  return mhh;
}

template <typename Graph>
void ExtractMultiplicityAware(const Graph& g, CliqueView clique,
                              bool is_maximal, FeatureScratch* s,
                              double* out) {
  const size_t k = clique.size();

  // Node-level: weighted degree of each clique member.
  std::vector<double>& wdeg = s->node_values;
  wdeg.clear();
  for (NodeId u : clique) {
    wdeg.push_back(static_cast<double>(g.WeightedDegree(u)));
  }

  // Edge-level: multiplicity, MHH, MHH / multiplicity per clique edge,
  // in (i, j) pair order. Row i is scattered into the zeroed node-indexed
  // buffer once; then w(i, j) = row[q_j] and MHH(i, j) comes from
  // PairMhh.
  if (s->row_weights.size() < g.num_nodes()) {
    s->row_weights.resize(g.num_nodes(), 0);
    s->row_slots.resize(g.num_nodes(), 0);
  }
  std::vector<double>& mult = s->pair_values[0];
  std::vector<double>& mhh = s->pair_values[1];
  std::vector<double>& mhh_ratio = s->pair_values[2];
  mult.clear();
  mhh.clear();
  mhh_ratio.clear();
  double internal_weight = 0.0;
  for (size_t i = 0; i + 1 < k; ++i) {
    ScatterRow(g, clique[i], s);
    for (size_t j = i + 1; j < k; ++j) {
      double w = static_cast<double>(s->row_weights[clique[j]]);
      double m = static_cast<double>(PairMhh(g, clique[i], clique[j], *s));
      mult.push_back(w);
      mhh.push_back(m);
      mhh_ratio.push_back(w > 0 ? m / w : 0.0);
      internal_weight += w;
    }
    ForEachNeighbor(g, clique[i],
                    [s](NodeId z, uint32_t) { s->row_weights[z] = 0; });
  }

  // Clique-level: size, cut ratio, maximality.
  double boundary = 0.0;
  for (double d : wdeg) boundary += d;
  boundary -= 2.0 * internal_weight;  // each internal edge counted twice
  double cut_ratio = (internal_weight + boundary) > 0
                         ? internal_weight / (internal_weight + boundary)
                         : 0.0;

  util::Aggregate5Into(wdeg, out);
  util::Aggregate5Into(mult, out + 5);
  util::Aggregate5Into(mhh, out + 10);
  util::Aggregate5Into(mhh_ratio, out + 15);
  out[20] = static_cast<double>(k);
  out[21] = cut_ratio;
  out[22] = is_maximal ? 1.0 : 0.0;
}

/// The 13 structural dims into out[0..13); kMotif extends them.
template <typename Graph>
void ExtractStructural(const Graph& g, CliqueView clique, bool is_maximal,
                       FeatureScratch* s, double* out) {
  const size_t k = clique.size();

  // Node-level: unweighted degree.
  std::vector<double>& deg = s->node_values;
  deg.clear();
  for (NodeId u : clique) deg.push_back(static_cast<double>(g.Degree(u)));

  // Edge-level: common-neighbor count of each edge's endpoints.
  std::vector<double>& common = s->pair_values[0];
  common.clear();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      common.push_back(static_cast<double>(
          g.CommonNeighborCount(clique[i], clique[j])));
    }
  }

  // Neighborhood edge density: fraction of pairs among the union of the
  // clique's neighbors (capped for cost, in ascending-id order) that are
  // connected.
  NodeSet& hood = s->hood;
  hood.assign(clique.begin(), clique.end());
  for (NodeId u : clique) {
    for (NodeId v : SortedNeighborIds(g, u, &s->neighbor_ids)) {
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

  util::Aggregate5Into(deg, out);
  util::Aggregate5Into(common, out + 5);
  out[10] = density;
  out[11] = static_cast<double>(k);
  out[12] = is_maximal ? 1.0 : 0.0;
}

template <typename Graph>
void ExtractMotif(const Graph& g, CliqueView clique, bool is_maximal,
                  FeatureScratch* s, double* out) {
  // Structural features first (13 dims, computed identically to
  // kStructural), then motif statistics.
  ExtractStructural(g, clique, is_maximal, s, out);

  std::vector<double>& clustering = s->node_values;
  clustering.clear();
  for (NodeId u : clique) {
    clustering.push_back(ClusteringCoefficient(g, u));
  }
  std::vector<double>& squares = s->pair_values[0];
  squares.clear();
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      squares.push_back(static_cast<double>(
          SquaresThroughEdge(g, clique[i], clique[j])));
    }
  }
  util::Aggregate5Into(clustering, out + 13);
  util::Aggregate5Into(squares, out + 18);
}

template <typename Graph>
void ExtractImpl(FeatureMode mode, const Graph& g, CliqueView clique,
                 bool is_maximal, FeatureScratch* scratch,
                 std::span<double> out) {
  MARIOH_CHECK_GE(clique.size(), 2u);
  MARIOH_CHECK_EQ(out.size(), FeatureDim(mode));
  MARIOH_CHECK(scratch != nullptr);
  switch (mode) {
    case FeatureMode::kMultiplicityAware:
      return ExtractMultiplicityAware(g, clique, is_maximal, scratch,
                                      out.data());
    case FeatureMode::kStructural:
      return ExtractStructural(g, clique, is_maximal, scratch, out.data());
    case FeatureMode::kMotif:
      return ExtractMotif(g, clique, is_maximal, scratch, out.data());
  }
  MARIOH_CHECK(false);
}

template <typename Graph>
la::Vector ExtractVector(FeatureMode mode, const Graph& g, CliqueView clique,
                         bool is_maximal, FeatureScratch* scratch) {
  la::Vector out(FeatureDim(mode));
  FeatureScratch own;  // empty, so free, unless `scratch` is null
  ExtractImpl(mode, g, clique, is_maximal,
              scratch != nullptr ? scratch : &own, out);
  return out;
}

}  // namespace

size_t FeatureExtractor::dim() const { return FeatureDim(mode_); }

la::Vector FeatureExtractor::Extract(const ProjectedGraph& g,
                                     CliqueView clique, bool is_maximal,
                                     FeatureScratch* scratch) const {
  return ExtractVector(mode_, g, clique, is_maximal, scratch);
}

la::Vector FeatureExtractor::Extract(const CsrGraph& g, CliqueView clique,
                                     bool is_maximal,
                                     FeatureScratch* scratch) const {
  return ExtractVector(mode_, g, clique, is_maximal, scratch);
}

void FeatureExtractor::ExtractInto(const ProjectedGraph& g,
                                   CliqueView clique, bool is_maximal,
                                   FeatureScratch* scratch,
                                   std::span<double> out) const {
  ExtractImpl(mode_, g, clique, is_maximal, scratch, out);
}

void FeatureExtractor::ExtractInto(const CsrGraph& g, CliqueView clique,
                                   bool is_maximal, FeatureScratch* scratch,
                                   std::span<double> out) const {
  ExtractImpl(mode_, g, clique, is_maximal, scratch, out);
}

}  // namespace marioh::core
