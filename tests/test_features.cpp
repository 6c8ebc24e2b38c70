// Unit tests for the clique feature extraction (Sect. III-D): dimensions,
// specific feature values on hand-computed graphs, both feature modes, and
// the row-scatter pair kernel against a per-pair Weight/Mhh reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace marioh::core {
namespace {

/// Triangle 0-1-2 with weights w(0,1)=2, w(0,2)=1, w(1,2)=3, plus a
/// pendant edge 2-3 with weight 4.
ProjectedGraph FixtureGraph() {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 2);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 3);
  g.AddWeight(2, 3, 4);
  return g;
}

TEST(FeatureExtractor, MultiplicityAwareDimension) {
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  EXPECT_EQ(fx.dim(), 23u);
  ProjectedGraph g = FixtureGraph();
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  EXPECT_EQ(f.size(), 23u);
}

TEST(FeatureExtractor, StructuralDimension) {
  FeatureExtractor fx(FeatureMode::kStructural);
  EXPECT_EQ(fx.dim(), 13u);
  ProjectedGraph g = FixtureGraph();
  la::Vector f = fx.Extract(g, NodeSet{0, 1}, false);
  EXPECT_EQ(f.size(), 13u);
}

TEST(FeatureExtractor, WeightedDegreeAggregation) {
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // Weighted degrees: node0 = 2+1 = 3, node1 = 2+3 = 5, node2 = 1+3+4 = 8.
  EXPECT_DOUBLE_EQ(f[0], 16.0);           // sum
  EXPECT_DOUBLE_EQ(f[1], 16.0 / 3.0);     // mean
  EXPECT_DOUBLE_EQ(f[2], 3.0);            // min
  EXPECT_DOUBLE_EQ(f[3], 8.0);            // max
}

TEST(FeatureExtractor, EdgeMultiplicityAggregation) {
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // Edge multiplicities within the clique: 2, 1, 3.
  EXPECT_DOUBLE_EQ(f[5], 6.0);   // sum
  EXPECT_DOUBLE_EQ(f[6], 2.0);   // mean
  EXPECT_DOUBLE_EQ(f[7], 1.0);   // min
  EXPECT_DOUBLE_EQ(f[8], 3.0);   // max
}

TEST(FeatureExtractor, MhhFeatures) {
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // MHH within the triangle: MHH(0,1) = min(w(0,2), w(1,2)) = min(1,3) = 1;
  // MHH(0,2) = min(w(0,1), w(2,1)) = min(2,3) = 2;
  // MHH(1,2) = min(w(1,0), w(2,0)) = min(2,1) = 1.
  // Slots 10..14 aggregate {1, 2, 1}.
  EXPECT_DOUBLE_EQ(f[10], 4.0);          // sum
  EXPECT_DOUBLE_EQ(f[12], 1.0);          // min
  EXPECT_DOUBLE_EQ(f[13], 2.0);          // max
  // MHH ratios: 1/2, 2/1, 1/3 -> slot 15 sum.
  EXPECT_NEAR(f[15], 0.5 + 2.0 + 1.0 / 3.0, 1e-12);
}

TEST(FeatureExtractor, CliqueLevelFeatures) {
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  EXPECT_DOUBLE_EQ(f[20], 3.0);  // clique size
  // Cut ratio: internal weight 6, boundary = wdeg sum 16 - 2*6 = 4
  // -> 6 / (6 + 4) = 0.6.
  EXPECT_DOUBLE_EQ(f[21], 0.6);
  EXPECT_DOUBLE_EQ(f[22], 1.0);  // maximal flag
  la::Vector f2 = fx.Extract(g, NodeSet{0, 1, 2}, false);
  EXPECT_DOUBLE_EQ(f2[22], 0.0);
}

TEST(FeatureExtractor, Size2CliqueHasOneEdge) {
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{2, 3}, true);
  // Only edge (2,3) with weight 4; min == max == mean == 4.
  EXPECT_DOUBLE_EQ(f[6], 4.0);
  EXPECT_DOUBLE_EQ(f[7], 4.0);
  EXPECT_DOUBLE_EQ(f[8], 4.0);
  EXPECT_DOUBLE_EQ(f[9], 0.0);  // std of single value
  EXPECT_DOUBLE_EQ(f[20], 2.0);
}

TEST(FeatureExtractor, StructuralUsesUnweightedDegrees) {
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kStructural);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  // Unweighted degrees: 2, 2, 3 -> sum 7.
  EXPECT_DOUBLE_EQ(f[0], 7.0);
  EXPECT_DOUBLE_EQ(f[2], 2.0);  // min
  EXPECT_DOUBLE_EQ(f[3], 3.0);  // max
}

TEST(FeatureExtractor, FeaturesChangeWhenGraphShrinks) {
  // Features must be recomputed against the residual graph: peeling an
  // overlapping clique changes the features of the remaining one.
  ProjectedGraph g = FixtureGraph();
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector before = fx.Extract(g, NodeSet{0, 1, 2}, true);
  g.PeelClique(NodeSet{1, 2});  // decrement w(1,2)
  la::Vector after = fx.Extract(g, NodeSet{0, 1, 2}, true);
  EXPECT_NE(before[5], after[5]);  // edge multiplicity sum changed
}

TEST(FeatureExtractor, IsolatedCliqueCutRatioIsOne) {
  ProjectedGraph g(3);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  la::Vector f = fx.Extract(g, NodeSet{0, 1, 2}, true);
  EXPECT_DOUBLE_EQ(f[21], 1.0);  // all weight internal
}

/// The multiplicity-aware features computed pair by pair with the
/// graph's own `Weight` and `Mhh`, in the extractor's slot order.
template <typename Graph>
la::Vector PerPairReference(const Graph& g, const NodeSet& q,
                            bool is_maximal) {
  std::vector<double> wdeg, mult, mhh, ratio;
  double internal = 0.0;
  for (NodeId u : q) wdeg.push_back(static_cast<double>(g.WeightedDegree(u)));
  for (size_t i = 0; i < q.size(); ++i) {
    for (size_t j = i + 1; j < q.size(); ++j) {
      double w = static_cast<double>(g.Weight(q[i], q[j]));
      double m = static_cast<double>(g.Mhh(q[i], q[j]));
      mult.push_back(w);
      mhh.push_back(m);
      ratio.push_back(w > 0 ? m / w : 0.0);
      internal += w;
    }
  }
  double boundary = -2.0 * internal;
  for (double d : wdeg) boundary += d;
  la::Vector out;
  for (const auto* values : {&wdeg, &mult, &mhh, &ratio}) {
    double agg[5];
    util::Aggregate5Into(*values, agg);
    out.insert(out.end(), agg, agg + 5);
  }
  out.push_back(static_cast<double>(q.size()));
  out.push_back(internal + boundary > 0 ? internal / (internal + boundary)
                                        : 0.0);
  out.push_back(is_maximal ? 1.0 : 0.0);
  return out;
}

/// Random weighted graph (weights 1..9) whose first three nodes are hubs
/// adjacent to about 80% of the others; the rest are sparse.
ProjectedGraph HubGraph(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  ProjectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(u < 3 ? 0.8 : 0.1)) {
        g.AddWeight(u, v, static_cast<uint32_t>(rng.UniformInt(1, 9)));
      }
    }
  }
  return g;
}

/// Random node sets of 2..14 nodes, half of them holding a hub. They need
/// not be cliques: Phase 2 scores sub-cliques whose edges Phase 1 may have
/// peeled away, so absent pairs must be exact too.
std::vector<NodeSet> RandomNodeSets(size_t n, size_t count, uint64_t seed) {
  util::Rng rng(seed);
  NodeSet all(n);
  for (NodeId u = 0; u < n; ++u) all[u] = u;
  std::vector<NodeSet> sets;
  for (size_t t = 0; t < count; ++t) {
    NodeSet q = rng.SampleWithoutReplacement(
        all, static_cast<size_t>(rng.UniformInt(2, 14)));
    if (t % 2 == 0 && std::find(q.begin(), q.end(), 0) == q.end()) q[0] = 0;
    Canonicalize(&q);
    sets.push_back(q);
  }
  return sets;
}

TEST(PairKernel, MatchesPerPairReferenceOnHubGraphs) {
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  for (uint64_t seed : {1, 2, 3}) {
    ProjectedGraph g = HubGraph(120, seed);
    CsrGraph csr(g);
    for (const NodeSet& q : RandomNodeSets(120, 200, seed + 10)) {
      la::Vector want = PerPairReference(g, q, false);
      EXPECT_EQ(fx.Extract(g, q, false), want);
      EXPECT_EQ(fx.Extract(csr, q, false), want);
      EXPECT_EQ(PerPairReference(csr, q, false), want);
    }
  }
}

TEST(PairKernel, OneScratchServesManyCliquesAndGraphs) {
  // A stale buffer entry left by one clique (or by a larger graph) would
  // leak into the next clique's weights and MHH values.
  FeatureExtractor fx(FeatureMode::kMultiplicityAware);
  ProjectedGraph big = HubGraph(120, 4);
  ProjectedGraph small = HubGraph(40, 5);
  CsrGraph big_csr(big);
  CsrGraph small_csr(small);
  std::vector<NodeSet> big_sets = RandomNodeSets(120, 100, 6);
  std::vector<NodeSet> small_sets = RandomNodeSets(40, 100, 7);
  FeatureScratch scratch;
  for (size_t t = 0; t < big_sets.size(); ++t) {
    const NodeSet& b = big_sets[t];
    const NodeSet& s = small_sets[t];
    EXPECT_EQ(fx.Extract(big, b, true, &scratch),
              PerPairReference(big, b, true));
    EXPECT_EQ(fx.Extract(small_csr, s, true, &scratch),
              PerPairReference(small, s, true));
    EXPECT_EQ(fx.Extract(big_csr, b, true, &scratch),
              PerPairReference(big, b, true));
    EXPECT_EQ(fx.Extract(small, s, true, &scratch),
              PerPairReference(small, s, true));
  }
  EXPECT_GE(scratch.row_weights.size(), 120u);
  EXPECT_TRUE(std::all_of(scratch.row_weights.begin(),
                          scratch.row_weights.end(),
                          [](uint32_t w) { return w == 0; }));
}

/// True if `a` and `b` hold the same doubles bit for bit.
bool BitEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ExtractInto, MatchesExtractBitwiseOnEveryGraphAndMode) {
  // The mutable graph, a cold CSR (column empty), a warm one (column
  // filled), and a snapshot patched after a peel that removed an edge
  // of every node set's first pair — the Phase-2 sub-clique case, whose
  // absent pair takes the non-edge path.
  ProjectedGraph g = HubGraph(120, 8);
  std::vector<NodeSet> sets = RandomNodeSets(120, 150, 9);
  CsrGraph warm(g);
  for (NodeId u = 0; u < warm.num_nodes(); ++u) {
    for (size_t t = 0; t < warm.Degree(u); ++t) warm.MhhAt(u, t);
  }
  ProjectedGraph peeled = g;
  std::vector<NodeId> touched;
  for (const NodeSet& q : sets) {
    while (peeled.Weight(q[0], q[1]) > 0) {
      peeled.PeelClique(NodeSet{q[0], q[1]});
      touched.insert(touched.end(), {q[0], q[1]});
    }
  }
  CsrGraph patched(warm, peeled, touched);
  for (FeatureMode mode : {FeatureMode::kMultiplicityAware,
                           FeatureMode::kStructural, FeatureMode::kMotif}) {
    FeatureExtractor fx(mode);
    FeatureScratch scratch;
    std::vector<double> row(fx.dim());
    for (const NodeSet& q : sets) {
      fx.ExtractInto(g, q, true, &scratch, row);
      EXPECT_TRUE(BitEqual(row, fx.Extract(g, q, true))) << "mutable graph";
      const CsrGraph cold(g);
      fx.ExtractInto(cold, q, true, &scratch, row);
      EXPECT_TRUE(BitEqual(row, fx.Extract(CsrGraph(g), q, true)))
          << "cold CSR";
      EXPECT_TRUE(BitEqual(row, fx.Extract(g, q, true))) << "cold CSR";
      fx.ExtractInto(warm, q, true, &scratch, row);
      EXPECT_TRUE(BitEqual(row, fx.Extract(g, q, true))) << "warm CSR";
      fx.ExtractInto(patched, q, false, &scratch, row);
      EXPECT_EQ(patched.Weight(q[0], q[1]), 0u);
      EXPECT_TRUE(BitEqual(row, fx.Extract(peeled, q, false)))
          << "peeled pair";
      EXPECT_TRUE(BitEqual(row, fx.Extract(patched, q, false)))
          << "peeled pair";
    }
  }
}

}  // namespace
}  // namespace marioh::core
