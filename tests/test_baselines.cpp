// Tests for all baseline reconstruction methods: interface contracts,
// behavior on canonical small graphs, and cover/decomposition invariants.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "api/registry.hpp"
#include "baselines/bayesian_mdl.hpp"
#include "baselines/cfinder.hpp"
#include "baselines/clique_covering.hpp"
#include "baselines/demon.hpp"
#include "baselines/maxclique.hpp"
#include "baselines/shyre.hpp"
#include "baselines/shyre_unsup.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {
namespace {

ProjectedGraph TwoDisjointTriangles() {
  ProjectedGraph g(6);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(3, 4, 1);
  g.AddWeight(3, 5, 1);
  g.AddWeight(4, 5, 1);
  return g;
}

/// Every projected edge of `g` is covered by some hyperedge of `h`.
bool CoversAllEdges(const ProjectedGraph& g, const Hypergraph& h) {
  std::unordered_set<NodePair, util::PairHash> covered;
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    for (size_t i = 0; i < e.size(); ++i) {
      for (size_t j = i + 1; j < e.size(); ++j) {
        covered.insert(MakePair(e[i], e[j]));
      }
    }
  }
  for (const auto& e : g.Edges()) {
    if (covered.count(MakePair(e.u, e.v)) == 0) return false;
  }
  return true;
}

TEST(MaxClique, RecoversDisjointTriangles) {
  ProjectedGraph g = TwoDisjointTriangles();
  MaxCliqueDecomposition method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_EQ(h.num_unique_edges(), 2u);
  EXPECT_TRUE(h.Contains({0, 1, 2}));
  EXPECT_TRUE(h.Contains({3, 4, 5}));
}

TEST(MaxClique, OutputsAreCliquesOfInput) {
  util::Rng rng(3);
  ProjectedGraph g(20);
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = u + 1; v < 20; ++v) {
      if (rng.Bernoulli(0.3)) g.AddWeight(u, v, 1);
    }
  }
  MaxCliqueDecomposition method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_TRUE(g.IsClique(e));
  }
  EXPECT_TRUE(CoversAllEdges(g, h));
}

TEST(CliqueCovering, CoversEveryEdge) {
  util::Rng rng(5);
  ProjectedGraph g(25);
  for (NodeId u = 0; u < 25; ++u) {
    for (NodeId v = u + 1; v < 25; ++v) {
      if (rng.Bernoulli(0.2)) g.AddWeight(u, v, 1);
    }
  }
  CliqueCovering method(7);
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_TRUE(CoversAllEdges(g, h));
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_TRUE(g.IsClique(e));
  }
}

TEST(CliqueCovering, SingleEdgeGraph) {
  ProjectedGraph g(2);
  g.AddWeight(0, 1, 5);
  CliqueCovering method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_EQ(h.num_unique_edges(), 1u);
  EXPECT_TRUE(h.Contains({0, 1}));
}

TEST(BayesianMdl, CoverIsValidAndParsimonious) {
  ProjectedGraph g = TwoDisjointTriangles();
  BayesianMdl method(11);
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_TRUE(CoversAllEdges(g, h));
  // Parsimony: two triangles explain the graph with 2 hyperedges; a cover
  // with more than 6 (one per edge) would be degenerate.
  EXPECT_LE(h.num_unique_edges(), 6u);
  EXPECT_GE(h.num_unique_edges(), 2u);
}

TEST(BayesianMdl, EmptyGraph) {
  ProjectedGraph g(4);
  BayesianMdl method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_EQ(h.num_total_edges(), 0u);
}

TEST(Demon, FindsCommunitiesInDisjointTriangles) {
  ProjectedGraph g = TwoDisjointTriangles();
  Demon method(1.0, 2, 13);
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_GT(h.num_unique_edges(), 0u);
  // Both triangles should be found as (contained in) communities.
  bool found_left = false, found_right = false;
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    if (e == NodeSet{0, 1, 2}) found_left = true;
    if (e == NodeSet{3, 4, 5}) found_right = true;
  }
  EXPECT_TRUE(found_left);
  EXPECT_TRUE(found_right);
}

TEST(Demon, MinSizeRespected) {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  Demon method(1.0, 3, 17);
  Hypergraph h = method.Reconstruct(g).hypergraph;
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_GE(e.size(), 3u);
  }
}

TEST(CFinder, PercolatesAdjacentTriangles) {
  // Two triangles sharing an edge percolate (k=3) into one community of 4.
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(1, 3, 1);
  g.AddWeight(2, 3, 1);
  CFinder method(3);
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_TRUE(h.Contains({0, 1, 2, 3}));
}

TEST(CFinder, DisjointTrianglesStaySeparate) {
  ProjectedGraph g = TwoDisjointTriangles();
  CFinder method(3);
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_TRUE(h.Contains({0, 1, 2}));
  EXPECT_TRUE(h.Contains({3, 4, 5}));
  EXPECT_EQ(h.num_unique_edges(), 2u);
}

TEST(CFinder, TrainPicksKFromSizeQuantiles) {
  Hypergraph source;
  for (NodeId base = 0; base < 40; base += 4) {
    source.AddEdge({base, base + 1, base + 2, base + 3}, 1);
  }
  CFinder method(3);
  method.Train(source.Project(), source);
  EXPECT_EQ(method.k(), 4u);  // all hyperedges have size 4
}

TEST(ShyreUnsup, PeelsRepeatedPairExactly) {
  Hypergraph truth;
  truth.AddEdge({0, 1}, 3);
  ProjectedGraph g = truth.Project();
  ShyreUnsup method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_EQ(h.Multiplicity({0, 1}), 3u);
}

TEST(ShyreUnsup, ConsumesAllEdgeMultiplicity) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("hosts"), 3);
  ProjectedGraph g = data.hypergraph.Project();
  ShyreUnsup method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_EQ(h.Project().TotalWeight(), g.TotalWeight());
}

TEST(ShyreUnsup, PrefersLargerCliques) {
  // One triangle, weight 1: should be taken as one size-3 hyperedge, not
  // three pairs.
  Hypergraph truth;
  truth.AddEdge({0, 1, 2}, 1);
  ProjectedGraph g = truth.Project();
  ShyreUnsup method;
  Hypergraph h = method.Reconstruct(g).hypergraph;
  EXPECT_TRUE(h.Contains({0, 1, 2}));
  EXPECT_EQ(h.num_total_edges(), 1u);
}

TEST(Shyre, TrainAndReconstructRunsEndToEnd) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("crime"), 7);
  util::Rng rng(8);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph.MultiplicityReduced(), &rng, 0.5);
  Shyre::Options options;
  options.seed = 9;
  Shyre method(options);
  method.Train(split.source.Project(), split.source);
  Hypergraph h = method.Reconstruct(split.target.Project()).hypergraph;
  // SHyRe is single-pass: accuracy is dataset-dependent, but on the
  // near-disjoint crime profile it must recover a solid majority.
  EXPECT_GT(eval::Jaccard(split.target, h), 0.5);
}

TEST(AllMethods, UnsupervisedOnesIgnoreTrain) {
  // Callers may Train every method unconditionally: for the unsupervised
  // methods it is the no-op default and leaves the output unchanged.
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("crime"), 7);
  util::Rng rng(8);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  ProjectedGraph g_source = split.source.Project();
  ProjectedGraph g_target = split.target.Project();
  for (const api::MethodInfo& info :
       api::MethodRegistry::Global().Methods()) {
    if (info.supervised) continue;
    std::unique_ptr<api::Reconstructor> trained =
        api::MustCreateMethod(info.name, 1);
    trained->Train(g_source, split.source);
    EXPECT_EQ(trained->Reconstruct(g_target).hypergraph.edges(),
              api::MustCreateMethod(info.name, 1)
                  ->Reconstruct(g_target)
                  .hypergraph.edges())
        << info.name;
  }
}

}  // namespace
}  // namespace marioh::baselines
