// Parameterized cross-profile property tests for the baseline methods:
// output hyperedges are cliques of the input, edge-cover methods cover
// every edge, multiplicity-aware peeling conserves weight, and seeded
// methods are deterministic — on every fast dataset profile.

#include <gtest/gtest.h>

#include <unordered_set>

#include "baselines/bayesian_mdl.hpp"
#include "baselines/cfinder.hpp"
#include "baselines/clique_covering.hpp"
#include "baselines/demon.hpp"
#include "baselines/maxclique.hpp"
#include "baselines/shyre_unsup.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {
namespace {

ProjectedGraph TargetGraph(const std::string& profile, uint64_t seed) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName(profile), seed);
  util::Rng rng(seed ^ 0xa5a5ULL);
  gen::SourceTargetSplit split = gen::SplitHypergraph(
      data.hypergraph.MultiplicityReduced(), &rng, 0.5);
  return split.target.Project();
}

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

class BaselineProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineProperties, MaxCliqueOutputsAreMaximalCliques) {
  ProjectedGraph g = TargetGraph(GetParam(), 3);
  Hypergraph h = MaxCliqueDecomposition().Reconstruct(g).hypergraph;
  EXPECT_TRUE(CoversAllEdges(g, h));
  for (const auto& [e, m] : h.edges()) {
    EXPECT_EQ(m, 1u);
    EXPECT_TRUE(g.IsClique(e));
  }
}

TEST_P(BaselineProperties, CliqueCoveringCoversAndEmitsCliques) {
  ProjectedGraph g = TargetGraph(GetParam(), 5);
  Hypergraph h = CliqueCovering(7).Reconstruct(g).hypergraph;
  EXPECT_TRUE(CoversAllEdges(g, h));
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_TRUE(g.IsClique(e));
  }
}

TEST_P(BaselineProperties, BayesianMdlCoverIsValid) {
  ProjectedGraph g = TargetGraph(GetParam(), 7);
  Hypergraph h = BayesianMdl(9, /*anneal_steps=*/200).Reconstruct(g).hypergraph;
  EXPECT_TRUE(CoversAllEdges(g, h));
  // Parsimony: never more hyperedges than edges.
  EXPECT_LE(h.num_unique_edges(), g.num_edges());
}

TEST_P(BaselineProperties, ShyreUnsupConservesTotalWeight) {
  ProjectedGraph g = TargetGraph(GetParam(), 9);
  Hypergraph h = ShyreUnsup().Reconstruct(g).hypergraph;
  EXPECT_EQ(h.Project().TotalWeight(), g.TotalWeight());
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_TRUE(g.IsClique(e));
  }
}

TEST_P(BaselineProperties, DemonCommunitiesAreConnectedSubsets) {
  ProjectedGraph g = TargetGraph(GetParam(), 11);
  Hypergraph h = Demon(1.0, 2, 13).Reconstruct(g).hypergraph;
  // Communities come from ego networks, so every member pair is within
  // two hops; verify membership stays within the graph's node range.
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    for (NodeId u : e) EXPECT_LT(u, g.num_nodes());
    EXPECT_GE(e.size(), 2u);
  }
}

TEST_P(BaselineProperties, SeededMethodsAreDeterministic) {
  ProjectedGraph g = TargetGraph(GetParam(), 15);
  Hypergraph a = CliqueCovering(21).Reconstruct(g).hypergraph;
  Hypergraph b = CliqueCovering(21).Reconstruct(g).hypergraph;
  EXPECT_EQ(a.UniqueEdges(), b.UniqueEdges());
  Hypergraph c = BayesianMdl(23, 100).Reconstruct(g).hypergraph;
  Hypergraph d = BayesianMdl(23, 100).Reconstruct(g).hypergraph;
  EXPECT_EQ(c.UniqueEdges(), d.UniqueEdges());
}

INSTANTIATE_TEST_SUITE_P(FastProfiles, BaselineProperties,
                         ::testing::Values("crime", "directors", "hosts",
                                           "enron"));

}  // namespace
}  // namespace marioh::baselines
