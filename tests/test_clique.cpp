// Unit + property tests for maximal-clique enumeration and degeneracy
// ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hypergraph/clique.hpp"
#include "hypergraph/projected_graph.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

ProjectedGraph CompleteGraph(size_t n) {
  ProjectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.AddWeight(u, v, 1);
  }
  return g;
}

/// Enumerates and copies out to owning sets — the ergonomic form for
/// assertions (production code consumes the arena views directly).
std::vector<NodeSet> MaximalCliqueSets(const ProjectedGraph& g,
                                       const CliqueOptions& options = {}) {
  return EnumerateMaximalCliques(g, options).cliques.ToNodeSets();
}

TEST(MaximalCliques, EmptyGraph) {
  ProjectedGraph g(5);
  EXPECT_TRUE(MaximalCliqueSets(g).empty());
}

TEST(MaximalCliques, SingleEdge) {
  ProjectedGraph g(3);
  g.AddWeight(0, 2, 1);
  std::vector<NodeSet> cliques = MaximalCliqueSets(g);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (NodeSet{0, 2}));
}

TEST(MaximalCliques, CompleteGraphHasOneClique) {
  for (size_t n : {2, 3, 5, 8}) {
    ProjectedGraph g = CompleteGraph(n);
    std::vector<NodeSet> cliques = MaximalCliqueSets(g);
    ASSERT_EQ(cliques.size(), 1u) << "n=" << n;
    EXPECT_EQ(cliques[0].size(), n);
  }
}

TEST(MaximalCliques, TrianglePlusPendant) {
  // Triangle {0,1,2} plus pendant edge {2,3}.
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(2, 3, 1);
  std::vector<NodeSet> cliques = MaximalCliqueSets(g);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_TRUE(std::find(cliques.begin(), cliques.end(),
                        NodeSet{0, 1, 2}) != cliques.end());
  EXPECT_TRUE(std::find(cliques.begin(), cliques.end(), NodeSet{2, 3}) !=
              cliques.end());
}

TEST(MaximalCliques, TwoTrianglesSharingAnEdge) {
  // {0,1,2} and {1,2,3} share edge (1,2); both are maximal.
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(1, 3, 1);
  g.AddWeight(2, 3, 1);
  std::vector<NodeSet> cliques = MaximalCliqueSets(g);
  ASSERT_EQ(cliques.size(), 2u);
}

TEST(MaximalCliques, RespectsMaxCliqueCap) {
  ProjectedGraph g(8);
  // A matching of 4 disjoint edges = 4 maximal cliques.
  for (NodeId u = 0; u < 8; u += 2) g.AddWeight(u, u + 1, 1);
  CliqueOptions options;
  options.max_cliques = 2;
  EXPECT_EQ(MaximalCliqueSets(g, options).size(), 2u);
}

TEST(MaximalCliques, TruncationIsReported) {
  ProjectedGraph g(8);
  for (NodeId u = 0; u < 8; u += 2) g.AddWeight(u, u + 1, 1);
  CliqueOptions options;
  options.max_cliques = 2;
  MaximalCliqueResult capped = EnumerateMaximalCliques(g, options);
  EXPECT_TRUE(capped.truncated);
  EXPECT_EQ(capped.cliques.size(), 2u);
  MaximalCliqueResult full = EnumerateMaximalCliques(g);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.cliques.size(), 4u);
}

TEST(MaximalCliques, ExactCapIsNotTruncation) {
  ProjectedGraph g(4);
  for (NodeId u = 0; u < 4; u += 2) g.AddWeight(u, u + 1, 1);
  CliqueOptions options;
  options.max_cliques = 2;  // exactly the number of maximal cliques
  MaximalCliqueResult result = EnumerateMaximalCliques(g, options);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.cliques.size(), 2u);
}

TEST(MaximalCliques, MoonMoserGraph) {
  // Complete 3-partite graph K_{2,2,2} has 2^3 = 8 maximal cliques (one
  // node per part) — the classic worst-case family.
  ProjectedGraph g(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) {
      if (u / 2 != v / 2) g.AddWeight(u, v, 1);
    }
  }
  std::vector<NodeSet> cliques = MaximalCliqueSets(g);
  EXPECT_EQ(cliques.size(), 8u);
  for (const NodeSet& q : cliques) EXPECT_EQ(q.size(), 3u);
}

TEST(CliqueStore, RoundTripPreservesCliques) {
  CliqueStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_nodes(), 0u);
  EXPECT_TRUE(store.ToNodeSets().empty());

  std::vector<NodeSet> cliques = {{1, 4, 7}, {0, 2}, {3, 5, 6, 8}, {0, 9}};
  for (const NodeSet& q : cliques) store.PushClique(q);
  ASSERT_EQ(store.size(), cliques.size());
  EXPECT_EQ(store.total_nodes(), 11u);
  for (size_t i = 0; i < cliques.size(); ++i) {
    CliqueView v = store[i];
    EXPECT_EQ(NodeSet(v.begin(), v.end()), cliques[i]);
    EXPECT_EQ(store.Materialize(i), cliques[i]);
  }
  EXPECT_EQ(store.ToNodeSets(), cliques);

  // Range-for iteration visits every clique in order.
  size_t index = 0;
  for (CliqueView v : store) {
    EXPECT_EQ(store.Materialize(index), NodeSet(v.begin(), v.end()));
    ++index;
  }
  EXPECT_EQ(index, cliques.size());
}

TEST(CliqueStore, AppendSortAndEquality) {
  CliqueStore a, b;
  a.PushClique(NodeSet{2, 3});
  a.PushClique(NodeSet{0, 1, 5});
  b.PushClique(NodeSet{0, 4});
  CliqueStore merged;
  merged.Append(a);
  merged.Append(b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.Materialize(2), (NodeSet{0, 4}));

  // Sort produces the order std::sort gives the NodeSet representation.
  std::vector<NodeSet> expected = merged.ToNodeSets();
  std::sort(expected.begin(), expected.end());
  merged.Sort();
  EXPECT_EQ(merged.ToNodeSets(), expected);

  CliqueStore same;
  for (const NodeSet& q : expected) same.PushClique(q);
  EXPECT_TRUE(merged == same);
  same.PushClique(NodeSet{7, 8});
  EXPECT_FALSE(merged == same);
  // Same flat node buffer, different clique boundaries: not equal.
  CliqueStore split_differently;
  split_differently.PushClique(NodeSet{0, 1});
  split_differently.PushClique(NodeSet{2});
  CliqueStore joined;
  joined.PushClique(NodeSet{0, 1, 2});
  joined.PushClique(NodeSet{});
  EXPECT_FALSE(split_differently == joined);

  merged.Clear();
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.total_nodes(), 0u);
}

TEST(CliqueStore, ArenaMatchesHashMapReferenceOnRandomGraphs) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    util::Rng rng(seed);
    const size_t n = 32;
    ProjectedGraph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.3)) g.AddWeight(u, v, 1);
      }
    }
    MaximalCliqueResult result = EnumerateMaximalCliques(g);
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.cliques.ToNodeSets(), MaximalCliquesHashMapReference(g))
        << "seed=" << seed;
  }
}

TEST(DegeneracyOrdering, PathGraphHasDegeneracyOne) {
  ProjectedGraph g(5);
  for (NodeId u = 0; u + 1 < 5; ++u) g.AddWeight(u, u + 1, 1);
  size_t degeneracy = 99;
  std::vector<NodeId> order = DegeneracyOrdering(g, &degeneracy);
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(degeneracy, 1u);
  std::set<NodeId> distinct(order.begin(), order.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(DegeneracyOrdering, CompleteGraphDegeneracy) {
  ProjectedGraph g = CompleteGraph(6);
  size_t degeneracy = 0;
  DegeneracyOrdering(g, &degeneracy);
  EXPECT_EQ(degeneracy, 5u);
}

// Property test: on random graphs, every enumerated clique is (a) a clique
// and (b) maximal, and (c) every edge is inside at least one clique.
class MaximalCliquesProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaximalCliquesProperty, SoundCompleteMaximal) {
  util::Rng rng(GetParam());
  const size_t n = 24;
  ProjectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(0.25)) g.AddWeight(u, v, 1 + rng.UniformInt(0, 3));
    }
  }
  std::vector<NodeSet> cliques = MaximalCliqueSets(g);

  std::set<NodePair> covered;
  for (const NodeSet& q : cliques) {
    EXPECT_TRUE(g.IsClique(q));
    // Maximality: no node outside q is adjacent to every node of q.
    for (NodeId z = 0; z < n; ++z) {
      if (std::binary_search(q.begin(), q.end(), z)) continue;
      bool adjacent_all = true;
      for (NodeId u : q) {
        if (!g.HasEdge(u, z)) {
          adjacent_all = false;
          break;
        }
      }
      EXPECT_FALSE(adjacent_all)
          << "clique not maximal: node " << z << " extends it";
    }
    for (size_t i = 0; i < q.size(); ++i) {
      for (size_t j = i + 1; j < q.size(); ++j) {
        covered.insert(MakePair(q[i], q[j]));
      }
    }
  }
  // Completeness: every edge lies in some maximal clique.
  for (const auto& e : g.Edges()) {
    EXPECT_TRUE(covered.count(MakePair(e.u, e.v)) > 0);
  }
  // No duplicates.
  std::set<NodeSet> distinct(cliques.begin(), cliques.end());
  EXPECT_EQ(distinct.size(), cliques.size());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MaximalCliquesProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace marioh
