// Unit + property tests for maximal-clique enumeration, its incremental
// update under peels, and degeneracy ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "eval/harness.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/projected_graph.hpp"
#include "util/cancel.hpp"
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

/// Peels `steps` rounds from `g` the way the reconstruction loop does
/// (whole maximal cliques, random sub-cliques and single edges, each
/// applied only while it is still a clique) and after every round checks
/// that UpdateMaximalCliques from the previous round's enumeration equals
/// a fresh EnumerateMaximalCliques at 1, 2 and 8 threads, and that every
/// carried clique is the previous clique it names. Adds the number of
/// cliques carried and of new cliques over all rounds to `carried` and
/// `fresh`.
void CheckPeelSequence(ProjectedGraph g, uint64_t seed, int steps,
                       double peel_fraction, size_t* carried,
                       size_t* fresh) {
  util::Rng rng(seed);
  MaximalCliqueResult previous = EnumerateMaximalCliques(CsrGraph(g));
  for (int step = 0; step < steps && !g.Empty(); ++step) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " step=" + std::to_string(step));
    std::vector<NodeId> touched;
    auto peel = [&](const NodeSet& q) {
      if (q.size() < 2 || !g.IsClique(q)) return;
      g.PeelClique(q);
      touched.insert(touched.end(), q.begin(), q.end());
    };
    const std::vector<NodeSet> cliques = previous.cliques.ToNodeSets();
    const size_t peels = 1 + static_cast<size_t>(
                                 peel_fraction *
                                 static_cast<double>(cliques.size()));
    for (size_t t = 0; t < peels && !cliques.empty(); ++t) {
      const NodeSet& q = cliques[rng.UniformIndex(cliques.size())];
      switch (rng.UniformIndex(3)) {
        case 0:
          peel(q);
          break;
        case 1: {
          NodeSet sub = rng.SampleWithoutReplacement(
              q, 2 + rng.UniformIndex(q.size() - 1));
          Canonicalize(&sub);
          peel(sub);
          break;
        }
        default: {
          NodeSet edge = rng.SampleWithoutReplacement(q, 2);
          Canonicalize(&edge);
          peel(edge);
          break;
        }
      }
    }
    Canonicalize(&touched);
    CsrGraph snapshot(g);
    MaximalCliqueResult want = EnumerateMaximalCliques(snapshot);
    ASSERT_FALSE(want.truncated);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      CliqueOptions options;
      options.num_threads = threads;
      MaximalCliqueUpdate got =
          UpdateMaximalCliques(snapshot, &previous, touched, options);
      ASSERT_TRUE(got.result.cliques == want.cliques);
      EXPECT_FALSE(got.result.truncated);
      EXPECT_FALSE(got.result.cancelled);
      ASSERT_EQ(got.previous_index.size(), want.cliques.size());
      for (size_t i = 0; i < want.cliques.size(); ++i) {
        if (got.previous_index[i] == kNewClique) {
          if (threads == 1) ++*fresh;
          continue;
        }
        if (threads == 1) ++*carried;
        ASSERT_LT(got.previous_index[i], previous.cliques.size());
        EXPECT_TRUE(std::ranges::equal(
            previous.cliques[got.previous_index[i]], want.cliques[i]));
      }
    }
    previous = std::move(want);
  }
}

TEST(UpdateMaximalCliques, MatchesEnumerationOnRandomGraphs) {
  size_t carried = 0;
  size_t fresh = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    util::Rng rng(seed * 101);
    const size_t n = 40;
    ProjectedGraph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.3)) g.AddWeight(u, v, 1 + rng.UniformInt(0, 2));
      }
    }
    CheckPeelSequence(std::move(g), seed, 12, 0.08, &carried, &fresh);
  }
  // The sequences exercise both routes.
  EXPECT_GT(carried, 0u);
  EXPECT_GT(fresh, 0u);
}

TEST(UpdateMaximalCliques, MatchesEnumerationOnEuTargets) {
  for (uint64_t seed : {1u, 3u}) {
    eval::PreparedDataset data =
        eval::PrepareDataset("eu", /*multiplicity_reduced=*/false, seed);
    size_t carried = 0;
    size_t fresh = 0;
    CheckPeelSequence(*data.g_target, seed, 6, 0.07, &carried, &fresh);
    EXPECT_GT(carried, 0u);
    EXPECT_GT(fresh, 0u);
  }
}

TEST(UpdateMaximalCliques, SplitsADirtyCliqueOfMoreThan64Nodes) {
  // K_100 minus the complete bipartite K_{35,35} between A = {0..34} and
  // B = {35..69}: the 70 broken members exceed one bitset word, and the
  // maximal cliques are {70..99} plus A, and {70..99} plus B.
  constexpr NodeId kN = 100;
  ProjectedGraph g = CompleteGraph(kN);
  MaximalCliqueResult previous = EnumerateMaximalCliques(CsrGraph(g));
  ASSERT_EQ(previous.cliques.size(), 1u);
  std::vector<NodeId> touched;
  for (NodeId a = 0; a < 35; ++a) {
    for (NodeId b = 35; b < 70; ++b) g.PeelClique(NodeSet{a, b});
  }
  for (NodeId u = 0; u < 70; ++u) touched.push_back(u);
  CsrGraph snapshot(g);
  MaximalCliqueResult want = EnumerateMaximalCliques(snapshot);
  ASSERT_EQ(want.cliques.size(), 2u);
  for (int threads : {1, 2, 8}) {
    CliqueOptions options;
    options.num_threads = threads;
    MaximalCliqueUpdate got =
        UpdateMaximalCliques(snapshot, &previous, touched, options);
    EXPECT_TRUE(got.result.cliques == want.cliques) << "threads=" << threads;
    EXPECT_EQ(got.previous_index,
              std::vector<size_t>(2, kNewClique));
  }
}

TEST(UpdateMaximalCliques, DropsNodesLeftIsolated) {
  // Triangle {0,1,2}, pendant {2,3} and a lone edge {4,5}. Peeling {4,5}
  // and {2,3} leaves 3, 4 and 5 isolated: enumeration emits no
  // singletons, so neither may the update.
  ProjectedGraph g(6);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(2, 3, 1);
  g.AddWeight(4, 5, 1);
  MaximalCliqueResult previous = EnumerateMaximalCliques(CsrGraph(g));
  ASSERT_EQ(previous.cliques.size(), 3u);
  g.PeelClique(NodeSet{2, 3});
  g.PeelClique(NodeSet{4, 5});
  CsrGraph snapshot(g);
  MaximalCliqueUpdate got = UpdateMaximalCliques(
      snapshot, &previous, std::vector<NodeId>{2, 3, 4, 5});
  EXPECT_TRUE(got.result.cliques == EnumerateMaximalCliques(snapshot).cliques);
  ASSERT_EQ(got.result.cliques.size(), 1u);
  EXPECT_EQ(got.result.cliques.Materialize(0), (NodeSet{0, 1, 2}));
  EXPECT_EQ(got.previous_index, std::vector<size_t>{0});

  // Peel the triangle too: nothing is left.
  g.PeelClique(NodeSet{0, 1, 2});
  MaximalCliqueUpdate empty = UpdateMaximalCliques(
      CsrGraph(g), &got.result, std::vector<NodeId>{0, 1, 2});
  EXPECT_TRUE(empty.result.cliques.empty());
}

TEST(UpdateMaximalCliques, FallsBackToEnumeration) {
  util::Rng rng(77);
  const size_t n = 30;
  ProjectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(0.3)) g.AddWeight(u, v, 1);
    }
  }
  MaximalCliqueResult previous = EnumerateMaximalCliques(CsrGraph(g));
  const NodeSet first = previous.cliques.Materialize(0);
  g.PeelClique(first);
  CsrGraph snapshot(g);
  auto all_new = [](const MaximalCliqueUpdate& u) {
    return u.previous_index ==
           std::vector<size_t>(u.result.cliques.size(), kNewClique);
  };

  // No previous store (the first iteration).
  MaximalCliqueUpdate none = UpdateMaximalCliques(snapshot, nullptr, first);
  EXPECT_TRUE(none.result.cliques ==
              EnumerateMaximalCliques(snapshot).cliques);
  EXPECT_TRUE(all_new(none));

  // A result over max_cliques is enumeration's truncated prefix.
  for (int threads : {1, 2, 8}) {
    CliqueOptions capped;
    capped.num_threads = threads;
    capped.max_cliques = previous.cliques.size() / 2;
    MaximalCliqueResult want = EnumerateMaximalCliques(snapshot, capped);
    ASSERT_TRUE(want.truncated);
    MaximalCliqueUpdate got =
        UpdateMaximalCliques(snapshot, &previous, first, capped);
    EXPECT_TRUE(got.result.truncated);
    EXPECT_TRUE(got.result.cliques == want.cliques) << "threads=" << threads;
    EXPECT_TRUE(all_new(got));
  }

  // A truncated or cancelled previous store is not trusted.
  for (bool truncated : {true, false}) {
    MaximalCliqueResult partial;
    partial.cliques.PushClique(first);
    partial.truncated = truncated;
    partial.cancelled = !truncated;
    MaximalCliqueUpdate got = UpdateMaximalCliques(snapshot, &partial, first);
    EXPECT_TRUE(got.result.cliques ==
                EnumerateMaximalCliques(snapshot).cliques);
    EXPECT_TRUE(all_new(got));
  }

  // A tripped token flags the result cancelled.
  util::CancelToken token;
  token.Cancel();
  CliqueOptions cancelled;
  cancelled.cancel = &token;
  EXPECT_TRUE(
      UpdateMaximalCliques(snapshot, &previous, first, cancelled)
          .result.cancelled);
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
