// Unit tests for the hypergraph substrate: Hypergraph multiset semantics,
// clique expansion, and the mutable ProjectedGraph (incl. MHH, Eq. (1)).

#include <gtest/gtest.h>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"

namespace marioh {
namespace {

TEST(Types, CanonicalizeSortsAndDedups) {
  NodeSet s{3, 1, 2, 3, 1};
  Canonicalize(&s);
  EXPECT_EQ(s, (NodeSet{1, 2, 3}));
}

TEST(Types, MakePairOrdersEndpoints) {
  EXPECT_EQ(MakePair(5, 2), (NodePair{2, 5}));
  EXPECT_EQ(MakePair(2, 5), (NodePair{2, 5}));
}

TEST(Hypergraph, AddEdgeCanonicalizesAndCounts) {
  Hypergraph h;
  h.AddEdge({2, 1, 3});
  h.AddEdge({3, 2, 1});  // same hyperedge, different order
  EXPECT_EQ(h.num_unique_edges(), 1u);
  EXPECT_EQ(h.num_total_edges(), 2u);
  EXPECT_EQ(h.Multiplicity({1, 2, 3}), 2u);
  EXPECT_EQ(h.num_nodes(), 4u);  // max id 3 -> 4 nodes
}

TEST(Hypergraph, RejectsDegenerateEdges) {
  Hypergraph h;
  h.AddEdge({5});
  h.AddEdge({7, 7});  // collapses to single node
  h.AddEdge({});
  EXPECT_EQ(h.num_unique_edges(), 0u);
  EXPECT_EQ(h.num_total_edges(), 0u);
}

TEST(Hypergraph, RemoveEdgeDecrementsAndErases) {
  Hypergraph h;
  h.AddEdge({0, 1}, 3);
  EXPECT_EQ(h.RemoveEdge({0, 1}, 2), 2u);
  EXPECT_EQ(h.Multiplicity({0, 1}), 1u);
  EXPECT_EQ(h.RemoveEdge({0, 1}, 5), 1u);  // clamps
  EXPECT_FALSE(h.Contains({0, 1}));
  EXPECT_EQ(h.RemoveEdge({0, 1}), 0u);  // absent
}

TEST(Hypergraph, MultiplicityReducedKeepsUniqueEdges) {
  Hypergraph h;
  h.AddEdge({0, 1}, 5);
  h.AddEdge({1, 2, 3}, 2);
  Hypergraph reduced = h.MultiplicityReduced();
  EXPECT_EQ(reduced.num_unique_edges(), 2u);
  EXPECT_EQ(reduced.num_total_edges(), 2u);
  EXPECT_EQ(reduced.Multiplicity({0, 1}), 1u);
}

TEST(Hypergraph, ProjectionWeightsCountCoOccurrences) {
  // Two hyperedges {0,1,2} (x2) and {1,2}: w(1,2) = 3, w(0,1) = 2.
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 2);
  h.AddEdge({1, 2}, 1);
  ProjectedGraph g = h.Project();
  EXPECT_EQ(g.Weight(1, 2), 3u);
  EXPECT_EQ(g.Weight(0, 1), 2u);
  EXPECT_EQ(g.Weight(0, 2), 2u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Hypergraph, AveragesMatchTableIDefinitions) {
  Hypergraph h;
  h.AddEdge({0, 1}, 1);
  h.AddEdge({0, 1, 2}, 3);
  // Avg multiplicity = total / unique = 4 / 2 = 2.
  EXPECT_DOUBLE_EQ(h.AverageMultiplicity(), 2.0);
  // Avg size over multiset = (2 + 3*3) / 4 = 2.75.
  EXPECT_DOUBLE_EQ(h.AverageEdgeSize(), 2.75);
}

TEST(Hypergraph, NodeDegreesCountMultiplicity) {
  Hypergraph h;
  h.AddEdge({0, 1}, 2);
  h.AddEdge({1, 2}, 1);
  std::vector<uint32_t> deg = h.NodeDegrees();
  EXPECT_EQ(deg[0], 2u);
  EXPECT_EQ(deg[1], 3u);
  EXPECT_EQ(deg[2], 1u);
}

TEST(Hypergraph, ExpandedEdgesRepeats) {
  Hypergraph h;
  h.AddEdge({0, 1}, 2);
  h.AddEdge({0, 2}, 1);
  std::vector<NodeSet> expanded = h.ExpandedEdges();
  EXPECT_EQ(expanded.size(), 3u);
}

TEST(Hypergraph, EmptyProperties) {
  Hypergraph h;
  EXPECT_DOUBLE_EQ(h.AverageMultiplicity(), 0.0);
  EXPECT_DOUBLE_EQ(h.AverageEdgeSize(), 0.0);
  EXPECT_TRUE(h.UniqueEdges().empty());
}

TEST(ProjectedGraph, AddAndSubtractWeight) {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 3);
  EXPECT_EQ(g.Weight(0, 1), 3u);
  EXPECT_EQ(g.Weight(1, 0), 3u);  // symmetric
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.SubtractWeight(0, 1, 2), 2u);
  EXPECT_EQ(g.Weight(0, 1), 1u);
  EXPECT_EQ(g.SubtractWeight(0, 1, 5), 1u);  // clamps to removal
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.Empty());
}

// A sum past uint32_t would wrap to a zero weight still counted as an
// edge; AddWeight refuses it instead.
TEST(ProjectedGraph, AddWeightThatWrapsDies) {
  ProjectedGraph g(2);
  g.AddWeight(0, 1, 4294967295u);
  EXPECT_DEATH(g.AddWeight(0, 1, 1), "MARIOH_CHECK");
}

TEST(ProjectedGraph, SelfAndMissingWeightIsZero) {
  ProjectedGraph g(3);
  g.AddWeight(0, 1, 1);
  EXPECT_EQ(g.Weight(0, 0), 0u);
  EXPECT_EQ(g.Weight(1, 2), 0u);
}

TEST(ProjectedGraph, DegreesAndEdges) {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 5);
  g.AddWeight(0, 3, 2);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.WeightedDegree(0), 8u);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 1u);
  EXPECT_DOUBLE_EQ(g.AverageWeight(), 8.0 / 3.0);
  EXPECT_EQ(g.TotalWeight(), 8u);
}

TEST(ProjectedGraph, IsCliqueChecksAllPairs) {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(0, 2, 1);
  EXPECT_TRUE(g.IsClique(NodeSet{0, 1, 2}));
  EXPECT_FALSE(g.IsClique(NodeSet{0, 1, 3}));
  EXPECT_TRUE(g.IsClique(NodeSet{0}));   // trivially
  EXPECT_TRUE(g.IsClique(NodeSet{}));
}

TEST(ProjectedGraph, MhhMatchesEquationOne) {
  // Triangle 0-1-2 with weights w(0,2)=2, w(1,2)=3 plus common neighbor 3
  // with w(0,3)=1, w(1,3)=4. MHH(0,1) = min(2,3) + min(1,4) = 3.
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 5);
  g.AddWeight(0, 2, 2);
  g.AddWeight(1, 2, 3);
  g.AddWeight(0, 3, 1);
  g.AddWeight(1, 3, 4);
  EXPECT_EQ(g.Mhh(0, 1), 3u);
  // MHH is defined for any node pair: 2 and 3 share neighbors 0 and 1, so
  // MHH(2,3) = min(2,1) + min(3,4) = 4, even though (2,3) is a non-edge.
  EXPECT_EQ(g.Mhh(2, 3), 4u);
  // A pair with no common neighbors has MHH 0.
  ProjectedGraph path(3);
  path.AddWeight(0, 1, 2);
  path.AddWeight(1, 2, 2);
  EXPECT_EQ(path.Mhh(0, 1), 0u);
}

TEST(ProjectedGraph, CommonNeighborsExcludesEndpoints) {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 1);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.AddWeight(1, 3, 1);
  std::vector<NodeId> common = g.CommonNeighbors(0, 1);
  ASSERT_EQ(common.size(), 1u);
  EXPECT_EQ(common[0], 2u);
}

TEST(ProjectedGraph, PeelCliqueDecrementsEveryEdge) {
  ProjectedGraph g(3);
  g.AddWeight(0, 1, 2);
  g.AddWeight(0, 2, 1);
  g.AddWeight(1, 2, 1);
  g.PeelClique(NodeSet{0, 1, 2});
  EXPECT_EQ(g.Weight(0, 1), 1u);
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(ProjectedGraph, ProjectionRoundTripOnCliqueHypergraph) {
  // A hypergraph of one size-4 hyperedge projects to a K4 with weight 1.
  Hypergraph h;
  h.AddEdge({0, 1, 2, 3}, 1);
  ProjectedGraph g = h.Project();
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(g.IsClique(NodeSet{0, 1, 2, 3}));
  for (const auto& e : g.Edges()) EXPECT_EQ(e.weight, 1u);
}

}  // namespace
}  // namespace marioh
