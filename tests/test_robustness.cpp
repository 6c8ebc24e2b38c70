// Failure-injection and robustness tests: inputs that are NOT valid
// projections of any hypergraph (corrupted weights, adversarial noise),
// plus degenerate shapes. The library must stay safe — terminate, keep
// its invariants, never crash — even when the theoretical premises of
// Lemmas 1-2 are violated by the data.

#include <gtest/gtest.h>

#include "baselines/clique_covering.hpp"
#include "baselines/maxclique.hpp"
#include "baselines/shyre_unsup.hpp"
#include "core/filtering.hpp"
#include "core/marioh.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

/// A trained MARIOH instance shared by the robustness scenarios.
core::Marioh& TrainedMarioh() {
  static core::Marioh* instance = [] {
    auto* m = new core::Marioh();
    gen::GeneratedDataset data =
        gen::Generate(gen::ProfileByName("hosts"), 3);
    util::Rng rng(4);
    gen::SourceTargetSplit split =
        gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
    m->Train(split.source.Project(), split.source);
    return m;
  }();
  return *instance;
}

/// Corrupts a projection by randomly perturbing edge weights so it is no
/// longer the clique expansion of any hypergraph.
ProjectedGraph Corrupt(const ProjectedGraph& g, uint64_t seed) {
  ProjectedGraph out = g;
  util::Rng rng(seed);
  for (const auto& e : g.Edges()) {
    if (rng.Bernoulli(0.3)) {
      out.SubtractWeight(e.u, e.v, 1 + rng.UniformIndex(e.weight));
    } else if (rng.Bernoulli(0.3)) {
      out.AddWeight(e.u, e.v, 1 + rng.UniformIndex(4));
    }
  }
  return out;
}

TEST(Robustness, FilteringOnCorruptedWeightsStillTerminates) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("hosts"), 5);
  ProjectedGraph g = Corrupt(data.hypergraph.Project(), 6);
  Hypergraph h(g.num_nodes());
  core::FilteringStats stats = core::Filtering(&g, &h);
  // No formal guarantee survives corruption, but the mechanics must hold:
  // extracted multiplicity equals removed weight, graph is never negative.
  EXPECT_EQ(h.num_total_edges(), stats.total_multiplicity);
}

TEST(Robustness, MariohConsumesCorruptedGraphs) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("hosts"), 7);
  util::Rng rng(8);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  ProjectedGraph corrupted = Corrupt(split.target.Project(), 9);
  Hypergraph reconstructed = TrainedMarioh().Reconstruct(corrupted);
  // The loop must still fully explain the (corrupted) graph.
  EXPECT_EQ(reconstructed.Project().TotalWeight(),
            corrupted.TotalWeight());
}

TEST(Robustness, SingleNodeAndEmptyInputs) {
  core::Marioh& marioh = TrainedMarioh();
  EXPECT_EQ(marioh.Reconstruct(ProjectedGraph(0)).num_total_edges(), 0u);
  EXPECT_EQ(marioh.Reconstruct(ProjectedGraph(1)).num_total_edges(), 0u);
}

TEST(Robustness, StarGraphReconstruction) {
  // A star is a projection of pairwise hyperedges only; no triangles.
  ProjectedGraph star(8);
  for (NodeId v = 1; v < 8; ++v) star.AddWeight(0, v, 2);
  Hypergraph reconstructed = TrainedMarioh().Reconstruct(star);
  // Only size-2 hyperedges are possible (star has no larger cliques).
  for (const auto& [e, m] : reconstructed.edges()) {
    (void)m;
    EXPECT_EQ(e.size(), 2u);
  }
  EXPECT_EQ(reconstructed.Project().TotalWeight(), star.TotalWeight());
}

TEST(Robustness, UniformHugeWeights) {
  // Extreme multiplicities must not overflow or hang: K4 with weight 1000
  // per edge.
  ProjectedGraph g(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) g.AddWeight(u, v, 1000);
  }
  Hypergraph reconstructed = TrainedMarioh().Reconstruct(g);
  EXPECT_EQ(reconstructed.Project().TotalWeight(), g.TotalWeight());
}

TEST(Robustness, BaselinesHandleEmptyAndTinyGraphs) {
  ProjectedGraph empty(5);
  EXPECT_EQ(baselines::MaxCliqueDecomposition()
                .Reconstruct(empty)
                .hypergraph.num_total_edges(),
            0u);
  EXPECT_EQ(baselines::CliqueCovering()
                .Reconstruct(empty)
                .hypergraph.num_total_edges(),
            0u);
  EXPECT_EQ(
      baselines::ShyreUnsup().Reconstruct(empty).hypergraph.num_total_edges(),
      0u);
  ProjectedGraph one_edge(2);
  one_edge.AddWeight(0, 1, 1);
  EXPECT_EQ(baselines::MaxCliqueDecomposition()
                .Reconstruct(one_edge)
                .hypergraph.num_unique_edges(),
            1u);
}

TEST(Robustness, DisconnectedComponentsAreAllExplained) {
  // Several disconnected cliques; nothing may be dropped.
  Hypergraph truth;
  truth.AddEdge({0, 1, 2}, 1);
  truth.AddEdge({10, 11}, 3);
  truth.AddEdge({20, 21, 22, 23}, 2);
  ProjectedGraph g = truth.Project();
  Hypergraph reconstructed = TrainedMarioh().Reconstruct(g);
  EXPECT_EQ(reconstructed.Project().TotalWeight(), g.TotalWeight());
}

TEST(Robustness, MaxIterationSafetyCapHolds) {
  // With max_iterations = 1 the reconstruction must return after a single
  // pass even though the graph still has edges.
  core::MariohOptions options;
  options.max_iterations = 1;
  options.theta_init = 1.0;  // nothing accepted in iteration 1
  core::Marioh marioh(options);
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("crime"), 11);
  util::Rng rng(12);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  marioh.Train(split.source.Project(), split.source);
  // Must return (no hang); the result may be partial.
  Hypergraph reconstructed =
      marioh.Reconstruct(split.target.Project());
  SUCCEED();
}

}  // namespace
}  // namespace marioh
