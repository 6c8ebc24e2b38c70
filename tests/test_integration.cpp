// Integration and cross-module property tests: the full
// generate -> split -> project -> train -> reconstruct -> evaluate
// pipeline, exercised across dataset profiles and methods, checking the
// invariants that the paper's algorithm guarantees by construction.

#include <gtest/gtest.h>

#include "baselines/shyre_unsup.hpp"
#include "core/marioh.hpp"
#include "eval/harness.hpp"
#include "eval/metrics.hpp"
#include "eval/structural.hpp"
#include "gen/profiles.hpp"
#include "io/text_io.hpp"

#include <sstream>

namespace marioh {
namespace {

// Pipeline property: for every fast profile, MARIOH's reconstruction
// re-projects to exactly the input graph (lossless explanation of G), and
// every reconstructed hyperedge is a clique of the input graph.
class PipelineInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineInvariants, ReconstructionExplainsGraphExactly) {
  eval::PreparedDataset data =
      eval::PrepareDataset(GetParam(), /*multiplicity_reduced=*/true,
                           /*seed=*/11);
  core::Marioh marioh;
  marioh.Train(*data.g_source, *data.source);
  Hypergraph reconstructed = marioh.Reconstruct(*data.g_target);

  // (a) Every reconstructed hyperedge is a clique of the input.
  for (const auto& [e, m] : reconstructed.edges()) {
    (void)m;
    EXPECT_TRUE(data.g_target->IsClique(e));
  }
  // (b) The reconstruction explains the graph exactly: its projection has
  // the same weighted edge multiset.
  ProjectedGraph reprojected = reconstructed.Project();
  EXPECT_EQ(reprojected.TotalWeight(), data.g_target->TotalWeight());
  EXPECT_EQ(reprojected.num_edges(), data.g_target->num_edges());
  // (c) Sanity: accuracy is meaningfully above zero on every profile.
  EXPECT_GT(eval::Jaccard(*data.target, reconstructed), 0.1);
}

INSTANTIATE_TEST_SUITE_P(FastProfiles, PipelineInvariants,
                         ::testing::Values("crime", "directors", "hosts",
                                           "enron"));

// Multiplicity-preserved pipeline: multi-Jaccard is well-defined and the
// total reconstructed multiplicity accounts for the graph's weight.
class MultiplicityPipeline : public ::testing::TestWithParam<const char*> {};

TEST_P(MultiplicityPipeline, MultiJaccardBoundedAndProjectionExact) {
  eval::PreparedDataset data =
      eval::PrepareDataset(GetParam(), /*multiplicity_reduced=*/false,
                           /*seed=*/13);
  core::Marioh marioh;
  marioh.Train(*data.g_source, *data.source);
  Hypergraph reconstructed = marioh.Reconstruct(*data.g_target);
  double mj = eval::MultiJaccard(*data.target, reconstructed);
  EXPECT_GE(mj, 0.0);
  EXPECT_LE(mj, 1.0);
  EXPECT_EQ(reconstructed.Project().TotalWeight(),
            data.g_target->TotalWeight());
}

INSTANTIATE_TEST_SUITE_P(FastProfiles, MultiplicityPipeline,
                         ::testing::Values("crime", "hosts", "enron"));

TEST(Integration, MariohDominatesUnsupervisedPeelingOnHeavyOverlap) {
  // The paper's central comparison: supervised multiplicity-aware search
  // beats the unsupervised peeling baseline on the hard email-style
  // profile.
  eval::AccuracyOptions options;
  options.num_seeds = 2;
  eval::AccuracyResult marioh = eval::RunAccuracy("MARIOH", "enron",
                                                  options);
  eval::AccuracyResult unsup = eval::RunAccuracy("SHyRe-Unsup", "enron",
                                                 options);
  EXPECT_GT(marioh.mean, unsup.mean);
}

TEST(Integration, FilteringImprovesSparseProfiles) {
  // MARIOH vs MARIOH-F on a near-disjoint profile: filtering can only
  // help (it extracts provably-true pairs before the classifier runs).
  eval::AccuracyOptions options;
  options.num_seeds = 3;
  eval::AccuracyResult full = eval::RunAccuracy("MARIOH", "crime", options);
  eval::AccuracyResult nofilter =
      eval::RunAccuracy("MARIOH-F", "crime", options);
  EXPECT_GE(full.mean + 1e-9, nofilter.mean * 0.95)
      << "filtering should not materially hurt sparse profiles";
}

TEST(Integration, TransferAcrossCoauthorshipDomains) {
  // DBLP-trained MARIOH reconstructs a MAG-style hypergraph well
  // (Table V's headline).
  eval::AccuracyOptions options;
  options.num_seeds = 1;
  eval::AccuracyResult transfer =
      eval::RunTransfer("MARIOH", "dblp", "mag_history", options);
  EXPECT_GT(transfer.mean, 60.0);
}

TEST(Integration, SemiSupervisionDegradesGracefully) {
  eval::AccuracyOptions full_opts;
  full_opts.num_seeds = 2;
  eval::AccuracyOptions semi_opts = full_opts;
  semi_opts.marioh_base.classifier.supervision_fraction = 0.1;
  eval::AccuracyResult full = eval::RunAccuracy("MARIOH", "hosts",
                                                full_opts);
  eval::AccuracyResult semi = eval::RunAccuracy("MARIOH", "hosts",
                                                semi_opts);
  // 10% supervision must still land in the same ballpark (paper: within a
  // few points of full supervision), certainly above half of it.
  EXPECT_GT(semi.mean, 0.5 * full.mean);
}

TEST(Integration, SerializedPipelineMatchesInMemory) {
  // Write the split to text, read it back, reconstruct, compare with the
  // in-memory path (the CLI code path).
  eval::PreparedDataset data =
      eval::PrepareDataset("crime", true, 17);
  std::stringstream hyperedges, graph;
  io::WriteHypergraph(*data.source, hyperedges);
  io::WriteProjectedGraph(*data.g_target, graph);
  api::StatusOr<Hypergraph> parsed_source = io::TryReadHypergraph(hyperedges);
  api::StatusOr<ProjectedGraph> parsed_graph =
      io::TryReadProjectedGraph(graph);
  ASSERT_TRUE(parsed_source.ok()) << parsed_source.status().ToString();
  ASSERT_TRUE(parsed_graph.ok()) << parsed_graph.status().ToString();
  const Hypergraph& source2 = *parsed_source;
  const ProjectedGraph& g2 = *parsed_graph;

  core::MariohOptions options;
  options.seed = 5;
  core::Marioh a(options), b(options);
  a.Train(*data.g_source, *data.source);
  // Projections of the same hypergraph are identical regardless of source.
  b.Train(source2.Project(), source2);
  Hypergraph ra = a.Reconstruct(*data.g_target);
  Hypergraph rb = b.Reconstruct(g2);
  EXPECT_EQ(ra.UniqueEdges(), rb.UniqueEdges());
}

TEST(Integration, StructuralErrorTracksJaccard) {
  // A better reconstruction (MARIOH) must have no-worse average
  // structural preservation error than a crude one (shattering into
  // pairs) on the same dataset.
  eval::PreparedDataset data = eval::PrepareDataset("hosts", true, 19);
  core::Marioh marioh;
  marioh.Train(*data.g_source, *data.source);
  Hypergraph good = marioh.Reconstruct(*data.g_target);
  Hypergraph pairs(data.g_target->num_nodes());
  for (const auto& e : data.g_target->Edges()) {
    pairs.AddEdge({e.u, e.v}, e.weight);
  }
  double err_good =
      eval::CompareStructure(*data.target, good, 21).AverageError();
  double err_pairs =
      eval::CompareStructure(*data.target, pairs, 21).AverageError();
  EXPECT_LE(err_good, err_pairs);
}

TEST(Integration, HarnessOotFlagsSlowMethods) {
  // With an absurdly small budget every method is flagged OOT after the
  // first seed.
  eval::AccuracyOptions options;
  options.num_seeds = 3;
  options.time_budget_seconds = 0.0;
  eval::AccuracyResult r = eval::RunAccuracy("MaxClique", "crime", options);
  EXPECT_TRUE(r.out_of_time);
  EXPECT_EQ(r.seeds, 1);  // stopped after the first seed
}

}  // namespace
}  // namespace marioh
