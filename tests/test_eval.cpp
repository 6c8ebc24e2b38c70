// Tests for the evaluation substrate: structural properties (Table IV),
// NMI / spectral clustering (Table VII), F1 node classification
// (Table VIII), AUC / link prediction (Table IX), and the harness.

#include <gtest/gtest.h>

#include <cmath>

#include "api/registry.hpp"
#include "eval/classification.hpp"
#include "eval/clustering.hpp"
#include "eval/harness.hpp"
#include "eval/linkpred.hpp"
#include "eval/metrics.hpp"
#include "eval/structural.hpp"
#include "gen/profiles.hpp"
#include "util/rng.hpp"

namespace marioh::eval {
namespace {

TEST(Structural, IdenticalHypergraphsHaveNearZeroError) {
  gen::GeneratedDataset data = gen::Generate(gen::ProfileByName("crime"), 1);
  StructuralReport report =
      CompareStructure(data.hypergraph, data.hypergraph, 2);
  for (const auto& [name, err] : report.scalar_errors) {
    EXPECT_LT(err, 0.05) << name;
  }
  for (const auto& [name, err] : report.distributional_errors) {
    EXPECT_LT(err, 0.05) << name;
  }
  EXPECT_LT(report.AverageError(), 0.05);
}

TEST(Structural, ScalarsMatchHandComputation) {
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 2);
  h.AddEdge({3, 4}, 1);
  ScalarProperties p = ComputeScalars(h, 3);
  EXPECT_DOUBLE_EQ(p.num_nodes, 5.0);
  EXPECT_DOUBLE_EQ(p.num_hyperedges, 2.0);
  // Degrees: 2,2,2,1,1 -> mean 8/5.
  EXPECT_DOUBLE_EQ(p.avg_node_degree, 8.0 / 5.0);
  EXPECT_DOUBLE_EQ(p.avg_edge_size, 2.5);
  EXPECT_DOUBLE_EQ(p.density, 2.0 / 5.0);
  // Overlapness: (3*2 + 2*1) / 5 = 8/5.
  EXPECT_DOUBLE_EQ(p.overlapness, 8.0 / 5.0);
  // The only triangle {0,1,2} is covered by a hyperedge.
  EXPECT_DOUBLE_EQ(p.simplicial_closure, 1.0);
}

TEST(Structural, DegradedReconstructionScoresWorse) {
  gen::GeneratedDataset data = gen::Generate(gen::ProfileByName("hosts"), 5);
  // "Reconstruction" that shatters every hyperedge into pairs.
  Hypergraph shattered(data.hypergraph.num_nodes());
  for (const auto& [e, m] : data.hypergraph.edges()) {
    for (size_t i = 0; i < e.size(); ++i) {
      for (size_t j = i + 1; j < e.size(); ++j) {
        shattered.AddEdge({e[i], e[j]}, m);
      }
    }
  }
  StructuralReport good =
      CompareStructure(data.hypergraph, data.hypergraph, 6);
  StructuralReport bad = CompareStructure(data.hypergraph, shattered, 6);
  EXPECT_GT(bad.AverageError(), good.AverageError());
}

TEST(Nmi, PerfectAndIndependentPartitions) {
  std::vector<uint32_t> a{0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(Nmi(a, a), 1.0, 1e-9);
  // Relabeled partition is still perfect.
  std::vector<uint32_t> relabeled{5, 5, 9, 9, 7, 7};
  EXPECT_NEAR(Nmi(a, relabeled), 1.0, 1e-9);
  // Constant partition carries no information.
  std::vector<uint32_t> constant(6, 0);
  EXPECT_NEAR(Nmi(a, constant), 0.0, 1e-9);
}

TEST(Nmi, PartialAgreement) {
  std::vector<uint32_t> a{0, 0, 0, 1, 1, 1};
  std::vector<uint32_t> b{0, 0, 1, 1, 1, 1};
  double nmi = Nmi(a, b);
  EXPECT_GT(nmi, 0.0);
  EXPECT_LT(nmi, 1.0);
}

TEST(SpectralClustering, SeparatesTwoCliques) {
  // Two disjoint K5s: spectral clustering must recover the split exactly.
  ProjectedGraph g(10);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) g.AddWeight(u, v, 1);
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) g.AddWeight(u, v, 1);
  }
  la::Matrix embedding = GraphSpectralEmbedding(g, 2);
  std::vector<uint32_t> labels{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  double nmi = SpectralClusteringNmi(embedding, labels, 2, 7);
  EXPECT_NEAR(nmi, 1.0, 1e-6);
}

TEST(SpectralClustering, HypergraphEmbeddingSeparatesCommunities) {
  // Two groups of hyperedges over disjoint node sets.
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 2);
  h.AddEdge({1, 2, 3}, 1);
  h.AddEdge({0, 3}, 1);
  h.AddEdge({4, 5, 6}, 2);
  h.AddEdge({5, 6, 7}, 1);
  h.AddEdge({4, 7}, 1);
  la::Matrix embedding = HypergraphSpectralEmbedding(h, 2);
  std::vector<uint32_t> labels{0, 0, 0, 0, 1, 1, 1, 1};
  double nmi = SpectralClusteringNmi(embedding, labels, 2, 9);
  EXPECT_NEAR(nmi, 1.0, 1e-6);
}

TEST(F1, HandComputedScores) {
  std::vector<uint32_t> truth{0, 0, 1, 1, 2, 2};
  std::vector<uint32_t> pred{0, 1, 1, 1, 2, 0};
  F1Scores f1 = ComputeF1(truth, pred, 3);
  // Class 0: tp=1, fp=1, fn=1 -> f1 = 0.5
  // Class 1: tp=2, fp=1, fn=0 -> f1 = 4/5
  // Class 2: tp=1, fp=0, fn=1 -> f1 = 2/3
  EXPECT_NEAR(f1.macro, (0.5 + 0.8 + 2.0 / 3.0) / 3.0, 1e-9);
  // Micro: tp=4, fp=2, fn=2 -> 8/12.
  EXPECT_NEAR(f1.micro, 8.0 / 12.0, 1e-9);
}

TEST(F1, PerfectPrediction) {
  std::vector<uint32_t> truth{0, 1, 2, 0, 1, 2};
  F1Scores f1 = ComputeF1(truth, truth, 3);
  EXPECT_DOUBLE_EQ(f1.micro, 1.0);
  EXPECT_DOUBLE_EQ(f1.macro, 1.0);
}

TEST(NodeClassification, LearnsSeparableEmbedding) {
  // Embeddings directly encode the class.
  const size_t n = 60;
  la::Matrix embedding(n, 2);
  std::vector<uint32_t> labels(n);
  util::Rng rng(11);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<uint32_t>(i % 3);
    embedding(i, 0) = static_cast<double>(labels[i]) + rng.Normal(0, 0.05);
    embedding(i, 1) = -static_cast<double>(labels[i]) + rng.Normal(0, 0.05);
  }
  F1Scores f1 = NodeClassification(embedding, labels, 3, 0.7, 13);
  EXPECT_GT(f1.micro, 0.9);
  EXPECT_GT(f1.macro, 0.9);
}

TEST(Auc, PerfectAndRandomScores) {
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.8}, {0.1, 0.2}), 1.0);
  EXPECT_DOUBLE_EQ(Auc({0.1, 0.2}, {0.9, 0.8}), 0.0);
  EXPECT_DOUBLE_EQ(Auc({0.5}, {0.5}), 0.5);  // tie -> midrank
  EXPECT_DOUBLE_EQ(Auc({}, {0.5}), 0.5);     // degenerate
}

TEST(Auc, HandComputedMixedCase) {
  // pos: 0.8, 0.4; neg: 0.6, 0.2. Pairs won: (0.8>0.6), (0.8>0.2),
  // (0.4<0.6 loses), (0.4>0.2) -> 3/4.
  EXPECT_DOUBLE_EQ(Auc({0.8, 0.4}, {0.6, 0.2}), 0.75);
}

TEST(LinkPrediction, RunsOnGeneratedDataAndBeatsCoinFlip) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("hosts"), 17);
  ProjectedGraph g = data.hypergraph.Project();
  LinkPredOptions options;
  options.seed = 18;
  options.use_gcn = false;  // keep the unit test fast
  double auc = LinkPredictionAuc(g, &data.hypergraph, options);
  EXPECT_GT(auc, 0.6);
  EXPECT_LE(auc, 1.0);
}

TEST(Harness, PrepareDatasetSplitsAndProjects) {
  PreparedDataset data = PrepareDataset("crime", true, 21);
  EXPECT_GT(data.source->num_total_edges(), 0u);
  EXPECT_GT(data.target->num_total_edges(), 0u);
  EXPECT_EQ(data.g_source->num_nodes(), data.source->num_nodes());
  // Multiplicity-reduced: every hyperedge has multiplicity 1.
  for (const auto& [e, m] : data.source->edges()) {
    (void)e;
    EXPECT_EQ(m, 1u);
  }
}

TEST(Harness, TemporalSplitModeProducesValidHalves) {
  PreparedDataset data = PrepareDataset(
      "enron", /*multiplicity_reduced=*/false, 25, SplitMode::kTemporal);
  EXPECT_GT(data.source->num_total_edges(), 0u);
  EXPECT_GT(data.target->num_total_edges(), 0u);
  // Halves roughly balanced (the paper's 50/50 timestamp split).
  double frac =
      static_cast<double>(data.source->num_total_edges()) /
      static_cast<double>(data.source->num_total_edges() +
                          data.target->num_total_edges());
  EXPECT_NEAR(frac, 0.5, 0.1);
  // Reconstruction on the temporal split still runs end to end.
  core::Marioh marioh;
  marioh.Train(*data.g_source, *data.source);
  Hypergraph reconstructed = marioh.Reconstruct(*data.g_target);
  EXPECT_GT(eval::MultiJaccard(*data.target, reconstructed), 0.1);
}

TEST(Harness, RegistryBacksEveryTableRoster) {
  for (const std::string& name : api::Table2Roster()) {
    EXPECT_NE(api::MustCreateMethod(name, 1), nullptr) << name;
  }
  for (const std::string& name : api::Table3Roster()) {
    EXPECT_NE(api::MustCreateMethod(name, 1), nullptr) << name;
  }
}

TEST(Harness, TryRunAccuracyReportsUnknownNames) {
  AccuracyOptions options;
  options.num_seeds = 1;
  api::StatusOr<AccuracyResult> bad_method =
      TryRunAccuracy("NoSuchMethod", "crime", options);
  ASSERT_FALSE(bad_method.ok());
  EXPECT_EQ(bad_method.status().code(), api::StatusCode::kNotFound);
  api::StatusOr<AccuracyResult> bad_profile =
      TryRunAccuracy("MaxClique", "no_such_profile", options);
  ASSERT_FALSE(bad_profile.ok());
  EXPECT_EQ(bad_profile.status().code(), api::StatusCode::kNotFound);
  EXPECT_NE(bad_profile.status().message().find("known profiles"),
            std::string::npos);
}

TEST(Harness, RunAccuracyProducesSaneNumbers) {
  AccuracyOptions options;
  options.num_seeds = 1;
  AccuracyResult result = RunAccuracy("MaxClique", "crime", options);
  EXPECT_GE(result.mean, 0.0);
  EXPECT_LE(result.mean, 100.0);
  EXPECT_EQ(result.seeds, 1);
  EXPECT_FALSE(result.out_of_time);
}

TEST(Harness, MariohBeatsMaxCliqueOnEnronProfile) {
  // The paper's headline: multiplicity-aware supervised reconstruction
  // dominates plain clique decomposition on heavy-duplication domains.
  AccuracyOptions options;
  options.num_seeds = 1;
  AccuracyResult marioh = RunAccuracy("MARIOH", "enron", options);
  AccuracyResult maxclique = RunAccuracy("MaxClique", "enron", options);
  EXPECT_GT(marioh.mean, maxclique.mean);
}

}  // namespace
}  // namespace marioh::eval
