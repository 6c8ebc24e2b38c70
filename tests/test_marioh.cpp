// End-to-end tests of the MARIOH reconstructor (Algorithm 1): classifier
// training, bidirectional search behavior, variants, termination, and the
// key correctness property — the reconstruction's projection matches the
// input projected graph's edge multiset exactly (every unit of edge weight
// is consumed by exactly one accepted hyperedge, plus filtering).

#include <gtest/gtest.h>

#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "core/marioh.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace marioh::core {
namespace {

/// Small but non-trivial training pair: community hypergraph.
struct Fixture {
  Hypergraph source;
  Hypergraph target;
  ProjectedGraph g_source;
  ProjectedGraph g_target;
};

Fixture MakeFixture(uint64_t seed) {
  gen::DomainProfile profile = gen::ProfileByName("crime");
  gen::GeneratedDataset data = gen::Generate(profile, seed);
  util::Rng rng(seed ^ 0xf00dULL);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph.MultiplicityReduced(), &rng, 0.5);
  Fixture fx;
  fx.g_source = split.source.Project();
  fx.g_target = split.target.Project();
  fx.source = std::move(split.source);
  fx.target = std::move(split.target);
  return fx;
}

TEST(CliqueClassifier, TrainsAndScoresInUnitInterval) {
  Fixture fx = MakeFixture(1);
  CliqueClassifier classifier(FeatureMode::kMultiplicityAware, {});
  util::Rng rng(2);
  classifier.Train(fx.g_source, fx.source, &rng);
  EXPECT_TRUE(classifier.trained());
  auto [pos, neg] = classifier.train_counts();
  EXPECT_GT(pos, 0u);
  EXPECT_GT(neg, 0u);
  for (const auto& [e, m] : fx.source.edges()) {
    (void)m;
    double s = classifier.Score(fx.g_source, e, false);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(CliqueClassifier, PositivesScoreHigherThanRandomPairsOnAverage) {
  Fixture fx = MakeFixture(3);
  CliqueClassifier classifier(FeatureMode::kMultiplicityAware, {});
  util::Rng rng(4);
  classifier.Train(fx.g_source, fx.source, &rng);
  double pos_mean = 0.0;
  size_t pos_n = 0;
  for (const auto& [e, m] : fx.source.edges()) {
    (void)m;
    pos_mean += classifier.Score(fx.g_source, e, false);
    ++pos_n;
  }
  pos_mean /= static_cast<double>(pos_n);
  EXPECT_GT(pos_mean, 0.5);
}

TEST(CliqueClassifier, SemiSupervisedFractionReducesPositives) {
  Fixture fx = MakeFixture(5);
  ClassifierOptions full_opts;
  CliqueClassifier full(FeatureMode::kMultiplicityAware, full_opts);
  ClassifierOptions semi_opts;
  semi_opts.supervision_fraction = 0.2;
  CliqueClassifier semi(FeatureMode::kMultiplicityAware, semi_opts);
  util::Rng r1(6), r2(6);
  full.Train(fx.g_source, fx.source, &r1);
  semi.Train(fx.g_source, fx.source, &r2);
  EXPECT_LT(semi.train_counts().first, full.train_counts().first);
}

TEST(CliqueClassifier, HardNegativeSamplingTrainsAndScores) {
  Fixture fx = MakeFixture(6);
  ClassifierOptions options;
  options.hard_negative_fraction = 0.5;
  CliqueClassifier classifier(FeatureMode::kMultiplicityAware, options);
  util::Rng rng(7);
  classifier.Train(fx.g_source, fx.source, &rng);
  EXPECT_TRUE(classifier.trained());
  EXPECT_GT(classifier.train_counts().second, 0u);
  // Positives must still dominate random pairs on average.
  double pos_mean = 0.0;
  size_t n = 0;
  for (const auto& [e, m] : fx.source.edges()) {
    (void)m;
    pos_mean += classifier.Score(fx.g_source, e, false);
    ++n;
  }
  EXPECT_GT(pos_mean / static_cast<double>(n), 0.5);
}

TEST(BidirectionalSearch, AcceptsObviousCliqueAtLowTheta) {
  Fixture fx = MakeFixture(7);
  CliqueClassifier classifier(FeatureMode::kMultiplicityAware, {});
  util::Rng rng(8);
  classifier.Train(fx.g_source, fx.source, &rng);

  ProjectedGraph g = fx.g_target;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.0;  // accept everything above score 0
  util::Rng search_rng(9);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), classifier, options,
                          &search_rng, &h);
  EXPECT_GT(stats.maximal_cliques, 0u);
  EXPECT_GT(stats.accepted_phase1, 0u);
  EXPECT_GT(h.num_total_edges(), 0u);
}

TEST(BidirectionalSearch, Phase2DisabledReproducesMariohB) {
  Fixture fx = MakeFixture(10);
  CliqueClassifier classifier(FeatureMode::kMultiplicityAware, {});
  util::Rng rng(11);
  classifier.Train(fx.g_source, fx.source, &rng);

  ProjectedGraph g = fx.g_target;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.99;  // keep most cliques in Q_neg
  options.explore_subcliques = false;
  util::Rng search_rng(12);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), classifier, options,
                          &search_rng, &h);
  EXPECT_EQ(stats.subcliques_scored, 0u);
  EXPECT_EQ(stats.accepted_phase2, 0u);
}

TEST(Marioh, ReconstructionConsumesEntireGraph) {
  // The loop runs until G' is empty, so the projection of the
  // reconstruction must equal the input projection exactly (same weighted
  // edge multiset): reconstruction is a lossless re-explanation of G.
  Fixture fx = MakeFixture(13);
  Marioh marioh;
  marioh.Train(fx.g_source, fx.source);
  Hypergraph reconstructed = marioh.Reconstruct(fx.g_target);
  ProjectedGraph reprojected = reconstructed.Project();
  auto expected = fx.g_target.Edges();
  auto actual = reprojected.Edges();
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].u, actual[i].u);
    EXPECT_EQ(expected[i].v, actual[i].v);
    EXPECT_EQ(expected[i].weight, actual[i].weight)
        << "edge (" << expected[i].u << "," << expected[i].v << ")";
  }
}

TEST(Marioh, RecoversDisjointCliquesExactly) {
  // Three disjoint hyperedges: trivially recoverable; Jaccard must be 1.
  Hypergraph truth;
  truth.AddEdge({0, 1, 2}, 1);
  truth.AddEdge({3, 4}, 1);
  truth.AddEdge({5, 6, 7, 8}, 1);
  ProjectedGraph g = truth.Project();
  Marioh marioh;
  marioh.Train(g, truth);  // train on itself (source == target domain)
  Hypergraph reconstructed = marioh.Reconstruct(g);
  EXPECT_DOUBLE_EQ(eval::Jaccard(truth, reconstructed), 1.0);
}

TEST(Marioh, VariantOptionsAreApplied) {
  MariohOptions base;
  MariohOptions m = OptionsForVariant(MariohVariant::kNoMulti, base);
  EXPECT_EQ(m.feature_mode, FeatureMode::kStructural);
  MariohOptions f = OptionsForVariant(MariohVariant::kNoFilter, base);
  EXPECT_FALSE(f.use_filtering);
  MariohOptions b = OptionsForVariant(MariohVariant::kNoBidir, base);
  EXPECT_FALSE(b.use_bidirectional);
  MariohOptions full = OptionsForVariant(MariohVariant::kFull, base);
  EXPECT_TRUE(full.use_filtering);
  EXPECT_TRUE(full.use_bidirectional);
}

TEST(Marioh, AllVariantsTerminateAndConsumeGraph) {
  Fixture fx = MakeFixture(17);
  for (MariohVariant variant :
       {MariohVariant::kFull, MariohVariant::kNoMulti,
        MariohVariant::kNoFilter, MariohVariant::kNoBidir}) {
    Marioh marioh(OptionsForVariant(variant));
    marioh.Train(fx.g_source, fx.source);
    Hypergraph reconstructed = marioh.Reconstruct(fx.g_target);
    EXPECT_EQ(reconstructed.Project().TotalWeight(),
              fx.g_target.TotalWeight());
  }
}

TEST(Marioh, DeterministicGivenSeed) {
  Fixture fx = MakeFixture(19);
  MariohOptions options;
  options.seed = 77;
  Marioh a(options), b(options);
  a.Train(fx.g_source, fx.source);
  b.Train(fx.g_source, fx.source);
  Hypergraph ha = a.Reconstruct(fx.g_target);
  Hypergraph hb = b.Reconstruct(fx.g_target);
  EXPECT_EQ(ha.UniqueEdges(), hb.UniqueEdges());
  EXPECT_DOUBLE_EQ(eval::MultiJaccard(ha, hb), 1.0);
}

TEST(Marioh, ReconstructionStatsTimePhases) {
  Fixture fx = MakeFixture(23);
  Marioh marioh;
  marioh.Train(fx.g_source, fx.source);
  ReconstructionStats stats;
  marioh.Reconstruct(fx.g_target, &stats);
  EXPECT_GT(stats.bidirectional_seconds, 0.0);
  EXPECT_GE(stats.filtering_seconds, 0.0);
  // The per-iteration steps are disjoint parts of the loop's time.
  for (double part : {stats.update_seconds, stats.score_seconds,
                      stats.peel_seconds, stats.patch_seconds}) {
    EXPECT_GE(part, 0.0);
  }
  EXPECT_GT(stats.update_seconds, 0.0);
  EXPECT_GT(stats.score_seconds, 0.0);
  EXPECT_LE(stats.update_seconds + stats.score_seconds +
                stats.peel_seconds + stats.patch_seconds,
            stats.bidirectional_seconds);
}

TEST(Marioh, EmptyTargetGraphYieldsFilteredOnlyResult) {
  Fixture fx = MakeFixture(29);
  Marioh marioh;
  marioh.Train(fx.g_source, fx.source);
  ProjectedGraph empty(10);
  Hypergraph reconstructed = marioh.Reconstruct(empty);
  EXPECT_EQ(reconstructed.num_total_edges(), 0u);
}

TEST(Marioh, MultiplicityPreservedReconstruction) {
  // A repeated pair plus a triangle; multiplicities must be recoverable.
  Hypergraph truth;
  truth.AddEdge({0, 1}, 4);
  truth.AddEdge({2, 3, 4}, 2);
  ProjectedGraph g = truth.Project();
  Marioh marioh;
  marioh.Train(g, truth);
  Hypergraph reconstructed = marioh.Reconstruct(g);
  EXPECT_EQ(reconstructed.Multiplicity({0, 1}), 4u);
  // The triangle appears twice in the projection (weight 2 per edge).
  EXPECT_EQ(reconstructed.Project().Weight(2, 3), 2u);
}

}  // namespace
}  // namespace marioh::core
