// Focused tests for Algorithm 3 (bidirectional search): threshold
// behavior, the r% sub-clique exploration, re-validation against the
// shrinking graph, determinism, and equality with a sequential reference
// loop at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "hypergraph/clique.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace marioh::core {
namespace {

/// Trains a classifier on a small community dataset once per suite.
class BidirectionalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::GeneratedDataset data =
        gen::Generate(gen::ProfileByName("hosts"), 3);
    util::Rng split_rng(4);
    gen::SourceTargetSplit split = gen::SplitHypergraph(
        data.hypergraph.MultiplicityReduced(), &split_rng, 0.5);
    source_ = new Hypergraph(std::move(split.source));
    target_ = new Hypergraph(std::move(split.target));
    g_source_ = new ProjectedGraph(source_->Project());
    g_target_ = new ProjectedGraph(target_->Project());
    classifier_ =
        new CliqueClassifier(FeatureMode::kMultiplicityAware, {});
    util::Rng train_rng(5);
    classifier_->Train(*g_source_, *source_, &train_rng);
  }
  static void TearDownTestSuite() {
    delete classifier_;
    delete g_target_;
    delete g_source_;
    delete target_;
    delete source_;
  }

  static Hypergraph* source_;
  static Hypergraph* target_;
  static ProjectedGraph* g_source_;
  static ProjectedGraph* g_target_;
  static CliqueClassifier* classifier_;
};

Hypergraph* BidirectionalTest::source_ = nullptr;
Hypergraph* BidirectionalTest::target_ = nullptr;
ProjectedGraph* BidirectionalTest::g_source_ = nullptr;
ProjectedGraph* BidirectionalTest::g_target_ = nullptr;
CliqueClassifier* BidirectionalTest::classifier_ = nullptr;

TEST_F(BidirectionalTest, ThetaOnePutsEverythingInQneg) {
  // Scores are sigmoid outputs < 1, so theta = 1 means no clique passes
  // Phase 1; only Phase 2 sub-clique exploration can accept.
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 1.0;
  options.r_percent = 100.0;
  util::Rng rng(7);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.accepted_phase1, 0u);
  // Sub-cliques are scored but cannot pass theta = 1 either.
  EXPECT_EQ(stats.accepted_phase2, 0u);
  EXPECT_EQ(h.num_total_edges(), 0u);
  EXPECT_EQ(g.TotalWeight(), g_target_->TotalWeight());  // untouched
}

TEST_F(BidirectionalTest, RZeroDisablesSubcliqueSampling) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.99;  // keep most cliques below threshold
  options.r_percent = 0.0;
  util::Rng rng(8);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.subcliques_scored, 0u);
}

TEST_F(BidirectionalTest, RHundredExploresEveryNegClique) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 1.0;  // everything in Q_neg
  options.r_percent = 100.0;
  util::Rng rng(9);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  // One sample per size k in [2, |Q|-1] per clique: the total equals
  // sum over cliques of (|Q| - 2); verify it is positive and bounded.
  size_t upper = 0;
  for (const NodeSet& q : EnumerateMaximalCliques(*g_target_).cliques.ToNodeSets()) {
    upper += q.size() > 2 ? q.size() - 2 : 0;
  }
  EXPECT_LE(stats.subcliques_scored, upper);
  EXPECT_GT(upper, 0u);
}

TEST_F(BidirectionalTest, ThetaZeroConsumesWeightEveryIteration) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.0;
  util::Rng rng(10);
  uint64_t before = g.TotalWeight();
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  EXPECT_GT(stats.accepted_phase1, 0u);
  EXPECT_LT(g.TotalWeight(), before);
}

TEST_F(BidirectionalTest, AcceptedHyperedgesAreCliquesOfPreGraph) {
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.3;
  util::Rng rng(11);
  BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    EXPECT_TRUE(g_target_->IsClique(e));
  }
}

TEST_F(BidirectionalTest, WeightConservation) {
  // Weight removed from the graph equals the total pairwise footprint of
  // the accepted hyperedges.
  ProjectedGraph g = *g_target_;
  Hypergraph h(g.num_nodes());
  BidirectionalOptions options;
  options.theta = 0.2;
  util::Rng rng(12);
  uint64_t before = g.TotalWeight();
  BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  uint64_t footprint = 0;
  for (const auto& [e, m] : h.edges()) {
    footprint += static_cast<uint64_t>(e.size() * (e.size() - 1) / 2) * m;
  }
  EXPECT_EQ(before - g.TotalWeight(), footprint);
}

TEST_F(BidirectionalTest, DeterministicGivenSeed) {
  BidirectionalOptions options;
  options.theta = 0.5;
  ProjectedGraph g1 = *g_target_;
  ProjectedGraph g2 = *g_target_;
  Hypergraph h1(g1.num_nodes()), h2(g2.num_nodes());
  util::Rng r1(13), r2(13);
  BidirectionalSearch(&g1, CsrGraph(g1), *classifier_, options, &r1, &h1);
  BidirectionalSearch(&g2, CsrGraph(g2), *classifier_, options, &r2, &h2);
  EXPECT_EQ(h1.UniqueEdges(), h2.UniqueEdges());
}

TEST_F(BidirectionalTest, EmptyGraphIsNoOp) {
  ProjectedGraph g(10);
  Hypergraph h(10);
  BidirectionalOptions options;
  util::Rng rng(14);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.maximal_cliques, 0u);
  EXPECT_EQ(h.num_total_edges(), 0u);
}

TEST_F(BidirectionalTest, Size2CliquesHaveNoSubcliques) {
  // A graph that is a single edge: in Q_neg at theta = 1, but k ranges
  // over [2, |Q|-1] = empty, so nothing is scored.
  ProjectedGraph g(2);
  g.AddWeight(0, 1, 1);
  Hypergraph h(2);
  BidirectionalOptions options;
  options.theta = 1.0;
  options.r_percent = 100.0;
  util::Rng rng(15);
  BidirectionalStats stats =
      BidirectionalSearch(&g, CsrGraph(g), *classifier_, options, &rng, &h);
  EXPECT_EQ(stats.subcliques_scored, 0u);
}

/// What one iteration leaves behind, for comparing two implementations.
struct IterationOutcome {
  Hypergraph h;
  ProjectedGraph g;
  BidirectionalStats stats;
};

/// In-test reference of Algorithm 3 as a plain sequential loop on the
/// mutable graph: every clique scored one at a time with
/// `Score(const ProjectedGraph&, ...)`, Phase 2 sampling and scoring each
/// sub-clique in turn against the graph Phase 1 left behind.
IterationOutcome ReferenceIteration(const ProjectedGraph& start,
                                    const CliqueClassifier& classifier,
                                    double theta, double r_percent,
                                    uint64_t seed) {
  IterationOutcome out{Hypergraph(start.num_nodes()), start, {}};
  util::Rng rng(seed);
  using Scored = std::pair<double, NodeSet>;
  auto best_first = [](const Scored& a, const Scored& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  auto try_apply = [&out](const NodeSet& q) {
    if (!out.g.IsClique(q)) return false;
    out.h.AddEdge(q, 1);
    out.g.PeelClique(q);
    out.stats.touched_nodes.insert(out.stats.touched_nodes.end(), q.begin(),
                                   q.end());
    return true;
  };
  std::vector<Scored> pos, rest;
  for (NodeSet& q : EnumerateMaximalCliques(start).cliques.ToNodeSets()) {
    double s = classifier.Score(start, q, /*is_maximal=*/true);
    (s > theta ? pos : rest).push_back({s, std::move(q)});
  }
  std::sort(pos.begin(), pos.end(), best_first);
  for (const Scored& sc : pos) {
    if (try_apply(sc.second)) ++out.stats.accepted_phase1;
  }
  std::sort(rest.begin(), rest.end(), [](const Scored& a, const Scored& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  size_t take = std::min(
      rest.size(), static_cast<size_t>(std::ceil(
                       r_percent / 100.0 * static_cast<double>(rest.size()))));
  std::vector<Scored> subs;
  for (size_t i = 0; i < take; ++i) {
    const NodeSet& q = rest[i].second;
    for (size_t k = 2; k < q.size(); ++k) {
      NodeSet sub = rng.SampleWithoutReplacement(q, k);
      Canonicalize(&sub);
      double s = classifier.Score(out.g, sub, /*is_maximal=*/false);
      ++out.stats.subcliques_scored;
      if (s > theta) subs.push_back({s, std::move(sub)});
    }
  }
  std::sort(subs.begin(), subs.end(), best_first);
  for (const Scored& sc : subs) {
    if (try_apply(sc.second)) ++out.stats.accepted_phase2;
  }
  Canonicalize(&out.stats.touched_nodes);
  return out;
}

/// Runs BidirectionalSearch and the reference from the same graph and rng
/// seed at 1, 2 and 8 threads, and requires identical outcomes.
void ExpectMatchesReference(const ProjectedGraph& start,
                           const CliqueClassifier& classifier, double theta,
                           double r_percent, uint64_t seed) {
  IterationOutcome want =
      ReferenceIteration(start, classifier, theta, r_percent, seed);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IterationOutcome got{Hypergraph(start.num_nodes()), start, {}};
    BidirectionalOptions options;
    options.theta = theta;
    options.r_percent = r_percent;
    options.num_threads = threads;
    util::Rng rng(seed);
    got.stats = BidirectionalSearch(&got.g, CsrGraph(got.g), classifier,
                                    options, &rng, &got.h);
    EXPECT_EQ(got.h.edges(), want.h.edges());
    for (NodeId u = 0; u < start.num_nodes(); ++u) {
      ASSERT_TRUE(
          std::ranges::equal(got.g.Neighbors(u), want.g.Neighbors(u)))
          << "row " << u;
    }
    EXPECT_EQ(got.stats.subcliques_scored, want.stats.subcliques_scored);
    EXPECT_EQ(got.stats.accepted_phase1, want.stats.accepted_phase1);
    EXPECT_EQ(got.stats.accepted_phase2, want.stats.accepted_phase2);
    EXPECT_EQ(got.stats.touched_nodes, want.stats.touched_nodes);
    EXPECT_FALSE(got.stats.cancelled);
  }
}

/// Disjoint 6-node blocks, each the projection of all its pairs plus a
/// dozen random 3- and 4-node hyperedges: every block is one maximal
/// clique whose uneven weights make it a poor hyperedge candidate, while
/// some of its sub-cliques look like real ones.
ProjectedGraph DenseBlocks(uint64_t seed) {
  constexpr NodeId kBlock = 6;
  constexpr NodeId kBlocks = 6;
  util::Rng rng(seed);
  Hypergraph h(kBlock * kBlocks);
  for (NodeId base = 0; base < kBlock * kBlocks; base += kBlock) {
    NodeSet block;
    for (NodeId u = base; u < base + kBlock; ++u) block.push_back(u);
    for (NodeId u : block) {
      for (NodeId v = u + 1; v < base + kBlock; ++v) h.AddEdge({u, v}, 1);
    }
    for (int t = 0; t < 12; ++t) {
      NodeSet e =
          rng.SampleWithoutReplacement(block, 3 + rng.UniformIndex(2));
      Canonicalize(&e);
      h.AddEdge(e, 1);
    }
  }
  return h.Project();
}

TEST_F(BidirectionalTest, Phase2OnlyMatchesSequentialReference) {
  // theta = the best maximal-clique score: no maximal clique passes
  // Phase 1, so every accepted hyperedge is a Phase 2 sub-clique.
  ProjectedGraph g = DenseBlocks(5);
  double theta = 0.0;
  for (const NodeSet& q : EnumerateMaximalCliques(g).cliques.ToNodeSets()) {
    theta = std::max(theta, classifier_->Score(g, q, true));
  }
  IterationOutcome want =
      ReferenceIteration(g, *classifier_, theta, 100.0, 31);
  ASSERT_EQ(want.stats.accepted_phase1, 0u);
  ASSERT_GT(want.stats.accepted_phase2, 0u);
  ExpectMatchesReference(g, *classifier_, theta, 100.0, 31);
}

TEST_F(BidirectionalTest, Phase2AfterPeelsMatchesSequentialReference) {
  // Both phases accept: Phase 2 must score on the graph Phase 1 peeled.
  IterationOutcome want =
      ReferenceIteration(*g_target_, *classifier_, 0.5, 100.0, 32);
  ASSERT_GT(want.stats.accepted_phase1, 0u);
  ASSERT_GT(want.stats.subcliques_scored, 0u);
  ExpectMatchesReference(*g_target_, *classifier_, 0.5, 100.0, 32);
}

/// Runs `iterations` rounds of Algorithm 1's loop (theta decaying by
/// 0.05 a round, the snapshot patched between rounds) twice from
/// `start`, once re-enumerating and re-scoring every round and once with
/// a `CarriedCliques`, and requires the same hypergraph, graph and
/// per-round stats. Sums the carried run's clique counts into `total`.
void ExpectCarriedMatchesFresh(const ProjectedGraph& start,
                               const CliqueClassifier& classifier,
                               int iterations, int threads,
                               BidirectionalStats* total) {
  ProjectedGraph g_fresh = start;
  ProjectedGraph g_carried = start;
  Hypergraph h_fresh(start.num_nodes());
  Hypergraph h_carried(start.num_nodes());
  util::Rng rng_fresh(41);
  util::Rng rng_carried(41);
  CsrGraph snapshot(start);
  CarriedCliques carried;
  double theta = 0.9;
  for (int it = 0; it < iterations && !g_fresh.Empty(); ++it) {
    SCOPED_TRACE("iteration " + std::to_string(it));
    BidirectionalOptions options;
    options.theta = theta;
    options.num_threads = threads;
    BidirectionalStats fresh = BidirectionalSearch(
        &g_fresh, snapshot, classifier, options, &rng_fresh, &h_fresh);
    BidirectionalStats got =
        BidirectionalSearch(&g_carried, snapshot, classifier, options,
                            &rng_carried, &h_carried, &carried);
    EXPECT_EQ(fresh.cliques_carried, 0u);
    EXPECT_EQ(fresh.scores_reused, 0u);
    EXPECT_EQ(got.maximal_cliques, fresh.maximal_cliques);
    EXPECT_EQ(got.accepted_phase1, fresh.accepted_phase1);
    EXPECT_EQ(got.accepted_phase2, fresh.accepted_phase2);
    EXPECT_EQ(got.subcliques_scored, fresh.subcliques_scored);
    EXPECT_EQ(got.cliques_truncated, fresh.cliques_truncated);
    EXPECT_FALSE(got.cancelled);
    ASSERT_EQ(got.touched_nodes, fresh.touched_nodes);
    ASSERT_EQ(h_carried.edges(), h_fresh.edges());
    total->maximal_cliques += got.maximal_cliques;
    total->cliques_carried += got.cliques_carried;
    total->scores_reused += got.scores_reused;
    carried.touched = got.touched_nodes;
    snapshot = CsrGraph(snapshot, g_fresh, got.touched_nodes);
    theta = std::max(theta - 0.05, 0.0);
  }
  for (NodeId u = 0; u < start.num_nodes(); ++u) {
    EXPECT_TRUE(
        std::ranges::equal(g_carried.Neighbors(u), g_fresh.Neighbors(u)))
        << "row " << u;
  }
}

TEST_F(BidirectionalTest, CarriedCliquesMatchFreshEnumerationAndScoring) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BidirectionalStats total;
    ExpectCarriedMatchesFresh(*g_target_, *classifier_, 20, threads, &total);
    EXPECT_GT(total.cliques_carried, 0u);
    EXPECT_GT(total.scores_reused, 0u);
    EXPECT_LE(total.scores_reused, total.cliques_carried);
  }
}

TEST_F(BidirectionalTest, StructuralFeaturesRescoreEveryCarriedClique) {
  // Structural features read the rows of the members' neighbors too, so
  // no carried clique may keep its score.
  CliqueClassifier structural(FeatureMode::kStructural, {});
  util::Rng train_rng(5);
  structural.Train(*g_source_, *source_, &train_rng);
  ASSERT_FALSE(structural.extractor().ReadsOnlyMemberRows());
  ASSERT_TRUE(classifier_->extractor().ReadsOnlyMemberRows());
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BidirectionalStats total;
    ExpectCarriedMatchesFresh(*g_target_, structural, 20, threads, &total);
    EXPECT_GT(total.cliques_carried, 0u);
    EXPECT_EQ(total.scores_reused, 0u);
  }
}

}  // namespace
}  // namespace marioh::core
