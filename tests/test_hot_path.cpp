// Property tests for the reconstruction loop's hot path: the CSR snapshot
// fast path must agree exactly with the mutable graph's path (clique
// sets, MHH values, features, scores), and every parallel kernel must
// produce identical results for any thread count — the determinism
// contract of docs/ARCHITECTURE.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "core/features.hpp"
#include "core/filtering.hpp"
#include "core/marioh.hpp"
#include "core/motif.hpp"
#include "gen/hypercl.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

ProjectedGraph RandomGraph(uint64_t seed) {
  util::Rng rng(seed);
  Hypergraph h = gen::HyperClLike(80, 160, 3.2, 0.7, &rng);
  return h.Project();
}

class HotPathEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HotPathEquivalence, CliqueSetsMatchAcrossPathsAndThreadCounts) {
  ProjectedGraph g = RandomGraph(GetParam());
  CsrGraph csr(g);

  std::vector<NodeSet> reference = MaximalCliquesHashMapReference(g);
  CliqueOptions one_thread;
  CliqueStore single = EnumerateMaximalCliques(csr, one_thread).cliques;
  for (int threads : {1, 2, 8}) {
    CliqueOptions options;
    options.num_threads = threads;
    MaximalCliqueResult result = EnumerateMaximalCliques(csr, options);
    EXPECT_FALSE(result.truncated);
    // The arena output must match the sequential mutable-graph oracle
    // clique-for-clique, and the arena itself (offsets included) must be
    // identical for any thread count.
    EXPECT_EQ(result.cliques.ToNodeSets(), reference)
        << "threads=" << threads;
    EXPECT_TRUE(result.cliques == single) << "threads=" << threads;
  }
}

TEST_P(HotPathEquivalence, MhhAndMotifsMatchOnEveryEdge) {
  ProjectedGraph g = RandomGraph(GetParam());
  CsrGraph csr(g);
  for (const auto& e : g.Edges()) {
    EXPECT_EQ(csr.Mhh(e.u, e.v), g.Mhh(e.u, e.v));
    EXPECT_EQ(csr.CommonNeighborCount(e.u, e.v),
              g.CommonNeighborCount(e.u, e.v));
    EXPECT_EQ(core::TrianglesThroughEdge(csr, e.u, e.v),
              core::TrianglesThroughEdge(g, e.u, e.v));
    EXPECT_EQ(core::SquaresThroughEdge(csr, e.u, e.v),
              core::SquaresThroughEdge(g, e.u, e.v));
    // A tight cap exercises the ascending-id truncation on both paths.
    EXPECT_EQ(core::SquaresThroughEdge(csr, e.u, e.v, 3),
              core::SquaresThroughEdge(g, e.u, e.v, 3));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(core::ClusteringCoefficient(csr, u),
              core::ClusteringCoefficient(g, u));
    EXPECT_EQ(csr.WeightedDegree(u), g.WeightedDegree(u));
  }
  // IsClique agrees on actual cliques and on perturbed non-cliques.
  for (const NodeSet& q : EnumerateMaximalCliques(g).cliques.ToNodeSets()) {
    EXPECT_TRUE(csr.IsClique(q));
    NodeSet broken = q;
    broken.push_back(static_cast<NodeId>(g.num_nodes() - 1));
    Canonicalize(&broken);
    EXPECT_EQ(csr.IsClique(broken), g.IsClique(broken));
  }
}

TEST_P(HotPathEquivalence, FeaturesMatchBitForBitInAllModes) {
  ProjectedGraph g = RandomGraph(GetParam());
  CsrGraph csr(g);
  std::vector<NodeSet> cliques = EnumerateMaximalCliques(g).cliques.ToNodeSets();
  ASSERT_FALSE(cliques.empty());
  for (core::FeatureMode mode :
       {core::FeatureMode::kMultiplicityAware, core::FeatureMode::kStructural,
        core::FeatureMode::kMotif}) {
    core::FeatureExtractor extractor(mode);
    for (const NodeSet& q : cliques) {
      la::Vector hash_path = extractor.Extract(g, q, true);
      la::Vector csr_path = extractor.Extract(csr, q, true);
      EXPECT_EQ(hash_path, csr_path);
    }
  }
}

TEST_P(HotPathEquivalence, ExtractIntoMatchesExtractOnColdAndWarmSnapshots) {
  // Phase 1 scores maximal cliques on a snapshot, fills its MHH column,
  // peels; Phase 2 scores sub-cliques on the patched snapshot, some of
  // whose pairs the peels removed. At every stage the allocation-free
  // rows must equal Extract on the mutable graph, bit for bit.
  ProjectedGraph g = RandomGraph(GetParam());
  util::Rng rng(GetParam() + 100);
  const CsrGraph cold(g);
  std::vector<NodeSet> cliques =
      EnumerateMaximalCliques(cold).cliques.ToNodeSets();
  ASSERT_FALSE(cliques.empty());
  CsrGraph warm = cold;
  ProjectedGraph peeled = g;
  std::vector<NodeId> touched;
  for (size_t i = 0; i < cliques.size(); i += 3) {
    if (!peeled.IsClique(cliques[i])) continue;
    peeled.PeelClique(cliques[i]);
    touched.insert(touched.end(), cliques[i].begin(), cliques[i].end());
  }
  std::vector<NodeSet> subs;
  for (const NodeSet& q : cliques) {
    if (q.size() < 3) continue;
    NodeSet sub = rng.SampleWithoutReplacement(
        q, static_cast<size_t>(
               rng.UniformInt(2, static_cast<int64_t>(q.size()) - 1)));
    Canonicalize(&sub);
    subs.push_back(sub);
  }
  size_t non_edge_pairs = 0;
  for (core::FeatureMode mode :
       {core::FeatureMode::kMultiplicityAware, core::FeatureMode::kStructural,
        core::FeatureMode::kMotif}) {
    core::FeatureExtractor extractor(mode);
    core::FeatureScratch scratch;
    std::vector<double> row(extractor.dim());
    auto bit_equal = [&](const la::Vector& want) {
      return std::memcmp(row.data(), want.data(),
                         row.size() * sizeof(double)) == 0;
    };
    // Two passes: the first fills `warm`'s column, the second reads it.
    for (int pass = 0; pass < 2; ++pass) {
      for (const NodeSet& q : cliques) {
        extractor.ExtractInto(warm, q, true, &scratch, row);
        EXPECT_TRUE(bit_equal(extractor.Extract(g, q, true)))
            << "mode " << static_cast<int>(mode) << ", pass " << pass;
      }
    }
    const CsrGraph after_phase1(warm, peeled, touched);
    for (const NodeSet& q : subs) {
      extractor.ExtractInto(after_phase1, q, false, &scratch, row);
      EXPECT_TRUE(bit_equal(extractor.Extract(peeled, q, false)))
          << "mode " << static_cast<int>(mode);
      if (mode != core::FeatureMode::kMultiplicityAware) continue;
      for (size_t i = 0; i < q.size(); ++i) {
        for (size_t j = i + 1; j < q.size(); ++j) {
          non_edge_pairs += after_phase1.HasEdge(q[i], q[j]) ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(non_edge_pairs, 0u) << "no sub-clique lost a pair to the peels";
}

TEST(HotPathFeatures, LargeCliquesMatchBitwiseInAllModes) {
  // Planted hyperedges of 12-15 nodes over a HyperCL background give
  // maximal cliques of k >= 12 with uneven weights, overlapping hubs and
  // long pair loops: CSR and mutable-graph vectors must agree bit for
  // bit, on the maximal cliques and on random sub-cliques of them.
  util::Rng rng(41);
  Hypergraph h = gen::HyperClLike(100, 150, 3.2, 0.7, &rng);
  NodeSet all(100);
  for (NodeId u = 0; u < 100; ++u) all[u] = u;
  for (int t = 0; t < 4; ++t) {
    NodeSet e = rng.SampleWithoutReplacement(
        all, static_cast<size_t>(rng.UniformInt(12, 15)));
    Canonicalize(&e);
    h.AddEdge(e, static_cast<uint32_t>(rng.UniformInt(1, 3)));
  }
  ProjectedGraph g = h.Project();
  CsrGraph csr(g);
  std::vector<NodeSet> cliques;
  size_t largest = 0;
  for (const NodeSet& q : EnumerateMaximalCliques(g).cliques.ToNodeSets()) {
    if (q.size() < 8) continue;  // small cliques: see the suite above
    largest = std::max(largest, q.size());
    cliques.push_back(q);
    NodeSet sub = rng.SampleWithoutReplacement(q, q.size() - 1);
    Canonicalize(&sub);
    cliques.push_back(sub);
  }
  ASSERT_GE(largest, 12u);
  for (core::FeatureMode mode :
       {core::FeatureMode::kMultiplicityAware, core::FeatureMode::kStructural,
        core::FeatureMode::kMotif}) {
    core::FeatureExtractor extractor(mode);
    core::FeatureScratch scratch;
    for (const NodeSet& q : cliques) {
      la::Vector hash_path = extractor.Extract(g, q, false, &scratch);
      la::Vector csr_path = extractor.Extract(csr, q, false);
      ASSERT_EQ(hash_path.size(), csr_path.size());
      EXPECT_EQ(std::memcmp(hash_path.data(), csr_path.data(),
                            hash_path.size() * sizeof(double)),
                0)
          << "mode " << static_cast<int>(mode) << ", k=" << q.size();
    }
  }
}

TEST_P(HotPathEquivalence, FilteringIsThreadCountInvariant) {
  ProjectedGraph base = RandomGraph(GetParam());
  ProjectedGraph g1 = base;
  Hypergraph h1(base.num_nodes());
  core::FilteringStats s1 = core::Filtering(&g1, &h1, 1);
  for (int threads : {2, 8}) {
    ProjectedGraph g = base;
    Hypergraph h(base.num_nodes());
    core::FilteringStats s = core::Filtering(&g, &h, threads);
    EXPECT_EQ(s.edges_identified, s1.edges_identified);
    EXPECT_EQ(s.total_multiplicity, s1.total_multiplicity);
    EXPECT_EQ(h.edges(), h1.edges());
    EXPECT_EQ(g.Edges().size(), g1.Edges().size());
  }
}

/// Asserts two snapshots are bit-identical: same nodes, rows, weights,
/// and precomputed aggregates.
void ExpectCsrIdentical(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.TotalWeight(), b.TotalWeight());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    auto an = a.Neighbors(u);
    auto bn = b.Neighbors(u);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "neighbor row differs at node " << u;
    auto aw = a.Weights(u);
    auto bw = b.Weights(u);
    ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end()))
        << "weight row differs at node " << u;
    EXPECT_EQ(a.WeightedDegree(u), b.WeightedDegree(u)) << "node " << u;
  }
}

TEST_P(HotPathEquivalence, PatchedSnapshotMatchesFromScratchAfterPeels) {
  // Randomized peel sequences: repeatedly peel a random subset of the
  // current maximal cliques, patch the running snapshot with the touched
  // nodes, and demand bit-identity with a from-scratch build — including
  // chained patches of patches, as the reconstruction loop produces.
  ProjectedGraph g = RandomGraph(GetParam());
  CsrGraph snapshot(g);
  util::Rng rng(GetParam() * 977 + 13);
  for (int round = 0; round < 4 && !g.Empty(); ++round) {
    MaximalCliqueResult enumerated = EnumerateMaximalCliques(snapshot);
    std::vector<NodeId> touched;
    for (CliqueView q : enumerated.cliques) {
      if (!rng.Bernoulli(0.3)) continue;
      if (!g.IsClique(q)) continue;  // an earlier peel may have broken it
      g.PeelClique(q);
      touched.insert(touched.end(), q.begin(), q.end());
    }
    Canonicalize(&touched);
    snapshot = CsrGraph(snapshot, g, touched);
    ExpectCsrIdentical(snapshot, CsrGraph(g));
  }
  // An empty touched set must reproduce the snapshot exactly.
  CsrGraph unchanged(snapshot, g, {});
  ExpectCsrIdentical(unchanged, snapshot);
}

TEST_P(HotPathEquivalence, PatchIsThreadCountInvariant) {
  ProjectedGraph g = RandomGraph(GetParam());
  CsrGraph before(g);
  // Peel the first few maximal cliques to dirty some rows.
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(before);
  std::vector<NodeId> touched;
  size_t peels = 0;
  for (CliqueView q : enumerated.cliques) {
    if (!g.IsClique(q)) continue;
    g.PeelClique(q);
    touched.insert(touched.end(), q.begin(), q.end());
    if (++peels == 5) break;
  }
  Canonicalize(&touched);
  CsrGraph one(before, g, touched, 1);
  ExpectCsrIdentical(one, CsrGraph(g));
  for (int threads : {2, 8, 0}) {
    CsrGraph many(before, g, touched, threads);
    ExpectCsrIdentical(many, one);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, HotPathEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(HotPathTruncation, CapFlagsAndBoundsTheResult) {
  // A matching of 2,000 disjoint edges = 2,000 maximal cliques, one per
  // root pair. A cap of 777 falls inside a range at every thread count
  // (ranges hold 2,000 / (8 × threads) roots each), so the surviving
  // prefix must not depend on where the ranges are cut.
  constexpr NodeId kEdges = 2000;
  ProjectedGraph g(2 * kEdges);
  for (NodeId u = 0; u < 2 * kEdges; u += 2) g.AddWeight(u, u + 1, 1);
  CsrGraph csr(g);

  CliqueOptions capped;
  capped.max_cliques = 777;
  capped.num_threads = 1;
  MaximalCliqueResult one = EnumerateMaximalCliques(csr, capped);
  EXPECT_TRUE(one.truncated);
  EXPECT_EQ(one.cliques.size(), 777u);
  for (int threads : {2, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    capped.num_threads = threads;
    MaximalCliqueResult result = EnumerateMaximalCliques(csr, capped);
    EXPECT_TRUE(result.truncated);
    EXPECT_TRUE(result.cliques == one.cliques);
  }

  MaximalCliqueResult full = EnumerateMaximalCliques(csr);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.cliques.size(), size_t{kEdges});
}

TEST(HotPathScoring, ScoreAllMatchesScalarScoresForAnyThreadCount) {
  util::Rng rng(21);
  Hypergraph h_source = gen::HyperClLike(60, 120, 3.0, 0.7, &rng);
  ProjectedGraph g_source = h_source.Project();
  core::CliqueClassifier classifier(core::FeatureMode::kMultiplicityAware,
                                    {});
  util::Rng train_rng(22);
  classifier.Train(g_source, h_source, &train_rng);

  // Enough cliques for several full ScoreAll blocks plus a ragged last
  // one: the batched forward pass per block must reproduce per-clique
  // Score exactly, for any thread count (which moves the block
  // boundaries).
  util::Rng target_rng(23);
  ProjectedGraph g =
      gen::HyperClLike(200, 420, 3.2, 0.7, &target_rng).Project();
  CsrGraph csr(g);
  CliqueStore store = EnumerateMaximalCliques(csr).cliques;
  std::vector<NodeSet> cliques = store.ToNodeSets();
  const size_t block = core::CliqueClassifier::kScoreBlock;
  ASSERT_GT(cliques.size(), 3 * block);
  ASSERT_NE(cliques.size() % block, 0u);
  std::vector<double> scalar;
  scalar.reserve(cliques.size());
  for (const NodeSet& q : cliques) {
    scalar.push_back(classifier.Score(g, q, true));
  }
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(classifier.ScoreAll(csr, store, true, threads), scalar)
        << "threads=" << threads;
  }
}

TEST(HotPathScoring, ThreadScratchCarriesOverBetweenGraphsOfAnySize) {
  // ScoreAll keeps one feature scratch per thread across calls. Scoring a
  // small graph, then a 16,000-node one, then the small one again must
  // give exactly the scores of a thread with a fresh scratch.
  util::Rng rng(31);
  Hypergraph h_source = gen::HyperClLike(60, 120, 3.0, 0.7, &rng);
  core::CliqueClassifier classifier(core::FeatureMode::kMultiplicityAware,
                                    {});
  util::Rng train_rng(32);
  classifier.Train(h_source.Project(), h_source, &train_rng);
  util::Rng target_rng(33);
  ProjectedGraph small =
      gen::HyperClLike(200, 420, 3.2, 0.7, &target_rng).Project();
  ProjectedGraph large =
      gen::HyperClLike(16000, 9600, 3.0, 0.6, &target_rng).Project();
  ASSERT_EQ(large.num_nodes(), 16000u);
  CliqueStore small_cliques = EnumerateMaximalCliques(small).cliques;
  CliqueStore large_cliques = EnumerateMaximalCliques(large).cliques;
  // Each call scores a fresh snapshot, so no MHH column entry is warm.
  auto fresh_thread_scores = [&](const ProjectedGraph& g,
                                 const CliqueStore& cliques) {
    std::vector<double> scores;
    std::thread([&] {
      scores = classifier.ScoreAll(CsrGraph(g), cliques, true, 1);
    }).join();
    return scores;
  };
  const std::vector<double> want_small =
      fresh_thread_scores(small, small_cliques);
  const std::vector<double> want_large =
      fresh_thread_scores(large, large_cliques);
  for (int threads : {1, 2}) {
    EXPECT_EQ(classifier.ScoreAll(CsrGraph(small), small_cliques, true,
                                  threads),
              want_small)
        << "threads=" << threads;
    EXPECT_EQ(classifier.ScoreAll(CsrGraph(large), large_cliques, true,
                                  threads),
              want_large)
        << "threads=" << threads;
    EXPECT_EQ(classifier.ScoreAll(CsrGraph(small), small_cliques, true,
                                  threads),
              want_small)
        << "threads=" << threads;
  }
}

TEST(HotPathEndToEnd, ReconstructionIsThreadCountInvariant) {
  gen::GeneratedDataset data = gen::Generate(gen::ProfileByName("hosts"), 3);
  util::Rng split_rng(4);
  gen::SourceTargetSplit split = gen::SplitHypergraph(
      data.hypergraph.MultiplicityReduced(), &split_rng, 0.5);
  ProjectedGraph g_source = split.source.Project();
  ProjectedGraph g_target = split.target.Project();

  core::MariohOptions options;
  options.num_threads = 1;
  core::Marioh one(options);
  one.Train(g_source, split.source);
  core::ReconstructionStats stats;
  Hypergraph h_one = one.Reconstruct(g_target, &stats);
  EXPECT_FALSE(stats.cliques_truncated);
  EXPECT_GT(stats.iterations, 0u);

  for (int threads : {4, 0}) {  // explicit fan-out and "all cores"
    options.num_threads = threads;
    core::Marioh many(options);
    many.Train(g_source, split.source);
    Hypergraph h_many = many.Reconstruct(g_target);
    EXPECT_EQ(h_many.edges(), h_one.edges()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace marioh
