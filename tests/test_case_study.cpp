// Regression test for the Fig. 2 case study: MARIOH exactly restores the
// handcrafted ego sub-hypergraph (Jaccard and multi-Jaccard 1.0) from its
// projection, given same-domain training data — the paper's showcase
// example, locked as a test so it can never silently regress.

#include <gtest/gtest.h>

#include "baselines/shyre.hpp"
#include "core/filtering.hpp"
#include "core/marioh.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

Hypergraph EgoHypergraph() {
  Hypergraph ego;
  ego.AddEdge({0, 1, 2}, 1);
  ego.AddEdge({0, 3}, 2);  // the repeated pair of Fig. 2
  ego.AddEdge({0, 4, 5, 6}, 1);
  ego.AddEdge({0, 7}, 1);
  ego.AddEdge({4, 5}, 1);
  ego.AddEdge({8, 9, 10}, 1);
  ego.AddEdge({0, 8, 9, 10}, 1);
  return ego;
}

struct TrainedModels {
  core::Marioh marioh;
  baselines::Shyre shyre;
};

TrainedModels& Models() {
  static TrainedModels* models = [] {
    auto* m = new TrainedModels{core::Marioh(), baselines::Shyre()};
    gen::GeneratedDataset history =
        gen::Generate(gen::ProfileByName("dblp"), 5);
    util::Rng rng(6);
    gen::SourceTargetSplit split =
        gen::SplitHypergraph(history.hypergraph, &rng, 0.5);
    ProjectedGraph g_train = split.source.Project();
    m->marioh.Train(g_train, split.source);
    m->shyre.Train(g_train, split.source);
    return m;
  }();
  return *models;
}

TEST(CaseStudy, MariohRestoresEgoHypergraphExactly) {
  Hypergraph ego = EgoHypergraph();
  Hypergraph restored = Models().marioh.Reconstruct(ego.Project());
  EXPECT_DOUBLE_EQ(eval::Jaccard(ego, restored), 1.0);
  EXPECT_DOUBLE_EQ(eval::MultiJaccard(ego, restored), 1.0);
  // Including the multiplicity-2 pair.
  EXPECT_EQ(restored.Multiplicity({0, 3}), 2u);
}

TEST(CaseStudy, ShyreCountIsStrictlyWorseHere) {
  // The paper's Fig. 2 contrast: the single-pass multiplicity-blind
  // baseline cannot fully restore this ego network.
  Hypergraph ego = EgoHypergraph();
  Hypergraph by_shyre = Models().shyre.Reconstruct(ego.Project()).hypergraph;
  EXPECT_LT(eval::MultiJaccard(ego, by_shyre), 1.0);
}

TEST(CaseStudy, FilteringAloneCertifiesTheRepeatedPair) {
  // The multiplicity-2 pair {0,3} is exactly what Lemma 2 certifies:
  // w(0,3) = 2 with MHH(0,3) = 0.
  Hypergraph ego = EgoHypergraph();
  ProjectedGraph g = ego.Project();
  Hypergraph certified(g.num_nodes());
  core::Filtering(&g, &certified);
  EXPECT_EQ(certified.Multiplicity({0, 3}), 2u);
}

}  // namespace
}  // namespace marioh
