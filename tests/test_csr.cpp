// Tests for the immutable CSR snapshot, including equivalence properties
// against the mutable ProjectedGraph on random graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <tuple>

#include "core/classifier.hpp"
#include "core/features.hpp"
#include "core/filtering.hpp"
#include "gen/hypercl.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

/// The node ids 0..n-1, to sample node sets from.
std::vector<NodeId> AllNodes(size_t n) {
  std::vector<NodeId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

TEST(CsrGraph, BasicAccessors) {
  ProjectedGraph g(4);
  g.AddWeight(0, 1, 3);
  g.AddWeight(0, 2, 1);
  g.AddWeight(2, 3, 5);
  CsrGraph csr(g);
  EXPECT_EQ(csr.num_nodes(), 4u);
  EXPECT_EQ(csr.num_edges(), 3u);
  EXPECT_EQ(csr.Degree(0), 2u);
  EXPECT_EQ(csr.Degree(3), 1u);
  EXPECT_EQ(csr.Weight(0, 1), 3u);
  EXPECT_EQ(csr.Weight(1, 0), 3u);
  EXPECT_EQ(csr.Weight(1, 3), 0u);
  EXPECT_EQ(csr.Weight(2, 2), 0u);
  EXPECT_TRUE(csr.HasEdge(2, 3));
  EXPECT_EQ(csr.TotalWeight(), 9u);
}

TEST(CsrGraph, NeighborsAreSorted) {
  ProjectedGraph g(6);
  g.AddWeight(3, 5, 1);
  g.AddWeight(3, 0, 1);
  g.AddWeight(3, 4, 1);
  g.AddWeight(3, 1, 1);
  CsrGraph csr(g);
  auto nbrs = csr.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(CsrGraph, CommonNeighborsSortedMerge) {
  ProjectedGraph g(5);
  g.AddWeight(0, 2, 1);
  g.AddWeight(0, 3, 1);
  g.AddWeight(0, 4, 1);
  g.AddWeight(1, 3, 1);
  g.AddWeight(1, 4, 1);
  CsrGraph csr(g);
  std::vector<NodeId> common = csr.CommonNeighbors(0, 1);
  EXPECT_EQ(common, (std::vector<NodeId>{3, 4}));
}

TEST(CsrGraph, EmptyGraph) {
  ProjectedGraph g(3);
  CsrGraph csr(g);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_EQ(csr.Degree(0), 0u);
  EXPECT_TRUE(csr.Neighbors(1).empty());
}

// Equivalence property: on random graphs the CSR snapshot agrees with the
// mutable graph on every query.
class CsrEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrEquivalence, MatchesProjectedGraphEverywhere) {
  util::Rng rng(GetParam());
  Hypergraph h = gen::HyperClLike(60, 120, 3.0, 0.7, &rng);
  ProjectedGraph g = h.Project();
  CsrGraph csr(g);

  EXPECT_EQ(csr.num_nodes(), g.num_nodes());
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  EXPECT_EQ(csr.TotalWeight(), g.TotalWeight());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(csr.Degree(u), g.Degree(u));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(csr.Weight(u, v), g.Weight(u, v))
          << "(" << u << "," << v << ")";
    }
  }
  // MHH equivalence on every edge (the hot kernel of Algorithm 2).
  for (const auto& e : g.Edges()) {
    EXPECT_EQ(csr.Mhh(e.u, e.v), g.Mhh(e.u, e.v));
    // Common neighbors agree, both ascending.
    EXPECT_EQ(csr.CommonNeighbors(e.u, e.v), g.CommonNeighbors(e.u, e.v));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CsrEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- The mutable graph's sorted rows against a reference model ----------

/// Reference model of `ProjectedGraph`: one ordered map per node, with an
/// edge present iff its weight is positive.
struct ModelGraph {
  explicit ModelGraph(size_t n) : rows(n) {}

  uint32_t Weight(NodeId u, NodeId v) const {
    auto it = rows[u].find(v);
    return it == rows[u].end() ? 0 : it->second;
  }

  void Set(NodeId u, NodeId v, uint32_t w) {
    if (w == 0) {
      rows[u].erase(v);
      rows[v].erase(u);
    } else {
      rows[u][v] = w;
      rows[v][u] = w;
    }
  }

  std::vector<std::map<NodeId, uint32_t>> rows;
};

/// Checks every read of `g` against the model: rows strictly ascending
/// with positive weights, degrees, weights, edges, MHH, common neighbors
/// (ascending) and clique tests.
void ExpectMatchesModel(const ProjectedGraph& g, const ModelGraph& m,
                        util::Rng* rng, const std::string& where) {
  const size_t n = m.rows.size();
  ASSERT_EQ(g.num_nodes(), n);
  size_t edges = 0;
  uint64_t total = 0;
  std::vector<ProjectedGraph::Edge> want_edges;
  for (NodeId u = 0; u < n; ++u) {
    auto row = g.Neighbors(u);
    for (size_t t = 0; t < row.size(); ++t) {
      ASSERT_GT(row[t].second, 0u) << where << ": zero entry in row " << u;
      if (t > 0) {
        ASSERT_LT(row[t - 1].first, row[t].first)
            << where << ": row " << u << " not strictly ascending";
      }
    }
    ASSERT_TRUE(std::ranges::equal(
        row, m.rows[u], [](const auto& a, const auto& b) {
          return a.first == b.first && a.second == b.second;
        }))
        << where << ": row " << u;
    EXPECT_EQ(g.Degree(u), m.rows[u].size()) << where;
    uint64_t weighted = 0;
    for (const auto& [v, w] : m.rows[u]) {
      weighted += w;
      if (u < v) want_edges.push_back({u, v, w});
    }
    EXPECT_EQ(g.WeightedDegree(u), weighted) << where;
    edges += m.rows[u].size();
    total += weighted;
  }
  EXPECT_EQ(g.num_edges(), edges / 2) << where;
  EXPECT_EQ(g.TotalWeight(), total / 2) << where;
  std::vector<ProjectedGraph::Edge> got_edges = g.Edges();
  ASSERT_EQ(got_edges.size(), want_edges.size()) << where;
  for (size_t i = 0; i < got_edges.size(); ++i) {
    EXPECT_EQ(got_edges[i].u, want_edges[i].u) << where;
    EXPECT_EQ(got_edges[i].v, want_edges[i].v) << where;
    EXPECT_EQ(got_edges[i].weight, want_edges[i].weight) << where;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(g.Weight(u, v), u == v ? 0 : m.Weight(u, v)) << where;
      if (u == v) continue;
      std::vector<NodeId> common;
      uint64_t mhh = 0;
      for (const auto& [z, wz] : m.rows[u]) {
        const uint32_t wv = m.Weight(v, z);
        if (wv == 0) continue;
        common.push_back(z);
        mhh += std::min(wz, wv);
      }
      EXPECT_EQ(g.CommonNeighbors(u, v), common) << where;
      EXPECT_EQ(g.CommonNeighborCount(u, v), common.size()) << where;
      EXPECT_EQ(g.Mhh(u, v), mhh) << where;
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    NodeSet q = rng->SampleWithoutReplacement(
        std::span<const NodeId>(AllNodes(n)), 2 + rng->UniformIndex(3));
    Canonicalize(&q);
    bool clique = true;
    for (size_t i = 0; i < q.size(); ++i) {
      for (size_t j = i + 1; j < q.size(); ++j) {
        clique = clique && m.Weight(q[i], q[j]) > 0;
      }
    }
    EXPECT_EQ(g.IsClique(q), clique) << where;
  }
}

/// The snapshot `CsrGraph(m)` must equal: each model row sorted by id.
void ExpectCsrMatchesModel(const CsrGraph& csr, const ModelGraph& m,
                           const std::string& where) {
  ASSERT_EQ(csr.num_nodes(), m.rows.size()) << where;
  uint64_t total = 0;
  for (NodeId u = 0; u < m.rows.size(); ++u) {
    std::vector<std::pair<NodeId, uint32_t>> row(m.rows[u].begin(),
                                                 m.rows[u].end());
    std::sort(row.begin(), row.end());
    auto nbrs = csr.Neighbors(u);
    auto weights = csr.Weights(u);
    ASSERT_EQ(nbrs.size(), row.size()) << where << ": row " << u;
    uint64_t weighted = 0;
    for (size_t t = 0; t < row.size(); ++t) {
      ASSERT_EQ(nbrs[t], row[t].first) << where << ": row " << u;
      ASSERT_EQ(weights[t], row[t].second) << where << ": row " << u;
      weighted += row[t].second;
    }
    EXPECT_EQ(csr.WeightedDegree(u), weighted) << where;
    total += weighted;
  }
  EXPECT_EQ(csr.TotalWeight(), total / 2) << where;
}

/// Seeded random AddWeight / SubtractWeight / RemoveEdge / PeelClique
/// sequences on a small dense graph, checked against the model after
/// every few operations, together with full and patched snapshots at
/// 1, 2 and 8 threads.
class SortedRows : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortedRows, RandomEditsMatchAnOrderedMapModel) {
  constexpr size_t kNodes = 24;
  util::Rng rng(GetParam());
  ProjectedGraph g(kNodes);
  ModelGraph m(kNodes);
  CsrGraph prev(g);
  std::vector<NodeId> touched;
  const std::vector<NodeId> all_nodes = AllNodes(kNodes);
  auto pick_pair = [&] {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(kNodes));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(kNodes - 1));
    if (v >= u) ++v;
    return std::pair{u, v};
  };
  for (int op = 1; op <= 600; ++op) {
    const size_t kind = rng.UniformIndex(10);
    if (kind < 5) {
      auto [u, v] = pick_pair();
      const auto delta = static_cast<uint32_t>(1 + rng.UniformIndex(3));
      g.AddWeight(u, v, delta);
      m.Set(u, v, m.Weight(u, v) + delta);
      touched.insert(touched.end(), {u, v});
    } else if (kind < 8) {
      auto [u, v] = pick_pair();
      const auto delta = static_cast<uint32_t>(1 + rng.UniformIndex(3));
      const uint32_t had = m.Weight(u, v);
      EXPECT_EQ(g.SubtractWeight(u, v, delta), std::min(had, delta));
      m.Set(u, v, had - std::min(had, delta));
      touched.insert(touched.end(), {u, v});
    } else if (kind < 9) {
      auto [u, v] = pick_pair();
      EXPECT_EQ(g.RemoveEdge(u, v), m.Weight(u, v));
      m.Set(u, v, 0);
      touched.insert(touched.end(), {u, v});
    } else {
      // Peel a random node set, first adding its missing edges so that
      // it is a clique (IsClique must agree before and after).
      NodeSet q =
          rng.SampleWithoutReplacement(std::span<const NodeId>(all_nodes),
                                       3 + rng.UniformIndex(2));
      Canonicalize(&q);
      bool clique = true;
      for (size_t i = 0; i < q.size(); ++i) {
        for (size_t j = i + 1; j < q.size(); ++j) {
          if (m.Weight(q[i], q[j]) > 0) continue;
          clique = false;
          m.Set(q[i], q[j], 1);
        }
      }
      EXPECT_EQ(g.IsClique(q), clique);
      for (size_t i = 0; i < q.size(); ++i) {
        for (size_t j = i + 1; j < q.size(); ++j) {
          if (!g.HasEdge(q[i], q[j])) g.AddWeight(q[i], q[j], 1);
        }
      }
      ASSERT_TRUE(g.IsClique(q));
      g.PeelClique(q);
      for (size_t i = 0; i < q.size(); ++i) {
        for (size_t j = i + 1; j < q.size(); ++j) {
          m.Set(q[i], q[j], m.Weight(q[i], q[j]) - 1);
        }
      }
      touched.insert(touched.end(), q.begin(), q.end());
    }
    if (op % 40 != 0) continue;
    const std::string where = "seed " + std::to_string(GetParam()) +
                              " op " + std::to_string(op);
    ExpectMatchesModel(g, m, &rng, where);
    for (int threads : {1, 2, 8}) {
      const std::string at = where + " threads " + std::to_string(threads);
      ExpectCsrMatchesModel(CsrGraph(g, threads), m, at + " (build)");
      ExpectCsrMatchesModel(CsrGraph(prev, g, touched, threads), m,
                            at + " (patch)");
    }
    prev = CsrGraph(g);
    touched.clear();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedRows, ::testing::Values(1, 2, 3, 4));

// ---- The MHH column ------------------------------------------------------

/// Checks every u < v entry of `csr`'s MHH column against `g` (the graph
/// `csr` is a snapshot of): a filled entry must already hold MHH(u, v),
/// and reading any entry through MhhAt must give it. Returns how many
/// entries were filled before the check read them.
size_t CheckMhhColumn(const CsrGraph& csr, const ProjectedGraph& g,
                      const std::string& where) {
  size_t known = 0;
  for (NodeId u = 0; u < csr.num_nodes(); ++u) {
    auto nbrs = csr.Neighbors(u);
    for (size_t t = 0; t < nbrs.size(); ++t) {
      if (nbrs[t] < u) continue;
      const uint64_t want = g.Mhh(u, nbrs[t]);
      if (csr.KnownMhh(u, t) != CsrGraph::kMhhUnknown) {
        ++known;
        EXPECT_EQ(csr.KnownMhh(u, t), want)
            << where << ": stale entry (" << u << "," << nbrs[t] << ")";
      }
      EXPECT_EQ(csr.MhhAt(u, t), want)
          << where << ": (" << u << "," << nbrs[t] << ")";
    }
  }
  return known;
}

/// Extracts multiplicity-aware features of every clique in `cliques` on
/// `csr` from `threads` threads, which fills the column's misses.
void ExtractAll(const CsrGraph& csr, const CliqueStore& cliques,
                int threads) {
  core::FeatureExtractor extractor(core::FeatureMode::kMultiplicityAware);
  util::ParallelForRanges(
      cliques.size(), threads, [&](size_t, size_t begin, size_t end) {
        core::FeatureScratch scratch;
        std::vector<double> row(extractor.dim());
        for (size_t i = begin; i < end; ++i) {
          extractor.ExtractInto(csr, cliques[i], true, &scratch, row);
        }
      });
}

// A seeded chain like the reconstruction loop's: Filtering fills a
// snapshot's column, patches carry it, feature extraction fills misses
// and random clique peels invalidate rows. After every step each entry
// read from the column equals the mutable graph's MHH.
class MhhColumnChain
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(MhhColumnChain, EveryEntryIsExactAfterEachStep) {
  const auto [seed, threads] = GetParam();
  util::Rng rng(seed);
  Hypergraph source = gen::HyperClLike(70, 150, 3.2, 0.7, &rng);
  ProjectedGraph g = source.Project();
  const ProjectedGraph before_filter = g;
  Hypergraph h(g.num_nodes());
  CsrGraph pre_filter;
  core::FilteringStats stats =
      core::Filtering(&g, &h, threads, &pre_filter);
  // Filtering computes every edge's MHH: its snapshot is fully filled.
  const size_t edges = pre_filter.num_edges();
  EXPECT_EQ(CheckMhhColumn(pre_filter, before_filter, "filtering"), edges);

  CsrGraph snapshot(pre_filter, g, stats.touched_nodes, threads);
  size_t carried = CheckMhhColumn(snapshot, g, "after filtering");
  EXPECT_GT(carried, 0u);
  for (int step = 0; step < 12 && !g.Empty(); ++step) {
    CliqueStore cliques = EnumerateMaximalCliques(snapshot).cliques;
    CsrGraph cold(g, threads);
    ExtractAll(cold, cliques, threads);
    CheckMhhColumn(cold, g, "cold, step " + std::to_string(step));
    ExtractAll(snapshot, cliques, threads);
    CheckMhhColumn(snapshot, g, "filled, step " + std::to_string(step));

    // Peel a few random maximal cliques, then patch.
    std::vector<NodeId> touched;
    for (int p = 0; p < 3 && !cliques.empty(); ++p) {
      CliqueView q = cliques[rng.UniformIndex(cliques.size())];
      if (!g.IsClique(q)) continue;
      g.PeelClique(q);
      touched.insert(touched.end(), q.begin(), q.end());
    }
    snapshot = CsrGraph(snapshot, g, touched, threads);
    carried = CheckMhhColumn(snapshot, g,
                             "patched, step " + std::to_string(step));
    if (!touched.empty()) {
      EXPECT_GT(carried, 0u) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, MhhColumnChain,
    ::testing::Combine(::testing::Values(uint64_t{11}, uint64_t{12},
                                         uint64_t{13}),
                       ::testing::Values(1, 2, 8)));

// An MHH that does not fit a 32-bit entry is exact on every read but is
// never memoized.
TEST(MhhColumn, ValueTooLargeForAnEntryIsNotStored) {
  ProjectedGraph g(4);
  const uint32_t big = uint32_t{1} << 31;
  g.AddWeight(0, 1, 1);
  for (NodeId z : {2u, 3u}) {
    g.AddWeight(0, z, big);
    g.AddWeight(1, z, big);
  }
  CsrGraph csr(g);
  ASSERT_EQ(csr.Neighbors(0)[0], 1u);
  EXPECT_EQ(csr.MhhAt(0, 0), uint64_t{1} << 32);
  EXPECT_EQ(csr.KnownMhh(0, 0), CsrGraph::kMhhUnknown);
  EXPECT_EQ(csr.MhhAt(0, 0), g.Mhh(0, 1));
  // A small value next to it is stored.
  EXPECT_EQ(csr.MhhAt(2, 1), g.Mhh(2, 1));
  EXPECT_EQ(csr.KnownMhh(2, 1), g.Mhh(2, 1));
}

// A build without the column (as clique enumeration makes) stores no
// MHH, and neither does a patch of it, yet every read and every feature
// row equals the memoized snapshot's.
TEST(MhhColumn, SnapshotWithoutColumnStoresNothingAndScoresTheSame) {
  util::Rng rng(9);
  Hypergraph source = gen::HyperClLike(60, 120, 3.2, 0.7, &rng);
  ProjectedGraph g = source.Project();
  const CsrGraph bare(g, 2, CsrGraph::MhhColumn::kSkip);
  const CsrGraph memo(g, 2);
  CliqueStore cliques = EnumerateMaximalCliques(bare).cliques;
  core::FeatureExtractor extractor(core::FeatureMode::kMultiplicityAware);
  core::FeatureScratch scratch;
  std::vector<double> a(extractor.dim());
  std::vector<double> b(extractor.dim());
  for (size_t i = 0; i < cliques.size(); ++i) {
    extractor.ExtractInto(bare, cliques[i], true, &scratch, a);
    extractor.ExtractInto(memo, cliques[i], true, &scratch, b);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
              0)
        << "clique " << i;
  }
  EXPECT_GT(CheckMhhColumn(memo, g, "memoized"), 0u);
  EXPECT_EQ(CheckMhhColumn(bare, g, "no column"), 0u);
  EXPECT_EQ(CheckMhhColumn(bare, g, "no column, read twice"), 0u);

  ASSERT_FALSE(cliques.empty());
  g.PeelClique(cliques[0]);
  const NodeSet touched = cliques.Materialize(0);
  const CsrGraph patched(bare, g, touched);
  ExtractAll(patched, cliques, 1);
  EXPECT_EQ(CheckMhhColumn(patched, g, "patched, no column"), 0u);
}

// Eight threads score one cold snapshot at once, racing to fill the same
// column entries: every result equals a single-threaded score of a
// private cold copy, bit for bit (and TSan sees no race).
TEST(MhhColumn, ConcurrentScoringOfOneColdSnapshotIsIdentical) {
  util::Rng rng(5);
  Hypergraph source = gen::HyperClLike(80, 180, 3.2, 0.7, &rng);
  ProjectedGraph g = source.Project();
  core::CliqueClassifier classifier(core::FeatureMode::kMultiplicityAware,
                                    {});
  util::Rng train_rng(6);
  classifier.Train(g, source, &train_rng);
  const CsrGraph cold(g);
  CliqueStore cliques = EnumerateMaximalCliques(cold).cliques;
  CsrGraph private_copy = cold;
  const std::vector<double> want =
      classifier.ScoreAll(private_copy, cliques, true, 1);

  const CsrGraph shared = cold;
  std::vector<std::vector<double>> got(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = classifier.ScoreAll(shared, cliques, true, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    EXPECT_EQ(std::memcmp(got[t].data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "thread " << t;
  }
  CheckMhhColumn(shared, g, "after concurrent scoring");
}

}  // namespace
}  // namespace marioh
