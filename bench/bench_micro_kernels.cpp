// Microbenchmarks of the hot kernels inside MARIOH's reconstruction loop:
// MHH computation (Eq. (1)), maximal-clique enumeration, feature
// extraction, filtering, clique peeling, the clique classifier's MLP fit
// and batched scoring, and la::Gemm on each vector-width path — the
// graph kernels on both the mutable graph path and the CSR snapshot
// fast path, with thread sweeps for the parallel kernels.
// google-benchmark based; pass
// `--benchmark_out=bench_micro.json --benchmark_out_format=json` to record
// a machine-readable trajectory (CI uploads this as an artifact).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "core/features.hpp"
#include "core/filtering.hpp"
#include "eval/harness.hpp"
#include "gen/hypercl.hpp"
#include "obs/metrics.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "la/gemm.hpp"
#include "ml/mlp.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using marioh::CliqueOptions;
using marioh::CsrGraph;
using marioh::NodeId;
using marioh::NodeSet;
using marioh::ProjectedGraph;

ProjectedGraph MakeGraph(size_t num_nodes, size_t num_edges) {
  marioh::util::Rng rng(7);
  marioh::Hypergraph h = marioh::gen::HyperClLike(
      num_nodes, num_edges, /*size_mean=*/3.2, /*degree_skew=*/0.7, &rng);
  return h.Project();
}

// ---- MHH (Eq. (1)) -------------------------------------------------------

void BM_Mhh(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = edges[i % edges.size()];
    benchmark::DoNotOptimize(g.Mhh(e.u, e.v));
    ++i;
  }
}
BENCHMARK(BM_Mhh)->Arg(500)->Arg(2000);

void BM_CsrMhh(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  CsrGraph csr(g);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = edges[i % edges.size()];
    benchmark::DoNotOptimize(csr.Mhh(e.u, e.v));
    ++i;
  }
}
BENCHMARK(BM_CsrMhh)->Arg(500)->Arg(2000);

// ---- CSR snapshot construction ------------------------------------------

void BM_CsrBuild(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(2000, 4000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(g));
  }
}
BENCHMARK(BM_CsrBuild);

// ---- eu input shared by the clique-update and iteration guards ----------

/// The eu input, built and trained once for every thread count.
struct EuIteration {
  ProjectedGraph g;
  CsrGraph snapshot;
  marioh::core::CliqueClassifier classifier{
      marioh::core::FeatureMode::kMultiplicityAware, {}};
};

const EuIteration& Eu() {
  static const EuIteration* eu = [] {
    auto* out = new EuIteration;
    marioh::eval::PreparedDataset data =
        marioh::eval::PrepareDataset("eu", /*multiplicity_reduced=*/false, 1);
    marioh::util::Rng rng(2);
    out->classifier.Train(*data.g_source, *data.source, &rng);
    out->g = *data.g_target;
    marioh::Hypergraph h(out->g.num_nodes());
    marioh::core::Filtering(&out->g, &h, 1);
    out->snapshot = CsrGraph(out->g);
    return out;
  }();
  return *eu;
}

// ---- Maximal-clique enumeration -----------------------------------------

// Default public path (CSR snapshot, single thread, arena output).
void BM_MaximalCliques(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::EnumerateMaximalCliques(g));
  }
}
BENCHMARK(BM_MaximalCliques)->Arg(200)->Arg(800);

// Sequential reference over the mutable graph (the pre-CSR path).
void BM_MaximalCliquesHashmap(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::MaximalCliquesHashMapReference(g));
  }
}
BENCHMARK(BM_MaximalCliquesHashmap)->Arg(200)->Arg(800);

// Thread sweep over the CSR fast path (snapshot built once, as in the
// reconstruction loop where one snapshot serves the whole iteration).
void BM_MaximalCliquesCsrThreads(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 1600);
  CsrGraph csr(g);
  CliqueOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::EnumerateMaximalCliques(csr, options));
  }
}
BENCHMARK(BM_MaximalCliquesCsrThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Incremental maintenance against full enumeration, on an eu target
// after filtering and one bidirectional iteration's peels (the update's
// heaviest case: the first iteration accepts the most): update:1 derives
// the snapshot's maximal cliques from the previous iteration's store and
// touched nodes, update:0 enumerates them from scratch.
void BM_UpdateMaximalCliques(benchmark::State& state) {
  struct Peeled {
    CsrGraph snapshot;
    marioh::MaximalCliqueResult previous;
    std::vector<NodeId> touched;
  };
  static const Peeled* peeled = [] {
    const EuIteration& eu = Eu();
    ProjectedGraph g = eu.g;
    marioh::Hypergraph h(g.num_nodes());
    marioh::util::Rng rng(3);
    marioh::core::CarriedCliques carried;
    marioh::core::BidirectionalStats stats =
        marioh::core::BidirectionalSearch(&g, eu.snapshot, eu.classifier, {},
                                          &rng, &h, &carried);
    return new Peeled{CsrGraph(g), std::move(*carried.previous),
                      std::move(stats.touched_nodes)};
  }();
  CliqueOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  const bool update = state.range(1) != 0;
  size_t carried = 0;
  for (auto _ : state) {
    if (update) {
      marioh::MaximalCliqueUpdate result = marioh::UpdateMaximalCliques(
          peeled->snapshot, &peeled->previous, peeled->touched, options);
      carried = static_cast<size_t>(
          std::ranges::count_if(result.previous_index, [](size_t i) {
            return i != marioh::kNewClique;
          }));
      benchmark::DoNotOptimize(result);
    } else {
      benchmark::DoNotOptimize(
          marioh::EnumerateMaximalCliques(peeled->snapshot, options));
    }
  }
  state.counters["carried"] = static_cast<double>(carried);
}
BENCHMARK(BM_UpdateMaximalCliques)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"threads", "update"})
    ->UseRealTime();

// ---- Clique emission layout ---------------------------------------------

// Arena emission: cliques land in the flat CliqueStore and stay there —
// the path the reconstruction loop consumes (snapshot built once, as in
// an iteration).
void BM_CliqueEmissionArena(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 1600);
  CsrGraph csr(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::EnumerateMaximalCliques(csr));
  }
}
BENCHMARK(BM_CliqueEmissionArena);

// Per-clique NodeSet materialization on top of the same enumeration (the
// deprecated copy-out shim): one heap allocation per clique, the cost the
// arena removed from the hot path.
void BM_CliqueEmissionNodeSets(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 1600);
  CsrGraph csr(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        marioh::EnumerateMaximalCliques(csr).cliques.ToNodeSets());
  }
}
BENCHMARK(BM_CliqueEmissionNodeSets);

// ---- CSR snapshot patching ----------------------------------------------

// Peels maximal cliques of `base` until at least `percent` of the nodes
// are touched; returns the peeled graph and the sorted touched set.
std::pair<ProjectedGraph, std::vector<NodeId>> PeelUntilTouched(
    const ProjectedGraph& base, const CsrGraph& snapshot, int percent) {
  ProjectedGraph g = base;
  std::vector<NodeId> touched;
  std::vector<bool> seen(base.num_nodes(), false);
  size_t distinct = 0;
  const size_t want =
      (base.num_nodes() * static_cast<size_t>(percent) + 99) / 100;
  marioh::MaximalCliqueResult enumerated =
      marioh::EnumerateMaximalCliques(snapshot);
  for (marioh::CliqueView q : enumerated.cliques) {
    if (distinct >= want) break;
    if (!g.IsClique(q)) continue;
    g.PeelClique(q);
    for (NodeId u : q) {
      touched.push_back(u);
      if (!seen[u]) {
        seen[u] = true;
        ++distinct;
      }
    }
  }
  marioh::Canonicalize(&touched);
  return {std::move(g), std::move(touched)};
}

// Patch-based snapshot refresh at Arg(percent)% touched nodes — the
// incremental path of the reconstruction loop's snapshot upkeep.
void BM_CsrPatchRebuild(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(2000, 4000);
  CsrGraph prev(base);
  auto [g, touched] =
      PeelUntilTouched(base, prev, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(prev, g, touched));
  }
  state.counters["touched_nodes"] =
      static_cast<double>(touched.size());
}
BENCHMARK(BM_CsrPatchRebuild)->Arg(1)->Arg(10)->Arg(50);

// From-scratch build of the same peeled graph — what the patch replaces.
void BM_CsrPatchRebuildBaseline(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(2000, 4000);
  CsrGraph prev(base);
  auto [g, touched] =
      PeelUntilTouched(base, prev, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(g));
  }
  state.counters["touched_nodes"] =
      static_cast<double>(touched.size());
}
BENCHMARK(BM_CsrPatchRebuildBaseline)->Arg(1)->Arg(10)->Arg(50);

// ---- Feature extraction --------------------------------------------------

void BM_FeatureExtraction(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(500, 1500);
  marioh::core::FeatureExtractor extractor(
      marioh::core::FeatureMode::kMultiplicityAware);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(g).cliques.ToNodeSets();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.Extract(g, cliques[i % cliques.size()], true));
    ++i;
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_FeatureExtractionCsr(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(500, 1500);
  CsrGraph csr(g);
  marioh::core::FeatureExtractor extractor(
      marioh::core::FeatureMode::kMultiplicityAware);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(g).cliques.ToNodeSets();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.Extract(csr, cliques[i % cliques.size()], true));
    ++i;
  }
}
BENCHMARK(BM_FeatureExtractionCsr);

// ---- Filtering (Algorithm 2) --------------------------------------------

void BM_FilteringThreads(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(2000, 4000);
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ProjectedGraph g = base;
    marioh::Hypergraph h(g.num_nodes());
    state.ResumeTiming();
    benchmark::DoNotOptimize(marioh::core::Filtering(&g, &h, threads));
  }
}
BENCHMARK(BM_FilteringThreads)->Arg(1)->Arg(4);

// ---- Clique peeling ------------------------------------------------------

void BM_PeelClique(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(500, 1500);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(base).cliques.ToNodeSets();
  for (auto _ : state) {
    state.PauseTiming();
    ProjectedGraph g = base;
    state.ResumeTiming();
    for (const NodeSet& q : cliques) {
      if (g.IsClique(q)) g.PeelClique(q);
    }
  }
}
BENCHMARK(BM_PeelClique);

// ---- End-to-end scoring scaling -----------------------------------------

void BM_ParallelScoringScaling(benchmark::State& state) {
  // Thread scaling of the clique-scoring hot loop (feature extraction is
  // the dominant cost inside BidirectionalSearch).
  ProjectedGraph g = MakeGraph(800, 2400);
  CsrGraph csr(g);
  marioh::core::FeatureExtractor extractor(
      marioh::core::FeatureMode::kMultiplicityAware);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(g).cliques.ToNodeSets();
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<double> sums(cliques.size());
    marioh::util::ParallelFor(
        cliques.size(), threads, nullptr, [&](size_t i) {
          marioh::la::Vector f = extractor.Extract(csr, cliques[i], true);
          double s = 0;
          for (double v : f) s += v;
          sums[i] = s;
        });
    benchmark::DoNotOptimize(sums);
  }
}
BENCHMARK(BM_ParallelScoringScaling)->Arg(1)->Arg(2)->Arg(4);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Per-call fork-join cost of one kernel loop: 64 trivial indices, so
  // the time is handing out ranges and waiting for them, not the body.
  const int threads = static_cast<int>(state.range(0));
  std::vector<size_t> out(64);
  for (auto _ : state) {
    marioh::util::ParallelFor(out.size(), threads, nullptr,
                              [&](size_t i) { out[i] = i; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---- Clique classifier: MLP fit and batched scoring --------------------
// Guards for the batched MLP: the fit at the eu training shape (6708
// examples x 23 multiplicity-aware features, default hidden {64, 32},
// batch 64), and ScoreAll's blocked PredictBatch path at 1, 2 (a
// reconstruct_eu job's kernel width on 4 cores) and 4 threads.

void BM_MlpFit(benchmark::State& state) {
  const size_t rows = 6708;
  const size_t dim = 23;
  marioh::util::Rng rng(11);
  marioh::la::Matrix x(rows, dim);
  std::vector<double> y(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < dim; ++j) x(i, j) = rng.Normal();
    y[i] = x(i, 0) + x(i, 1) > 0.0 ? 1.0 : 0.0;
  }
  marioh::ml::MlpOptions options;  // the classifier's defaults
  options.epochs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    marioh::ml::Mlp mlp(dim, 1, options);
    benchmark::DoNotOptimize(mlp.Fit(x, y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_MlpFit)->Arg(3)->Unit(benchmark::kMillisecond);

// la::Gemm on each vector-width path at the MLP's eu shapes (23 features,
// hidden {64, 32}, batch 64). Args are (path, m, n, depth, A transposed):
// forward X·Wᵀ 64x64x23 and 64x32x64, backward Dᵀ·A 32x64x64 and
// 64x23x64 (A read through strides, no copy), and D·W 64x64x32. Paths
// the host lacks report an error instead of a time.
void BM_Gemm(benchmark::State& state) {
  const auto path =
      static_cast<marioh::la::detail::GemmPath>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto n = static_cast<size_t>(state.range(2));
  const auto depth = static_cast<size_t>(state.range(3));
  const bool transposed_a = state.range(4) != 0;
  const size_t a_row_stride = transposed_a ? 1 : depth;
  const size_t a_k_stride = transposed_a ? m : 1;
  marioh::util::Rng rng(12);
  std::vector<double> a(m * depth), b(depth * n), c(m * n);
  for (double& x : a) x = rng.Normal();
  for (double& x : b) x = rng.Normal();
  auto run = [&] {
    return marioh::la::detail::GemmOn(path, m, n, depth, a.data(),
                                      a_row_stride, a_k_stride, b.data(), n,
                                      c.data(), n);
  };
  if (!run()) {
    state.SkipWithError("GEMM path not supported on this host");
    return;
  }
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * n * depth));
}
BENCHMARK(BM_Gemm)
    ->ArgNames({"path", "m", "n", "depth", "At"})
    ->Apply([](benchmark::internal::Benchmark* bench) {
      const int64_t shapes[][4] = {{64, 64, 23, 0},
                                   {64, 32, 64, 0},
                                   {32, 64, 64, 1},
                                   {64, 23, 64, 1},
                                   {64, 64, 32, 0}};
      for (int64_t path = 0; path < 2; ++path) {
        for (const auto& s : shapes) {
          bench->Args({path, s[0], s[1], s[2], s[3]});
        }
      }
    });

/// A classifier trained on a small synthetic source pair.
marioh::core::CliqueClassifier TrainedClassifier() {
  marioh::util::Rng rng(21);
  marioh::Hypergraph source =
      marioh::gen::HyperClLike(60, 120, 3.0, 0.7, &rng);
  marioh::core::CliqueClassifier classifier(
      marioh::core::FeatureMode::kMultiplicityAware, {});
  marioh::util::Rng train_rng(22);
  classifier.Train(source.Project(), source, &train_rng);
  return classifier;
}

/// Batched scoring of every maximal clique of a snapshot. `warm:0` scores
/// a snapshot whose MHH column is empty, as after a full build, so every
/// clique pair is summed once; `warm:1` scores one whose column the same
/// pass already filled, so every pair is a column read.
void BM_ScoreAll(benchmark::State& state) {
  marioh::core::CliqueClassifier classifier = TrainedClassifier();
  const CsrGraph cold(MakeGraph(800, 2400));
  marioh::CliqueStore cliques = marioh::EnumerateMaximalCliques(cold).cliques;
  int threads = static_cast<int>(state.range(0));
  const bool warm = state.range(1) != 0;
  CsrGraph csr = cold;
  if (warm) classifier.ScoreAll(csr, cliques, /*is_maximal=*/true, threads);
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      csr = cold;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        classifier.ScoreAll(csr, cliques, /*is_maximal=*/true, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cliques.size()));
}
BENCHMARK(BM_ScoreAll)
    ->ArgNames({"threads", "warm"})
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->UseRealTime();

// ---- One bidirectional-search iteration ---------------------------------
// Guard for Algorithm 3 end to end: enumeration, batched scoring, Phase 1
// peels, and Phase 2's sampling, patched-snapshot batched scoring and
// peels — on an eu target after filtering, at the first iteration's
// theta, with a classifier trained on the eu source.

void BM_BidirectionalIteration(benchmark::State& state) {
  const EuIteration& eu = Eu();
  marioh::core::BidirectionalOptions options;  // theta_init, r = 20%
  options.num_threads = static_cast<int>(state.range(0));
  marioh::core::BidirectionalStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    ProjectedGraph g = eu.g;
    CsrGraph snapshot(g);  // a fresh build: its MHH column is empty
    marioh::Hypergraph h(g.num_nodes());
    marioh::util::Rng rng(3);
    state.ResumeTiming();
    stats = marioh::core::BidirectionalSearch(&g, snapshot, eu.classifier,
                                              options, &rng, &h);
    benchmark::DoNotOptimize(h);
  }
  state.counters["subcliques"] =
      static_cast<double>(stats.subcliques_scored);
}
BENCHMARK(BM_BidirectionalIteration)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Observability overhead guards --------------------------------------
// The obs instruments sit at stage/job granularity, never inside the
// kernels above — these guards keep the primitives themselves cheap
// enough that a future hot-path instrumentation stays honest: a counter
// add is one relaxed fetch_add, a disabled histogram observe is one
// relaxed load and a branch.

void BM_ObsCounterAdd(benchmark::State& state) {
  marioh::obs::MetricRegistry registry;
  marioh::obs::Counter* counter = registry.GetCounter("bench_total");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  marioh::obs::MetricRegistry registry;
  marioh::obs::Histogram* histogram =
      registry.GetHistogram("bench_seconds");
  double value = 1e-5;
  for (auto _ : state) {
    histogram->Observe(value);
    value = value < 1.0 ? value * 1.0000001 : 1e-5;
  }
  benchmark::DoNotOptimize(histogram->count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsHistogramObserveDisabled(benchmark::State& state) {
  marioh::obs::SetEnabled(false);
  marioh::obs::MetricRegistry registry;
  marioh::obs::Histogram* histogram =
      registry.GetHistogram("bench_seconds");
  for (auto _ : state) {
    histogram->Observe(1e-5);
  }
  benchmark::DoNotOptimize(histogram->count());
  marioh::obs::SetEnabled(true);
}
BENCHMARK(BM_ObsHistogramObserveDisabled);

}  // namespace

BENCHMARK_MAIN();
