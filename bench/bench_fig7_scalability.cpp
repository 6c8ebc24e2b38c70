// Fig. 7: scalability — runtime of MARIOH's Filtering and
// BidirectionalSearch steps on HyperCL-generated hypergraphs of growing
// size (DBLP-like statistics), with the log-log slope vs |E_G| reported.
// The paper finds both steps scale near-linearly (slope ~ 1).
//
// Usage: bench_fig7_scalability [--quick | --large] [--threads N]
//
// --threads N runs the reconstruction's hot kernels on N threads
// (0 = all cores); results are identical for any value, only the
// timings change. --large runs scales 16, 64, 256 and 1024 (up to ~2.1M
// edges) and also prints each scale's ReconstructionStats (its counts,
// then the bidirectional loop's update/score/peel/patch seconds), the
// size of the reconstructed hypergraph and the process's peak RSS.

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/marioh.hpp"
#include "eval/harness.hpp"
#include "gen/hypercl.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

double LogLogSlope(const std::vector<double>& x,
                   const std::vector<double>& y) {
  // Least-squares slope of log(y) on log(x), ignoring non-positive times.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (y[i] <= 0) continue;
    double lx = std::log(x[i]);
    double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  double denom = static_cast<double>(n) * sxx - sx * sx;
  return denom != 0 ? (static_cast<double>(n) * sxy - sx * sy) / denom
                    : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool large = false;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--large") == 0) large = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }

  // Train once on the DBLP-like profile (as in the paper, training is
  // independent of the scaled target size).
  marioh::eval::PreparedDataset train_data;
  {
    marioh::gen::GeneratedDataset dblp =
        marioh::gen::Generate(marioh::gen::ProfileByName("dblp"), 42);
    marioh::util::Rng rng(43);
    marioh::gen::SourceTargetSplit split = marioh::gen::SplitHypergraph(
        dblp.hypergraph.MultiplicityReduced(), &rng, 0.5);
    train_data.source = std::make_shared<const marioh::Hypergraph>(
        std::move(split.source));
    train_data.g_source = std::make_shared<const marioh::ProjectedGraph>(
        train_data.source->Project());
  }
  marioh::core::MariohOptions options;
  options.num_threads = threads;
  marioh::core::Marioh marioh(options);
  marioh.Train(*train_data.g_source, *train_data.source);

  std::vector<size_t> scales =
      large   ? std::vector<size_t>{16, 64, 256, 1024}
      : quick ? std::vector<size_t>{1, 2, 4}
              : std::vector<size_t>{1, 2, 4, 8, 16};
  const size_t base_nodes = 1000;
  const size_t base_edges = 600;

  marioh::util::TextTable table(
      "Fig. 7: scalability of Filtering and BidirectionalSearch");
  table.SetHeader({"|E_G|", "Filtering (s)", "Bidirectional (s)",
                   "Total (s)"});
  std::vector<double> edge_counts, filter_times, bidir_times;
  marioh::util::TextTable stats_table(
      "ReconstructionStats per scale (--large)");
  stats_table.SetHeader({"|E_G|", "iterations", "maximal cliques",
                         "carried", "scores reused", "accepted P1",
                         "accepted P2", "subcliques scored",
                         "filtering edges", "patches", "rebuilds",
                         "truncated", "hyperedges", "total mult.",
                         "update (s)", "score (s)", "peel (s)",
                         "patch (s)"});

  for (size_t scale : scales) {
    marioh::util::Rng rng(100 + scale);
    marioh::Hypergraph h = marioh::gen::HyperClLike(
        base_nodes * scale, base_edges * scale, /*size_mean=*/3.0,
        /*degree_skew=*/0.6, &rng);
    marioh::ProjectedGraph g = h.Project();

    marioh::core::ReconstructionStats stats;
    marioh::Hypergraph h_hat = marioh.Reconstruct(g, &stats);
    double filter_t = stats.filtering_seconds;
    double bidir_t = stats.bidirectional_seconds;

    edge_counts.push_back(static_cast<double>(g.num_edges()));
    filter_times.push_back(filter_t);
    bidir_times.push_back(bidir_t);
    table.AddRow({std::to_string(g.num_edges()),
                  marioh::util::TextTable::Num(filter_t, 4),
                  marioh::util::TextTable::Num(bidir_t, 4),
                  marioh::util::TextTable::Num(filter_t + bidir_t, 4)});
    auto count = [](size_t n) { return std::to_string(n); };
    auto seconds = [](double s) {
      return marioh::util::TextTable::Num(s, 3);
    };
    stats_table.AddRow(
        {count(g.num_edges()), count(stats.iterations),
         count(stats.maximal_cliques), count(stats.cliques_carried),
         count(stats.scores_reused), count(stats.accepted_phase1),
         count(stats.accepted_phase2), count(stats.subcliques_scored),
         count(stats.filtering_edges), count(stats.snapshot_patches),
         count(stats.snapshot_rebuilds),
         stats.cliques_truncated ? "yes" : "no",
         count(h_hat.num_unique_edges()), count(h_hat.num_total_edges()),
         seconds(stats.update_seconds), seconds(stats.score_seconds),
         seconds(stats.peel_seconds), seconds(stats.patch_seconds)});
    std::cerr << "[fig7] scale " << scale << ": " << g.num_edges()
              << " edges, filter " << filter_t << "s, bidir " << bidir_t
              << "s\n";
  }
  std::cout << table.Render();
  std::cout << "log-log slope (filtering):     "
            << marioh::util::TextTable::Num(
                   LogLogSlope(edge_counts, filter_times), 3)
            << "  (1.0 = linear)\n";
  std::cout << "log-log slope (bidirectional): "
            << marioh::util::TextTable::Num(
                   LogLogSlope(edge_counts, bidir_times), 3)
            << "  (1.0 = linear)\n";
  if (large) {
    std::cout << stats_table.Render();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::cout << "peak RSS (MiB): "
              << marioh::util::TextTable::Num(
                     static_cast<double>(usage.ru_maxrss) / 1024.0, 1)
              << "\n";
  }
  return 0;
}
