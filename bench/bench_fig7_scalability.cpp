// Fig. 7: scalability — runtime of MARIOH's Filtering and
// BidirectionalSearch steps on HyperCL-generated hypergraphs of growing
// size (DBLP-like statistics), with the log-log slope vs |E_G| reported.
// The paper finds both steps scale near-linearly (slope ~ 1).
//
// Usage: bench_fig7_scalability [--quick] [--threads N]
//
// --threads N runs the reconstruction's hot kernels on N threads
// (0 = all cores); results are identical for any value, only the
// timings change.

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
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
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
      quick ? std::vector<size_t>{1, 2, 4} : std::vector<size_t>{1, 2, 4,
                                                                 8, 16};
  const size_t base_nodes = 1000;
  const size_t base_edges = 600;

  marioh::util::TextTable table(
      "Fig. 7: scalability of Filtering and BidirectionalSearch");
  table.SetHeader({"|E_G|", "Filtering (s)", "Bidirectional (s)",
                   "Total (s)"});
  std::vector<double> edge_counts, filter_times, bidir_times;

  for (size_t scale : scales) {
    marioh::util::Rng rng(100 + scale);
    marioh::Hypergraph h = marioh::gen::HyperClLike(
        base_nodes * scale, base_edges * scale, /*size_mean=*/3.0,
        /*degree_skew=*/0.6, &rng);
    marioh::ProjectedGraph g = h.Project();

    marioh::core::ReconstructionStats stats;
    marioh.Reconstruct(g, &stats);
    double filter_t = stats.filtering_seconds;
    double bidir_t = stats.bidirectional_seconds;

    edge_counts.push_back(static_cast<double>(g.num_edges()));
    filter_times.push_back(filter_t);
    bidir_times.push_back(bidir_t);
    table.AddRow({std::to_string(g.num_edges()),
                  marioh::util::TextTable::Num(filter_t, 4),
                  marioh::util::TextTable::Num(bidir_t, 4),
                  marioh::util::TextTable::Num(filter_t + bidir_t, 4)});
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
  return 0;
}
