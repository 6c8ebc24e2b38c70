// Co-authorship scenario (the paper's motivating domain): a DBLP-like
// collaboration hypergraph is only available as a weighted co-authorship
// graph ("how many papers did u and v write together?"). We reconstruct
// the papers (author sets) with MARIOH, compare against the strongest
// baselines, and show the storage saving of the hypergraph representation
// over the projected graph.

#include <iostream>

#include "baselines/shyre.hpp"
#include "baselines/shyre_unsup.hpp"
#include "core/marioh.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

/// Storage proxy: a graph stores one (u, v, w) record per edge; a
/// hypergraph stores each hyperedge's node list once plus a count.
size_t GraphStorageCells(const marioh::ProjectedGraph& g) {
  return g.num_edges() * 3;
}

size_t HypergraphStorageCells(const marioh::Hypergraph& h) {
  size_t cells = 0;
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    cells += e.size() + 1;
  }
  return cells;
}

}  // namespace

int main() {
  using namespace marioh;

  // The "published dataset": only the projected co-authorship graph of the
  // 2017 slice; the 2015 slice (with full paper lists) is available for
  // supervision — exactly the paper's experimental setup.
  gen::GeneratedDataset dblp = gen::Generate(gen::ProfileByName("dblp"), 7);
  util::Rng rng(8);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(dblp.hypergraph.MultiplicityReduced(), &rng, 0.5);
  ProjectedGraph g_2015 = split.source.Project();
  ProjectedGraph g_2017 = split.target.Project();

  std::cout << "Co-authorship reconstruction (DBLP-like profile)\n"
            << "  authors:            " << dblp.hypergraph.num_nodes()
            << "\n  papers (target):    " << split.target.num_unique_edges()
            << "\n  projected edges:    " << g_2017.num_edges() << "\n\n";

  util::TextTable table("Reconstruction quality by method");
  table.SetHeader({"Method", "Jaccard", "multi-Jaccard", "#hyperedges"});

  // SHyRe-Unsup (multiplicity-aware unsupervised baseline).
  {
    baselines::ShyreUnsup method;
    Hypergraph rec = method.Reconstruct(g_2017).hypergraph;
    table.AddRow({"SHyRe-Unsup",
                  util::TextTable::Num(eval::Jaccard(split.target, rec), 3),
                  util::TextTable::Num(eval::MultiJaccard(split.target, rec),
                                       3),
                  std::to_string(rec.num_unique_edges())});
  }
  // SHyRe-Count (supervised structural baseline).
  {
    baselines::Shyre::Options options;
    options.seed = 9;
    baselines::Shyre method(options);
    method.Train(g_2015, split.source);
    Hypergraph rec = method.Reconstruct(g_2017).hypergraph;
    table.AddRow({"SHyRe-Count",
                  util::TextTable::Num(eval::Jaccard(split.target, rec), 3),
                  util::TextTable::Num(eval::MultiJaccard(split.target, rec),
                                       3),
                  std::to_string(rec.num_unique_edges())});
  }
  // MARIOH.
  Hypergraph marioh_rec(0);
  {
    core::Marioh marioh;
    marioh.Train(g_2015, split.source);
    marioh_rec = marioh.Reconstruct(g_2017);
    table.AddRow(
        {"MARIOH",
         util::TextTable::Num(eval::Jaccard(split.target, marioh_rec), 3),
         util::TextTable::Num(eval::MultiJaccard(split.target, marioh_rec),
                              3),
         std::to_string(marioh_rec.num_unique_edges())});
  }
  std::cout << table.Render() << "\n";

  std::cout << "Storage (record cells): projected graph "
            << GraphStorageCells(g_2017) << " vs reconstructed hypergraph "
            << HypergraphStorageCells(marioh_rec) << " ("
            << util::TextTable::Num(
                   100.0 * (1.0 - static_cast<double>(HypergraphStorageCells(
                                      marioh_rec)) /
                                      static_cast<double>(GraphStorageCells(
                                          g_2017))),
                   1)
            << "% saved)\n";
  return 0;
}
