// Fig. 2 case study: an ego sub-hypergraph (a researcher and ten
// co-authors) is projected to a weighted graph; MARIOH restores it exactly
// while SHyRe-Count recovers only part of it. This mirrors the paper's
// Jure Leskovec example with a synthetic ego network.

#include <iostream>

#include "baselines/shyre.hpp"
#include "core/marioh.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace {

void PrintHypergraph(const std::string& title,
                     const marioh::Hypergraph& h) {
  std::cout << title << "\n";
  for (const marioh::NodeSet& e : h.UniqueEdges()) {
    std::cout << "  {";
    for (size_t i = 0; i < e.size(); ++i) {
      std::cout << e[i] << (i + 1 < e.size() ? ", " : "");
    }
    std::cout << "} x" << h.Multiplicity(e) << "\n";
  }
}

}  // namespace

int main() {
  using namespace marioh;

  // Ego sub-hypergraph: node 0 is the prolific author; hyperedges are
  // papers with disjoint-ish collaborator circles, one repeated (the
  // "multiplicity 2" paper of Fig. 2), and some collaborator-only papers.
  Hypergraph ego;
  ego.AddEdge({0, 1, 2}, 1);      // paper with collaborators 1, 2
  ego.AddEdge({0, 3}, 2);         // two papers with collaborator 3
  ego.AddEdge({0, 4, 5, 6}, 1);   // four-author paper
  ego.AddEdge({0, 7}, 1);
  ego.AddEdge({4, 5}, 1);         // collaborator-only paper
  ego.AddEdge({8, 9, 10}, 1);     // a paper not involving the ego
  ego.AddEdge({0, 8, 9, 10}, 1);  // and its follow-up with the ego

  // Training data: a larger hypergraph from the same domain (earlier
  // years of the co-authorship network).
  gen::GeneratedDataset history =
      gen::Generate(gen::ProfileByName("dblp"), 5);
  util::Rng rng(6);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(history.hypergraph, &rng, 0.5);
  ProjectedGraph g_train = split.source.Project();

  ProjectedGraph g_ego = ego.Project();
  std::cout << "Input: projected ego graph with " << g_ego.num_edges()
            << " weighted edges\n\n";
  PrintHypergraph("Ground-truth ego hypergraph:", ego);

  core::Marioh marioh;
  marioh.Train(g_train, split.source);
  Hypergraph by_marioh = marioh.Reconstruct(g_ego);
  std::cout << "\n";
  PrintHypergraph("Reconstructed by MARIOH:", by_marioh);
  std::cout << "MARIOH:      Jaccard = "
            << eval::Jaccard(ego, by_marioh)
            << ", multi-Jaccard = " << eval::MultiJaccard(ego, by_marioh)
            << "\n\n";

  baselines::Shyre::Options options;
  options.seed = 7;
  baselines::Shyre shyre(options);
  shyre.Train(g_train, split.source);
  Hypergraph by_shyre = shyre.Reconstruct(g_ego).hypergraph;
  PrintHypergraph("Reconstructed by SHyRe-Count:", by_shyre);
  std::cout << "SHyRe-Count: Jaccard = " << eval::Jaccard(ego, by_shyre)
            << ", multi-Jaccard = " << eval::MultiJaccard(ego, by_shyre)
            << "\n";
  return 0;
}
