// Online-appendix experiment: storage savings of the hypergraph
// representation over the projected graph. A clique of size N costs
// C(N, 2) edge records in the graph but only O(N) in the hypergraph; this
// bench quantifies the saving per dataset profile for the ground truth and
// for MARIOH's reconstruction.
//
// Usage: bench_appendix_storage [--quick]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "eval/harness.hpp"
#include "util/table.hpp"

namespace {

/// Record cells: graph rows are (u, v, w); hypergraph rows are the node
/// list plus a multiplicity.
size_t GraphCells(const marioh::ProjectedGraph& g) {
  return g.num_edges() * 3;
}

size_t HypergraphCells(const marioh::Hypergraph& h) {
  size_t cells = 0;
  for (const auto& [e, m] : h.edges()) {
    (void)m;
    cells += e.size() + 1;
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"crime", "pschool"}
            : marioh::gen::TableDatasets();

  marioh::util::TextTable table(
      "Appendix: storage cells, projected graph vs hypergraph");
  table.SetHeader({"Dataset", "Graph cells", "GT hypergraph",
                   "MARIOH H^", "Saving vs graph"});

  for (const std::string& dataset : datasets) {
    marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
        dataset, /*multiplicity_reduced=*/true, /*seed=*/42);
    auto method = marioh::api::MustCreateMethod("MARIOH", 42);
    method->Train(*data.g_source, *data.source);
    marioh::Hypergraph reconstructed =
        method->Reconstruct(*data.g_target).hypergraph;

    size_t graph_cells = GraphCells(*data.g_target);
    size_t truth_cells = HypergraphCells(*data.target);
    size_t recon_cells = HypergraphCells(reconstructed);
    double saving =
        100.0 * (1.0 - static_cast<double>(recon_cells) /
                           static_cast<double>(graph_cells));
    table.AddRow({dataset, std::to_string(graph_cells),
                  std::to_string(truth_cells),
                  std::to_string(recon_cells),
                  marioh::util::TextTable::Num(saving, 1) + "%"});
    std::cerr << "[storage] " << dataset << " done\n";
  }
  std::cout << table.Render() << std::endl;
  return 0;
}
