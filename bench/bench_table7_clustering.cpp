// Table VII: node clustering — spectral clustering NMI on the P.School and
// H.School profiles, comparing the projected graph, hypergraphs
// reconstructed by each method, and the ground-truth hypergraph.
//
// Usage: bench_table7_clustering [--quick]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "eval/clustering.hpp"
#include "api/registry.hpp"
#include "eval/harness.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"pschool"}
            : std::vector<std::string>{"pschool", "hschool"};
  std::vector<std::string> methods = {"SHyRe-Unsup", "SHyRe-Motif",
                                      "SHyRe-Count", "MARIOH"};

  marioh::util::TextTable table(
      "Table VII: node clustering NMI (spectral clustering)");
  std::vector<std::string> header = {"Input"};
  header.insert(header.end(), datasets.begin(), datasets.end());
  table.SetHeader(header);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Projected graph G"});
  for (const std::string& method : methods) {
    rows.push_back({"H^ by " + method});
  }
  rows.push_back({"Original hypergraph H"});

  for (const std::string& dataset : datasets) {
    marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
        dataset, /*multiplicity_reduced=*/true, /*seed=*/42);
    size_t k = data.num_classes;
    size_t embed_dim = k;

    auto nmi_of_graph = [&](const marioh::ProjectedGraph& g) {
      marioh::la::Matrix embedding =
          marioh::eval::GraphSpectralEmbedding(g, embed_dim);
      return marioh::eval::SpectralClusteringNmi(embedding, data.labels, k,
                                                 7);
    };
    auto nmi_of_hypergraph = [&](const marioh::Hypergraph& h) {
      marioh::la::Matrix embedding =
          marioh::eval::HypergraphSpectralEmbedding(h, embed_dim);
      return marioh::eval::SpectralClusteringNmi(embedding, data.labels, k,
                                                 7);
    };

    size_t row_idx = 0;
    rows[row_idx++].push_back(
        marioh::util::TextTable::Num(nmi_of_graph(*data.g_target), 4));
    for (const std::string& method : methods) {
      auto reconstructor = marioh::api::MustCreateMethod(method, 42);
      reconstructor->Train(*data.g_source, *data.source);
      marioh::Hypergraph reconstructed =
          reconstructor->Reconstruct(*data.g_target).hypergraph;
      double nmi = nmi_of_hypergraph(reconstructed);
      rows[row_idx++].push_back(marioh::util::TextTable::Num(nmi, 4));
      std::cerr << "[table7] " << method << " / " << dataset << " NMI "
                << nmi << "\n";
    }
    rows[row_idx++].push_back(
        marioh::util::TextTable::Num(nmi_of_hypergraph(*data.target), 4));
  }
  for (auto& row : rows) table.AddRow(row);
  std::cout << table.Render() << std::endl;
  return 0;
}
