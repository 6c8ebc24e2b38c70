// Table IX: link prediction AUC — handcrafted pair features (+ GCN link
// embeddings) on the projected graph vs hypergraphs reconstructed by each
// method vs the ground-truth hypergraph.
//
// Usage: bench_table9_linkpred [--quick]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "eval/harness.hpp"
#include "eval/linkpred.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

constexpr int kSeeds = 3;

double AverageAuc(const marioh::ProjectedGraph& g,
                  const marioh::Hypergraph* hypergraph, bool use_gcn) {
  marioh::util::RunningStats stats;
  for (int s = 0; s < kSeeds; ++s) {
    marioh::eval::LinkPredOptions options;
    options.seed = 500 + static_cast<uint64_t>(s);
    options.use_gcn = use_gcn;
    stats.Add(100.0 *
              marioh::eval::LinkPredictionAuc(g, hypergraph, options));
  }
  return stats.Mean();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // GCN embeddings are O(n^2)-dense; restrict to the small/mid profiles.
  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"crime", "hosts"}
            : std::vector<std::string>{"enron", "crime", "hosts",
                                       "directors", "pschool", "eu"};
  const bool use_gcn = !quick;
  std::vector<std::string> methods = {"SHyRe-Unsup", "SHyRe-Count",
                                      "MARIOH"};

  marioh::util::TextTable table("Table IX: link prediction AUC (x100)");
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
    size_t row_idx = 0;
    double g_auc = AverageAuc(*data.g_target, nullptr, use_gcn);
    rows[row_idx++].push_back(marioh::util::TextTable::Num(g_auc));
    std::cerr << "[table9] projected / " << dataset << " AUC " << g_auc
              << "\n";
    for (const std::string& method : methods) {
      auto reconstructor = marioh::api::MustCreateMethod(method, 42);
      reconstructor->Train(*data.g_source, *data.source);
      marioh::Hypergraph reconstructed =
          reconstructor->Reconstruct(*data.g_target).hypergraph;
      double auc = AverageAuc(*data.g_target, &reconstructed, use_gcn);
      rows[row_idx++].push_back(marioh::util::TextTable::Num(auc));
      std::cerr << "[table9] " << method << " / " << dataset << " AUC "
                << auc << "\n";
    }
    double h_auc = AverageAuc(*data.g_target, data.target.get(), use_gcn);
    rows[row_idx++].push_back(marioh::util::TextTable::Num(h_auc));
  }
  for (auto& row : rows) table.AddRow(row);
  std::cout << table.Render() << std::endl;
  return 0;
}
