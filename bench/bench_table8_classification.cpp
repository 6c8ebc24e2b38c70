// Table VIII: node classification — micro/macro F1 of an MLP trained on
// spectral embeddings from the projected graph, reconstructed hypergraphs,
// and the ground-truth hypergraph (P.School / H.School profiles).
//
// Usage: bench_table8_classification [--quick]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "eval/classification.hpp"
#include "eval/clustering.hpp"
#include "api/registry.hpp"
#include "eval/harness.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

constexpr int kSplits = 3;          // random train/test splits
constexpr double kTrainFraction = 0.7;

marioh::eval::F1Scores AverageF1(const marioh::la::Matrix& embedding,
                                 const std::vector<uint32_t>& labels,
                                 size_t num_classes) {
  marioh::util::RunningStats micro, macro;
  for (int s = 0; s < kSplits; ++s) {
    marioh::eval::F1Scores f1 = marioh::eval::NodeClassification(
        embedding, labels, num_classes, kTrainFraction,
        1000 + static_cast<uint64_t>(s));
    micro.Add(f1.micro);
    macro.Add(f1.macro);
  }
  return {micro.Mean(), macro.Mean()};
}

}  // namespace

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
      "Table VIII: node classification micro-F1 / macro-F1");
  std::vector<std::string> header = {"Input"};
  for (const std::string& d : datasets) {
    header.push_back(d + " micro");
    header.push_back(d + " macro");
  }
  table.SetHeader(header);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Projected graph G"});
  for (const std::string& method : methods) {
    rows.push_back({"H^ by " + method});
  }
  rows.push_back({"Original hypergraph H"});

  const size_t embed_dim = 16;
  for (const std::string& dataset : datasets) {
    marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
        dataset, /*multiplicity_reduced=*/true, /*seed=*/42);
    auto push = [&](size_t row, const marioh::eval::F1Scores& f1) {
      rows[row].push_back(marioh::util::TextTable::Num(f1.micro, 4));
      rows[row].push_back(marioh::util::TextTable::Num(f1.macro, 4));
    };
    size_t row_idx = 0;
    push(row_idx++,
         AverageF1(marioh::eval::GraphSpectralEmbedding(*data.g_target,
                                                        embed_dim),
                   data.labels, data.num_classes));
    for (const std::string& method : methods) {
      auto reconstructor = marioh::api::MustCreateMethod(method, 42);
      reconstructor->Train(*data.g_source, *data.source);
      marioh::Hypergraph reconstructed =
          reconstructor->Reconstruct(*data.g_target).hypergraph;
      marioh::eval::F1Scores f1 = AverageF1(
          marioh::eval::HypergraphSpectralEmbedding(reconstructed,
                                                    embed_dim),
          data.labels, data.num_classes);
      push(row_idx++, f1);
      std::cerr << "[table8] " << method << " / " << dataset << " micro "
                << f1.micro << " macro " << f1.macro << "\n";
    }
    push(row_idx++,
         AverageF1(marioh::eval::HypergraphSpectralEmbedding(*data.target,
                                                             embed_dim),
                   data.labels, data.num_classes));
  }
  for (auto& row : rows) table.AddRow(row);
  std::cout << table.Render() << std::endl;
  return 0;
}
