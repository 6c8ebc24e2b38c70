// Table IV: preservation of 12 structural properties (7 scalars compared
// by normalized difference, 5 distributions by the KS D-statistic),
// averaged over datasets, for the five strongest reconstruction methods.
//
// Usage: bench_table4_structure [--quick]

#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "eval/harness.hpp"
#include "eval/structural.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<std::string> methods = {"Bayesian-MDL", "SHyRe-Count",
                                      "SHyRe-Motif", "SHyRe-Unsup",
                                      "MARIOH"};
  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"crime", "hosts"}
            : std::vector<std::string>{"crime",      "hosts", "directors",
                                       "foursquare", "enron", "pschool"};

  // property name -> method -> stats over datasets.
  std::map<std::string, std::map<std::string, marioh::util::RunningStats>>
      errors;
  std::vector<std::string> property_order;
  std::map<std::string, marioh::util::RunningStats> overall;

  for (const std::string& dataset : datasets) {
    marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
        dataset, /*multiplicity_reduced=*/true, /*seed=*/42);
    for (const std::string& method : methods) {
      auto reconstructor = marioh::api::MustCreateMethod(method, 42);
      reconstructor->Train(*data.g_source, *data.source);
      marioh::Hypergraph reconstructed =
          reconstructor->Reconstruct(*data.g_target).hypergraph;
      marioh::eval::StructuralReport report =
          marioh::eval::CompareStructure(*data.target, reconstructed, 7);
      auto record = [&](const std::string& property, double err) {
        if (errors.count(property) == 0) property_order.push_back(property);
        errors[property][method].Add(err);
        overall[method].Add(err);
      };
      for (const auto& [property, err] : report.scalar_errors) {
        record(property, err);
      }
      for (const auto& [property, err] : report.distributional_errors) {
        record(property, err);
      }
      std::cerr << "[table4] " << method << " / " << dataset
                << " avg error " << report.AverageError() << "\n";
    }
  }

  marioh::util::TextTable table(
      "Table IV: structural-property preservation error (lower is better)");
  std::vector<std::string> header = {"Structural Property"};
  header.insert(header.end(), methods.begin(), methods.end());
  table.SetHeader(header);
  for (const std::string& property : property_order) {
    std::vector<std::string> row = {property};
    for (const std::string& method : methods) {
      const marioh::util::RunningStats& s = errors[property][method];
      row.push_back(
          marioh::util::TextTable::MeanStd(s.Mean(), s.Std()));
    }
    table.AddRow(row);
  }
  std::vector<std::string> row = {"Average (Overall)"};
  for (const std::string& method : methods) {
    row.push_back(marioh::util::TextTable::MeanStd(overall[method].Mean(),
                                                   overall[method].Std()));
  }
  table.AddRow(row);
  std::cout << table.Render() << std::endl;
  return 0;
}
