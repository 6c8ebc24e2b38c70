// Fig. 5: average runtime of MARIOH and every competitor across the
// dataset profiles (train + reconstruct wall clock).
//
// Usage: bench_fig5_runtime [--quick]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "eval/harness.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"crime", "hosts", "enron"}
            : std::vector<std::string>{"crime", "directors", "hosts",
                                       "enron", "foursquare", "pschool",
                                       "eu"};
  std::vector<std::string> methods = marioh::api::Table2Roster();

  marioh::util::TextTable table(
      "Fig. 5: average runtime (seconds) per method");
  table.SetHeader({"Method", "Avg seconds", "Max seconds"});

  for (const std::string& method : methods) {
    marioh::util::RunningStats stats;
    double max_seconds = 0.0;
    for (const std::string& dataset : datasets) {
      marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
          dataset, /*multiplicity_reduced=*/true, /*seed=*/42);
      auto reconstructor = marioh::api::MustCreateMethod(method, 42);
      marioh::util::Timer timer;
      reconstructor->Train(*data.g_source, *data.source);
      reconstructor->Reconstruct(*data.g_target);
      double elapsed = timer.Seconds();
      stats.Add(elapsed);
      max_seconds = std::max(max_seconds, elapsed);
      std::cerr << "[fig5] " << method << " / " << dataset << " "
                << elapsed << "s\n";
    }
    table.AddRow({method, marioh::util::TextTable::Num(stats.Mean(), 3),
                  marioh::util::TextTable::Num(max_seconds, 3)});
  }
  std::cout << table.Render() << std::endl;
  return 0;
}
