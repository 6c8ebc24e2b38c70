// Fig. 6: runtime breakdown of MARIOH (train / filtering / bidirectional
// search) vs SHyRe-Count (train / inference) per dataset.
//
// Usage: bench_fig6_breakdown [--quick]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "baselines/shyre.hpp"
#include "eval/harness.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"crime", "enron"}
            : std::vector<std::string>{"crime",      "directors", "hosts",
                                       "enron",      "foursquare",
                                       "pschool",    "eu"};

  marioh::util::TextTable table(
      "Fig. 6: runtime breakdown (seconds), MARIOH vs SHyRe-Count");
  table.SetHeader({"Dataset", "MARIOH train", "MARIOH filter",
                   "MARIOH bidir", "SHyRe train", "SHyRe infer"});

  for (const std::string& dataset : datasets) {
    marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
        dataset, /*multiplicity_reduced=*/true, /*seed=*/42);

    // MARIOH's layers as its Session reports them: the `train` stage and
    // the per-phase seconds of the reconstruction.
    marioh::api::Session session;
    marioh::api::Status status = session.Configure({});
    if (status.ok()) status = session.Train(*data.g_source, *data.source);
    if (status.ok()) status = session.Reconstruct(*data.g_target);
    if (!status.ok()) {
      std::cerr << "[fig6] " << dataset << ": " << status.ToString() << "\n";
      return 1;
    }
    const marioh::util::StageTimer& stages = session.stage_timer();

    marioh::baselines::Shyre::Options shyre_options;
    shyre_options.seed = 42;
    marioh::baselines::Shyre shyre(shyre_options);
    marioh::util::Timer train_timer;
    shyre.Train(*data.g_source, *data.source);
    double shyre_train = train_timer.Seconds();
    marioh::util::Timer infer_timer;
    shyre.Reconstruct(*data.g_target);
    double shyre_infer = infer_timer.Seconds();

    table.AddRow({dataset,
                  marioh::util::TextTable::Num(stages.Get("train"), 3),
                  marioh::util::TextTable::Num(
                      stages.Get("reconstruct.filtering_seconds"), 3),
                  marioh::util::TextTable::Num(
                      stages.Get("reconstruct.bidirectional_seconds"), 3),
                  marioh::util::TextTable::Num(shyre_train, 3),
                  marioh::util::TextTable::Num(shyre_infer, 3)});
    std::cerr << "[fig6] " << dataset << " done\n";
  }
  std::cout << table.Render() << std::endl;
  return 0;
}
