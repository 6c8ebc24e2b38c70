// Command-line reconstruction tool: the workflow a downstream user runs on
// their own files. It reads the two inputs with io/text_io.hpp and runs
// them through the public `api::Session` façade.
//
//   marioh_cli [flags] train.hg target.eg out.hg [theta_init r alpha]
//
// where `train.hg` is a source hypergraph (text format, see
// io/text_io.hpp), `target.eg` a weighted edge list of the projected graph
// to reconstruct, and `out.hg` the output hypergraph path. Flags:
//
//   --method NAME     reconstruction method (default MARIOH); see
//                     --list-methods for the roster
//   --set key=value   session or method option override (repeatable),
//                     e.g. --set theta_init=0.8 --set seed=7
//                     --set threads=8 (0 = all cores) parallelizes the
//                     reconstruction kernels of the MARIOH-family
//                     methods (baselines ignore it); output is
//                     identical for any thread count
//   --budget SECONDS  wall-clock budget over train+reconstruct; an
//                     overrunning run still writes its output but is
//                     reported as out of time with exit code 1
//   --list-methods    print the registered methods and exit
//
// Errors (unknown method, unreadable/malformed files, bad options —
// including non-finite or out-of-range theta/r/alpha) are reported on
// stderr with exit code 1 — never an abort. When invoked
// without arguments, runs a self-contained demo on generated files in the
// current directory.

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "io/text_io.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

int Fail(const marioh::api::Status& status) {
  std::cerr << "error: " << status.message() << "\n";
  return 1;
}

int ListMethods() {
  std::cout << "registered methods:\n";
  for (const marioh::api::MethodInfo& info :
       marioh::api::MethodRegistry::Global().Methods()) {
    std::cout << "  " << info.name
              << (info.supervised ? "  [supervised]" : "  [unsupervised]")
              << (info.multiplicity_aware ? " [multiplicity-aware]" : "")
              << "\n      " << info.summary << "\n";
  }
  return 0;
}

int Run(const std::string& train_path, const std::string& target_path,
        const std::string& out_path,
        marioh::api::SessionOptions options) {
  using marioh::api::Session;
  using marioh::api::Status;
  using marioh::api::StatusOr;

  Session session;
  if (Status status = session.Configure(std::move(options)); !status.ok()) {
    return Fail(status);
  }

  StatusOr<marioh::Hypergraph> source =
      marioh::io::TryReadHypergraphFile(train_path);
  if (!source.ok()) return Fail(source.status());
  if (Status status = marioh::io::CheckNodeIdsAreDense(*source);
      !status.ok()) {
    return Fail(status);
  }
  if (Status status = session.Train(source->Project(), *source);
      !status.ok()) {
    return Fail(status);
  }
  StatusOr<marioh::ProjectedGraph> target =
      marioh::io::TryReadProjectedGraphFile(target_path);
  if (!target.ok()) return Fail(target.status());
  if (Status status = session.Reconstruct(*target); !status.ok()) {
    return Fail(status);
  }
  if (Status status = session.WriteReconstruction(out_path);
      !status.ok()) {
    return Fail(status);
  }

  const marioh::Hypergraph& reconstructed = *session.reconstruction();
  std::cout << "method: " << session.method_info().name << "\n"
            << "reconstructed " << reconstructed.num_unique_edges()
            << " unique hyperedges (" << reconstructed.num_total_edges()
            << " total) -> " << out_path << "\n"
            << "stages: train " << session.stage_timer().Get("train")
            << "s, reconstruct "
            << session.stage_timer().Get("reconstruct") << "s (total "
            << session.elapsed_seconds() << "s)\n";
  if (session.deadline_exceeded()) {
    // The output was still written (the paper's OOT accounting keeps the
    // overrunning run), but the run is reported as out of time.
    std::cerr << "error: out of time: train+reconstruct exceeded the "
                 "budget\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  marioh::api::SessionOptions options;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " requires an argument\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list-methods") return ListMethods();
    if (arg == "--method") {
      const char* value = next("--method");
      if (value == nullptr) return 1;
      options.method = value;
    } else if (arg == "--set") {
      const char* value = next("--set");
      if (value == nullptr) return 1;
      if (marioh::api::Status status =
              marioh::api::ApplySessionOverride(&options, value);
          !status.ok()) {
        return Fail(status);
      }
    } else if (arg == "--budget") {
      const char* value = next("--budget");
      if (value == nullptr) return 1;
      if (marioh::api::Status status = marioh::api::ApplySessionOverride(
              &options, std::string("time_budget_seconds=") + value);
          !status.ok()) {
        return Fail(status);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      return 1;
    } else {
      positional.push_back(arg);
    }
  }

  if (positional.size() >= 3) {
    // Backward-compatible positional knobs: [theta_init r alpha]. Their
    // ranges are checked by the method factory at Configure.
    double* knobs[] = {&options.marioh.theta_init, &options.marioh.r_percent,
                       &options.marioh.alpha};
    for (size_t i = 3; i < positional.size() && i < 6; ++i) {
      std::optional<double> value = marioh::util::ParseDouble(positional[i]);
      if (!value.has_value()) {
        std::cerr << "error: theta/r/alpha must be numbers\n";
        return 1;
      }
      *knobs[i - 3] = *value;
    }
    return Run(positional[0], positional[1], positional[2],
               std::move(options));
  }
  if (!positional.empty()) {
    std::cerr << "usage: marioh_cli [flags] train.hg target.eg out.hg "
                 "[theta r alpha]\n       marioh_cli --list-methods\n";
    return 1;
  }

  // Demo mode: generate a dataset, write the files a user would have, then
  // run the same path as the file-based CLI.
  std::cout << "demo mode (pass: train.hg target.eg out.hg "
               "[theta r alpha] to run on your files)\n";
  marioh::gen::GeneratedDataset data =
      marioh::gen::Generate(marioh::gen::ProfileByName("hosts"), 11);
  marioh::util::Rng rng(12);
  marioh::gen::SourceTargetSplit split =
      marioh::gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  if (marioh::api::Status status = marioh::io::TryWriteHypergraphFile(
          split.source, "demo_train.hg");
      !status.ok()) {
    return Fail(status);
  }
  if (marioh::api::Status status = marioh::io::TryWriteProjectedGraphFile(
          split.target.Project(), "demo_target.eg");
      !status.ok()) {
    return Fail(status);
  }
  return Run("demo_train.hg", "demo_target.eg", "demo_out.hg",
             std::move(options));
}
