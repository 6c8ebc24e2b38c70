// Smoke test mirroring examples/quickstart.cpp: the whole public API —
// generate, split, project, train, reconstruct, score — must run end-to-end
// on a tiny synthetic graph and produce a sane reconstruction. The quickstart
// binary itself is additionally registered with ctest as
// `examples_quickstart_smoke` (see examples/CMakeLists.txt); this suite
// asserts on the intermediate values the example only prints.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/marioh.hpp"
#include "eval/metrics.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace marioh {
namespace {

TEST(ExamplesSmoke, QuickstartPipelineRunsEndToEnd) {
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName("crime"), /*seed=*/1);
  ASSERT_GT(data.hypergraph.num_nodes(), 0u);
  ASSERT_GT(data.hypergraph.num_unique_edges(), 0u);

  util::Rng rng(7);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  ProjectedGraph g_source = split.source.Project();
  ProjectedGraph g_target = split.target.Project();
  ASSERT_GT(g_source.num_edges(), 0u);
  ASSERT_GT(g_target.num_edges(), 0u);

  core::MariohOptions options;  // paper defaults
  core::Marioh marioh(options);
  marioh.Train(g_source, split.source);
  Hypergraph reconstructed = marioh.Reconstruct(g_target);
  ASSERT_GT(reconstructed.num_unique_edges(), 0u);

  // The crime profile is one of the easiest regimes in Table II; anything
  // below 0.5 Jaccard means the pipeline is broken, not merely inaccurate.
  const double jaccard = eval::Jaccard(split.target, reconstructed);
  const double multi_jaccard = eval::MultiJaccard(split.target, reconstructed);
  EXPECT_GE(jaccard, 0.5);
  EXPECT_GE(multi_jaccard, 0.5);
  EXPECT_LE(jaccard, 1.0);
  EXPECT_LE(multi_jaccard, 1.0);
}

// The CLI failure paths are part of the public API contract: bad input
// must produce a readable diagnostic and exit code 1 — never an abort
// (which std::system reports as a signal, failing WIFEXITED).
#if defined(MARIOH_CLI_PATH) && (defined(__unix__) || defined(__APPLE__))

/// Runs the CLI with `args`, captures combined stdout+stderr into
/// `output`, and returns the exit code (-1 if the process was killed by a
/// signal, e.g. an abort).
int RunCli(const std::string& args, std::string* output) {
  const std::string capture_path = "cli_smoke_output.txt";
  // Paths are quoted so a build tree under a directory with spaces works.
  std::string command = std::string("\"") + MARIOH_CLI_PATH + "\" " +
                        args + " > \"" + capture_path + "\" 2>&1";
  int raw = std::system(command.c_str());
  std::ifstream in(capture_path);
  std::ostringstream captured;
  captured << in.rdbuf();
  *output = captured.str();
  std::remove(capture_path.c_str());
  if (!WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

TEST(ExamplesSmoke, CliUnknownMethodPrintsRosterAndExitsNonZero) {
  std::string output;
  int exit_code =
      RunCli("--method NoSuchMethod a.hg b.eg c.hg", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("NoSuchMethod"), std::string::npos) << output;
  EXPECT_NE(output.find("known methods"), std::string::npos) << output;
  EXPECT_NE(output.find("MARIOH"), std::string::npos) << output;
}

TEST(ExamplesSmoke, CliMissingInputFileIsAReadableErrorAndExitsNonZero) {
  std::string output;
  int exit_code = RunCli(
      "definitely_missing_train.hg missing_target.eg out.hg", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("cannot open"), std::string::npos) << output;
  EXPECT_NE(output.find("definitely_missing_train.hg"), std::string::npos)
      << output;
}

TEST(ExamplesSmoke, CliBadOverrideIsAReadableErrorAndExitsNonZero) {
  std::string output;
  int exit_code =
      RunCli("--set theta_init=oops a.hg b.eg c.hg", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("theta_init"), std::string::npos) << output;
  // A non-finite value is as bad as a non-number: it must be rejected
  // naming the key, before any file is read.
  exit_code = RunCli("--set theta_init=nan a.hg b.eg c.hg", &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("theta_init"), std::string::npos) << output;
}

TEST(ExamplesSmoke, CliEmptyTrainingFileIsAReadableErrorAndExitsNonZero) {
  const std::string train = "cli_smoke_empty_train.hg";
  const std::string target = "cli_smoke_target.eg";
  const std::string out = "cli_smoke_out.hg";
  std::ofstream(train) << "# no hyperedges\n";
  std::ofstream(target) << "1 2 1\n2 3 2\n1 3 1\n3 4 1\n";
  std::string output;
  int exit_code = RunCli(train + " " + target + " " + out, &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("error"), std::string::npos) << output;
  EXPECT_NE(output.find("hyperedge"), std::string::npos) << output;
  for (const std::string& path : {train, target, out}) {
    std::remove(path.c_str());
  }
}

TEST(ExamplesSmoke, CliSparseHugeNodeIdIsAReadableError) {
  // Projecting the training hypergraph would size dense per-node arrays
  // by the one huge id; the CLI must refuse it as the daemon's `load`
  // does, naming the id, before anything is allocated.
  const std::string train = "cli_smoke_huge_train.hg";
  const std::string target = "cli_smoke_huge_target.eg";
  const std::string out = "cli_smoke_huge_out.hg";
  std::ofstream(train) << "4000000000 1\n0 1 2\n";
  std::ofstream(target) << "0 1 1\n1 2 1\n";
  std::string output;
  int exit_code = RunCli(train + " " + target + " " + out, &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("error"), std::string::npos) << output;
  EXPECT_NE(output.find("node id 4000000000"), std::string::npos) << output;
  for (const std::string& path : {train, target, out}) {
    std::remove(path.c_str());
  }
}

TEST(ExamplesSmoke, CliBudgetAppliesTheHarnessOutOfTimeRule) {
  const std::string train = "cli_smoke_budget_train.hg";
  const std::string target = "cli_smoke_budget_target.eg";
  const std::string out = "cli_smoke_budget_out.hg";
  std::ofstream(train) << "0 1 2\n2 3\n1 3 4\n0 4\n2 3 4\n";
  std::ofstream(target) << "0 1 1\n1 2 2\n0 2 1\n2 3 1\n3 4 1\n";
  const std::string files = " " + train + " " + target + " " + out;
  std::string output;
  // Every run overruns a zero budget: the output is still written, but
  // the run is reported out of time with exit code 1.
  std::remove(out.c_str());
  EXPECT_EQ(RunCli("--budget 0" + files, &output), 1) << output;
  EXPECT_NE(output.find("out of time"), std::string::npos) << output;
  EXPECT_TRUE(std::ifstream(out).good()) << output;
  EXPECT_EQ(RunCli("--budget 1e9" + files, &output), 0) << output;
  // The budget is the CLI's own flag: a non-number is refused, and the
  // retired session key is an unknown option of the method.
  EXPECT_EQ(RunCli("--budget abc" + files, &output), 1) << output;
  EXPECT_NE(output.find("--budget needs a number"), std::string::npos)
      << output;
  EXPECT_EQ(RunCli("--set time_budget_seconds=5" + files, &output), 1)
      << output;
  EXPECT_NE(output.find("unknown option 'time_budget_seconds'"),
            std::string::npos)
      << output;
  for (const std::string& path : {train, target, out}) {
    std::remove(path.c_str());
  }
}

TEST(ExamplesSmoke, CliListMethodsExitsZero) {
  std::string output;
  int exit_code = RunCli("--list-methods", &output);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("MARIOH"), std::string::npos) << output;
  EXPECT_NE(output.find("CFinder"), std::string::npos) << output;
}

#endif  // MARIOH_CLI_PATH && unix

}  // namespace
}  // namespace marioh
