// Smoke test for the marioh_serve front end: drives the line protocol
// end-to-end over a pipe — load → submit → wait → metrics → quit must
// exit 0 with the expected `ok ...` responses, and bad requests must
// produce `error ...` lines without killing the serving loop. Mirrors
// the test_examples_smoke CLI contract: never an abort. Also covers the
// start-up both daemons share: flag parsing and the journal directory's
// dataset-manifest restore.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "api/service.hpp"
#include "eval/harness.hpp"
#include "io/text_io.hpp"
#include "net/line_protocol.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace marioh {
namespace {

#if defined(MARIOH_SERVE_PATH) && (defined(__unix__) || defined(__APPLE__))

/// Feeds `script` to marioh_serve's stdin (started with the extra
/// command-line `args`), captures combined stdout+stderr into `output`,
/// and returns the exit code (-1 if killed by a signal, e.g. an abort).
int RunServe(const std::string& script, std::string* output,
             const std::string& args = "") {
  const std::string script_path = "serve_smoke_input.txt";
  const std::string capture_path = "serve_smoke_output.txt";
  {
    std::ofstream out(script_path);
    out << script;
  }
  std::string command = std::string("\"") + MARIOH_SERVE_PATH + "\" " +
                        args + " < \"" + script_path + "\" > \"" +
                        capture_path + "\" 2>&1";
  int raw = std::system(command.c_str());
  std::ifstream in(capture_path);
  std::ostringstream captured;
  captured << in.rdbuf();
  *output = captured.str();
  std::remove(script_path.c_str());
  std::remove(capture_path.c_str());
  if (!WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

TEST(ServeSmoke, LoadSubmitWaitMetricsQuitEndToEnd) {
  // Real files on disk, loaded through the `load` verb — the acceptance
  // path: load → submit → wait → metrics → quit.
  eval::PreparedDataset data =
      eval::PrepareDataset("crime", /*multiplicity_reduced=*/true,
                           /*seed=*/1);
  const std::string train_path = "serve_smoke_train.hg";
  const std::string target_path = "serve_smoke_target.eg";
  ASSERT_TRUE(io::TryWriteHypergraphFile(*data.source, train_path).ok());
  ASSERT_TRUE(
      io::TryWriteProjectedGraphFile(*data.g_target, target_path).ok());

  std::string output;
  int exit_code = RunServe(
      "load hypergraph train " + train_path + "\n" +
          "load graph target " + target_path + "\n" +
          "datasets\n"
          "submit method=MARIOH train=train target=target seed=7\n"
          "wait 1\n"
          "metrics json\n"
          "quit\n",
      &output);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("ok marioh_serve"), std::string::npos) << output;
  EXPECT_NE(output.find("ok dataset train"), std::string::npos) << output;
  EXPECT_NE(output.find("ok dataset target"), std::string::npos) << output;
  EXPECT_NE(output.find("ok datasets target train"), std::string::npos)
      << output;
  EXPECT_NE(output.find("ok job 1"), std::string::npos) << output;
  EXPECT_NE(output.find("state=DONE"), std::string::npos) << output;
  EXPECT_NE(output.find("unique_edges="), std::string::npos) << output;
  EXPECT_NE(output.find("ok metrics-json {"), std::string::npos) << output;
  EXPECT_NE(output.find(R"({"name":"marioh_jobs_accepted_total","value":1})"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find(R"({"name":"marioh_jobs_done_total","value":1})"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("ok bye"), std::string::npos) << output;
  EXPECT_EQ(output.find("error"), std::string::npos) << output;

  std::remove(train_path.c_str());
  std::remove(target_path.c_str());
}

TEST(ServeSmoke, GeneratedDatasetsEvaluateInProcess) {
  // The file-free workflow: gen + ground-truth evaluation, two jobs
  // sharing the generated handles.
  std::string output;
  int exit_code = RunServe(
      "gen d crime 1\n"
      "submit method=MARIOH train=d.train target=d.target truth=d.truth "
      "seed=1\n"
      "submit method=MaxClique target=d.target truth=d.truth seed=2\n"
      "wait 1\n"
      "wait 2\n"
      "metrics json\n"
      "quit\n",
      &output);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("ok generated d.train d.target d.truth"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("jaccard="), std::string::npos) << output;
  EXPECT_NE(output.find(R"({"name":"marioh_jobs_accepted_total","value":2})"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find(R"({"name":"marioh_jobs_done_total","value":2})"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("error"), std::string::npos) << output;
}

TEST(ServeSmoke, BadRequestsAreErrorsNotCrashes) {
  std::string output;
  int exit_code = RunServe(
      "frobnicate\n"
      "load hypergraph broken no_such_file.hg\n"
      "gen x no_such_profile 1\n"
      "submit method=NoSuchMethod target=nowhere\n"
      "poll 42\n"
      "cancel 42\n"
      "wait notanumber\n"
      "stats\n"
      "metrics json\n"
      "quit\n",
      &output);
  // Every request failed, yet the loop served all of them and exited 0.
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("error INVALID_ARGUMENT: unknown request "
                        "'frobnicate'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("error NOT_FOUND"), std::string::npos) << output;
  EXPECT_NE(output.find("no_such_file.hg"), std::string::npos) << output;
  EXPECT_NE(output.find("no_such_profile"), std::string::npos) << output;
  EXPECT_NE(output.find("NoSuchMethod"), std::string::npos) << output;
  EXPECT_NE(output.find("no job with id 42"), std::string::npos) << output;
  EXPECT_NE(output.find("usage: wait <job-id>"), std::string::npos)
      << output;
  // `stats` is retired; the registry serves the counters.
  EXPECT_NE(output.find("error INVALID_ARGUMENT: unknown request 'stats'"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find(R"({"name":"marioh_jobs_accepted_total","value":0})"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("ok bye"), std::string::npos) << output;
}

TEST(ServeSmoke, SparseHugeNodeIdsAreErrorsNotCrashes) {
  // One huge node id would size the dense per-node arrays by the id and
  // abort the process on allocation; each load must instead answer an
  // error and leave the loop serving.
  const std::string hg_path = "serve_smoke_huge.hg";
  const std::string eg_path = "serve_smoke_huge.eg";
  std::ofstream(hg_path) << "4000000000 1\n";
  std::ofstream(eg_path) << "0 1 1\n4000000000 1 1\n";
  std::string output;
  int exit_code = RunServe("load hypergraph h " + hg_path + "\n" +
                               "load graph g " + eg_path + "\n" +
                               "gen d crime 2\n"
                               "submit method=MaxClique target=d.target\n"
                               "wait 1\n"
                               "quit\n",
                           &output);
  std::remove(hg_path.c_str());
  std::remove(eg_path.c_str());
  EXPECT_EQ(exit_code, 0) << output;
  const std::string error = "error INVALID_ARGUMENT: node id 4000000000";
  size_t first = output.find(error);
  ASSERT_NE(first, std::string::npos) << output;
  EXPECT_NE(output.find(error, first + 1), std::string::npos) << output;
  EXPECT_NE(output.find("ok job 1 state=DONE"), std::string::npos) << output;
  EXPECT_NE(output.find("ok bye"), std::string::npos) << output;
}

TEST(ServeSmoke, MalformedWorkerCountIsRejected) {
  // Strict flag parsing: trailing garbage or padding is not a number, and
  // a count above the cap fails before any worker pool exists.
  for (const char* workers : {"2x", "\" 3\"", "-1", "100000"}) {
    std::string output;
    int exit_code =
        RunServe("quit\n", &output, std::string("--workers ") + workers);
    EXPECT_EQ(exit_code, 1) << workers << ": " << output;
    EXPECT_NE(output.find("error: --workers needs a non-negative integer"),
              std::string::npos)
        << workers << ": " << output;
    EXPECT_EQ(output.find("ok marioh_serve"), std::string::npos) << output;
  }
}

TEST(ServeSmoke, RetiredKeyIsRefusedAtSubmitWithOrWithoutAJournal) {
  // Submit configures the job as a worker would, so a retired key is an
  // error before any job id, journal record or worker is spent on it.
  const std::string dir = "serve_smoke_retired_key";
  std::filesystem::remove_all(dir);
  for (const std::string& args :
       {std::string(), "--journal-dir " + dir + " --fsync never"}) {
    std::string output;
    EXPECT_EQ(RunServe("gen d crime 2\n"
                       "submit method=MaxClique target=d.target kthreads=3\n"
                       "submit method=MaxClique target=d.target budget=5\n"
                       "submit method=MaxClique target=d.target "
                       "time_budget_seconds=5\n"
                       "metrics json\nquit\n",
                       &output, args),
              0)
        << output;
    for (const char* key : {"kthreads", "budget", "time_budget_seconds"}) {
      EXPECT_NE(output.find("error INVALID_ARGUMENT: MaxClique: unknown "
                            "option '" +
                            std::string(key) + "'"),
                std::string::npos)
          << args << ": " << output;
    }
    EXPECT_EQ(output.find("ok job"), std::string::npos) << output;
    EXPECT_NE(
        output.find(R"({"name":"marioh_jobs_accepted_total","value":0})"),
        std::string::npos)
        << args << ": " << output;
  }
  // A restart on the same journal has nothing to recover.
  std::string output;
  EXPECT_EQ(RunServe("poll 1\nmetrics json\nquit\n", &output,
                     "--journal-dir " + dir + " --fsync never"),
            0)
      << output;
  EXPECT_NE(output.find("error NOT_FOUND"), std::string::npos) << output;
  EXPECT_NE(
      output.find(R"({"name":"marioh_jobs_recovered_total","value":0})"),
      std::string::npos)
      << output;
  std::filesystem::remove_all(dir);
}

TEST(ServeSmoke, JournalDirRestoresGeneratedDatasetsOnRestart) {
  // First life generates a dataset into a journal directory; the second
  // life on the same directory restores it from the dataset manifest
  // before serving.
  const std::string dir = "serve_smoke_journal";
  std::filesystem::remove_all(dir);
  std::string output;
  EXPECT_EQ(RunServe("gen d crime 2\nquit\n", &output,
                     "--journal-dir " + dir + " --fsync never"),
            0)
      << output;
  EXPECT_NE(output.find("ok generated d.train d.target d.truth"),
            std::string::npos)
      << output;
  EXPECT_EQ(RunServe("datasets\nquit\n", &output, "--journal-dir " + dir),
            0)
      << output;
  EXPECT_NE(output.find("ok datasets d.target d.train d.truth"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("warning"), std::string::npos) << output;
  std::filesystem::remove_all(dir);
}

TEST(ServeSmoke, EofWithRunningJobsStillExitsZero) {
  // No quit line and a job possibly still running at EOF: the service
  // destructor must wind down cleanly.
  std::string output;
  int exit_code = RunServe(
      "gen d crime 2\n"
      "submit method=MARIOH train=d.train target=d.target seed=3\n",
      &output);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("ok job 1"), std::string::npos) << output;
  EXPECT_NE(output.find("ok bye"), std::string::npos) << output;
}

#endif  // MARIOH_SERVE_PATH && unix

// Keeps the suite non-empty on platforms without the pipe harness.
TEST(ServeSmoke, HarnessPlaceholder) { SUCCEED(); }

// A fixed-arity verb refuses a missing or extra operand with its usage
// line and has no effect: `forget 1 9` must not forget job 1, and
// `load hypergraph n my file.hg` must not load `my` as `n`.
TEST(LineProtocolGrammar, FixedArityVerbsRefuseWrongOperandCounts) {
  auto cache = std::make_shared<api::DatasetCache>();
  api::Service service(cache);
  net::LineProtocol protocol(cache.get(), &service);
  ASSERT_EQ(protocol.Handle("gen d crime 1").response.rfind("ok generated", 0),
            0u);
  ASSERT_EQ(protocol.Handle("submit method=MaxClique target=d.target")
                .response,
            "ok job 1\n");
  ASSERT_TRUE(service.Wait(1).ok());

  struct Row {
    const char* line;
    const char* usage;
  };
  const Row rows[] = {
      {"load hypergraph n my file.hg",
       "load <hypergraph|graph> <name> <path>"},
      {"load hypergraph n", "load <hypergraph|graph> <name> <path>"},
      {"gen e crime 1 extra tokens", "gen <name> <profile> [seed]"},
      {"gen e", "gen <name> <profile> [seed]"},
      {"datasets d", "datasets"},
      {"methods all", "methods"},
      {"poll 1 junk", "poll <job-id>"},
      {"poll", "poll <job-id>"},
      {"wait 1 2", "wait <job-id>"},
      {"cancel 1 2", "cancel <job-id>"},
      {"forget 1 9", "forget <job-id>"},
      {"metrics json extra", "metrics [json]"},
      {"metrics yaml", "metrics [json]"},
      {"quit now", "quit"},
  };
  for (const Row& row : rows) {
    net::LineProtocol::Result result = protocol.Handle(row.line);
    EXPECT_EQ(result.response, "error INVALID_ARGUMENT: usage: " +
                                   std::string(row.usage) + "\n")
        << row.line;
    EXPECT_FALSE(result.quit) << row.line;
    EXPECT_FALSE(result.wait_for.has_value()) << row.line;
  }
  // Nothing was loaded, generated or forgotten.
  EXPECT_EQ(protocol.Handle("datasets").response,
            "ok datasets d.target d.train d.truth\n");
  EXPECT_EQ(protocol.Handle("poll 1").response.rfind("ok job 1 state=DONE", 0),
            0u);
  EXPECT_TRUE(protocol.Handle("quit").quit);
}

// Both daemons parse --workers here; the cap keeps a typo from starting
// a hundred thousand worker threads. Parsing starts no pool.
TEST(ServiceFlags, WorkersAcceptsZeroToTheCapOnly) {
  for (int workers : {0, 1, net::kMaxServiceWorkers}) {
    api::ServiceOptions options;
    std::optional<api::Status> parsed = net::ParseServiceFlag(
        "--workers", std::to_string(workers), &options);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->ok()) << workers << ": " << parsed->ToString();
    EXPECT_EQ(options.num_workers, workers);
  }
  for (const std::string& workers :
       {std::to_string(net::kMaxServiceWorkers + 1), std::string("100000"),
        std::string("2147483647"), std::string("-1")}) {
    api::ServiceOptions options;
    std::optional<api::Status> parsed =
        net::ParseServiceFlag("--workers", workers, &options);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->code(), api::StatusCode::kInvalidArgument) << workers;
    EXPECT_EQ(options.num_workers, api::ServiceOptions{}.num_workers);
  }
}

}  // namespace
}  // namespace marioh
