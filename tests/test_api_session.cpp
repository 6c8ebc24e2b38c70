// Tests for the api::Session façade: the configure → train → reconstruct
// → evaluate protocol, string overrides, per-stage timing, the harness's
// out-of-time rule read off that timing, and a file round trip through
// io/text_io — all failure modes as Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "eval/harness.hpp"
#include "io/text_io.hpp"

namespace marioh::api {
namespace {

eval::PreparedDataset SmallDataset() {
  return eval::PrepareDataset("crime", /*multiplicity_reduced=*/true,
                              /*seed=*/1);
}

TEST(Session, WalksTheWholeProtocol) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MARIOH";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  EXPECT_TRUE(session.method_info().supervised);

  ASSERT_TRUE(session.Train(*data.g_source, *data.source).ok());
  Status reconstructed = session.Reconstruct(*data.g_target);
  ASSERT_TRUE(reconstructed.ok()) << reconstructed.ToString();
  ASSERT_NE(session.reconstruction(), nullptr);
  EXPECT_GT(session.reconstruction()->num_unique_edges(), 0u);

  StatusOr<EvaluationResult> scores = session.Evaluate(*data.target);
  ASSERT_TRUE(scores.ok());
  // The crime profile is one of the easiest regimes in Table II; anything
  // below 0.5 Jaccard means the pipeline is broken, not merely inaccurate.
  EXPECT_GE(scores->jaccard, 0.5);
  EXPECT_LE(scores->jaccard, 1.0);
  EXPECT_EQ(scores->reconstructed_unique_edges,
            session.reconstruction()->num_unique_edges());

  // Per-stage timing was recorded.
  EXPECT_GT(session.stage_timer().Get("reconstruct"), 0.0);
}

TEST(Session, UnknownMethodIsANotFoundStatusNotAnAbort) {
  Session session;
  SessionOptions options;
  options.method = "NoSuchMethod";
  Status status = session.Configure(options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("known methods"), std::string::npos);
  EXPECT_FALSE(session.configured());
}

TEST(Session, StagesBeforeConfigureFailCleanly) {
  eval::PreparedDataset data = SmallDataset();
  Session session;
  EXPECT_EQ(session.Train(*data.g_source, *data.source).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Reconstruct(*data.g_target).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Evaluate(*data.target).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Session, SupervisedMethodRequiresTrainBeforeReconstruct) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MARIOH";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  Status result = session.Reconstruct(*data.g_target);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kFailedPrecondition);
}

TEST(Session, UnsupervisedMethodReconstructsWithoutTrain) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MaxClique";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  EXPECT_FALSE(session.method_info().supervised);
  Status result = session.Reconstruct(*data.g_target);
  ASSERT_TRUE(result.ok()) << result.ToString();
  ASSERT_NE(session.reconstruction(), nullptr);
  EXPECT_GT(session.reconstruction()->num_unique_edges(), 0u);
}

TEST(Session, SupervisedTrainOnAnEmptySourceIsInvalidArgument) {
  eval::PreparedDataset data = SmallDataset();
  const Hypergraph empty;
  const ProjectedGraph empty_graph = empty.Project();
  for (const char* method : {"MARIOH", "SHyRe-Count"}) {
    SessionOptions options;
    options.method = method;
    Session session;
    ASSERT_TRUE(session.Configure(options).ok());
    Status status = session.Train(empty_graph, empty);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << method;
    EXPECT_NE(status.message().find(method), std::string::npos)
        << status.ToString();
    // Refused before the stage started, and the session is not trained.
    EXPECT_EQ(session.stage_timer().Get("train"), 0.0) << method;
    EXPECT_EQ(session.Reconstruct(*data.g_target).code(),
              StatusCode::kFailedPrecondition)
        << method;
  }
  // An unsupervised method ignores the source, empty or not.
  SessionOptions options;
  options.method = "MaxClique";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(empty_graph, empty).ok());
  Status result = session.Reconstruct(*data.g_target);
  ASSERT_TRUE(result.ok()) << result.ToString();
  EXPECT_GT(session.reconstruction()->num_unique_edges(), 0u);
}

TEST(Session, OutOfTimeJudgesTrainPlusReconstructAgainstTheBudget) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MARIOH";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  EXPECT_FALSE(eval::OutOfTime(session, 0.0));  // no stage has run yet
  ASSERT_TRUE(session.Train(*data.g_source, *data.source).ok());
  Status first = session.Reconstruct(*data.g_target);
  ASSERT_TRUE(first.ok()) << first.ToString();
  // Any run overruns a zero budget; a negative budget is no limit.
  EXPECT_TRUE(eval::OutOfTime(session, 0.0));
  EXPECT_FALSE(eval::OutOfTime(session, -1.0));
  EXPECT_FALSE(eval::OutOfTime(session, 1e9));
  // The rule is the caller's: the session neither scores nor refuses
  // differently for it, so the overrunning run still evaluates and a
  // later stage still runs.
  EXPECT_TRUE(session.Evaluate(*data.target).ok());
  Status second = session.Reconstruct(*data.g_target);
  EXPECT_TRUE(second.ok()) << second.ToString();
}

TEST(Session, StringOverridesConfigureTheSessionAndTheMethod) {
  SessionOptions options;
  ASSERT_TRUE(ApplySessionOverride(&options, "method=MARIOH-B").ok());
  ASSERT_TRUE(ApplySessionOverride(&options, "seed=9").ok());
  ASSERT_TRUE(ApplySessionOverride(&options, "theta_init=0.8").ok());
  EXPECT_EQ(options.method, "MARIOH-B");
  EXPECT_EQ(options.seed, 9u);
  // Method-level keys are validated at Configure time.
  Session session;
  EXPECT_TRUE(session.Configure(options).ok());

  EXPECT_EQ(ApplySessionOverride(&options, "garbage").code(),
            StatusCode::kInvalidArgument);
  SessionOptions fresh;
  EXPECT_EQ(ApplySessionOverride(&fresh, "seed=abc").code(),
            StatusCode::kInvalidArgument);
  // stoull would silently wrap a negative seed; it must be rejected.
  EXPECT_EQ(ApplySessionOverride(&fresh, "seed=-1").code(),
            StatusCode::kInvalidArgument);
  // Numbers parse strictly: digits only for the seed.
  EXPECT_EQ(ApplySessionOverride(&fresh, "seed=+5").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ApplySessionOverride(&options, "bogus_key=1").ok());
  Session rejects;
  Status status = rejects.Configure(options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bogus_key"), std::string::npos);
}

TEST(Session, ThreadsOverrideConfiguresTheHotKernels) {
  {
    SessionOptions options;
    ASSERT_TRUE(ApplySessionOverride(&options, "threads=8").ok());
    EXPECT_EQ(options.marioh.num_threads, 8);
  }
  {
    SessionOptions options;
    ASSERT_TRUE(ApplySessionOverride(&options, "threads=0").ok());
    EXPECT_EQ(options.marioh.num_threads, 0);  // 0 = all cores
  }
  SessionOptions options;
  EXPECT_EQ(ApplySessionOverride(&options, "threads=-2").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplySessionOverride(&options, "threads=two").code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, OverridesRejectEmptyKeysAndValues) {
  SessionOptions options;
  // Empty key ('=value') and empty value ('key=') each get a precise
  // InvalidArgument naming the problem — session- and method-level alike.
  Status empty_key = ApplySessionOverride(&options, "=0.8");
  EXPECT_EQ(empty_key.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty_key.message().find("empty key"), std::string::npos);
  for (const char* assignment :
       {"seed=", "method=", "threads=", "theta_init="}) {
    Status status = ApplySessionOverride(&options, assignment);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << assignment;
    EXPECT_NE(status.message().find("empty value"), std::string::npos)
        << assignment;
  }
  // Nothing leaked into the override list or the applied-key ledger.
  EXPECT_TRUE(options.overrides.empty());
  EXPECT_TRUE(options.applied_session_keys.empty());
}

TEST(Session, DuplicateSessionLevelOverridesAreRejected) {
  for (const auto& [first, second] :
       std::vector<std::pair<const char*, const char*>>{
           {"seed=1", "seed=2"},
           {"method=MARIOH", "method=MaxClique"},
           {"threads=2", "threads=4"}}) {
    SessionOptions options;
    ASSERT_TRUE(ApplySessionOverride(&options, first).ok()) << first;
    Status status = ApplySessionOverride(&options, second);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << second;
    EXPECT_NE(status.message().find("duplicate session option"),
              std::string::npos)
        << status.message();
  }
  // A failed assignment claims nothing: the key can still be set once.
  SessionOptions options;
  EXPECT_EQ(ApplySessionOverride(&options, "seed=abc").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ApplySessionOverride(&options, "seed=5").ok());
  EXPECT_EQ(options.seed, 5u);
  // Method-level keys are not session state; factories see duplicates
  // and apply their own policy.
  EXPECT_TRUE(ApplySessionOverride(&options, "theta_init=0.8").ok());
  EXPECT_TRUE(ApplySessionOverride(&options, "theta_init=0.9").ok());
  EXPECT_EQ(options.overrides.size(), 2u);
}

TEST(Session, ThreadsOverrideDoesNotChangeTheReconstruction) {
  eval::PreparedDataset data = SmallDataset();
  auto run = [&](const char* threads) {
    SessionOptions options;
    options.method = "MARIOH";
    if (threads != nullptr) {
      EXPECT_TRUE(ApplySessionOverride(&options, threads).ok());
    }
    Session session;
    EXPECT_TRUE(session.Configure(options).ok());
    EXPECT_TRUE(session.Train(*data.g_source, *data.source).ok());
    EXPECT_TRUE(session.Reconstruct(*data.g_target).ok());
    return session.reconstruction()->edges();
  };
  auto sequential = run(nullptr);
  EXPECT_EQ(run("threads=4"), sequential);
}

TEST(Session, ReconstructionCountersLandInStageStats) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MARIOH";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(*data.g_source, *data.source).ok());
  ASSERT_TRUE(session.Reconstruct(*data.g_target).ok());
  // The method's run counters are recorded under "reconstruct.<name>";
  // in particular a truncated clique enumeration would be visible here
  // (this small dataset never truncates).
  EXPECT_GT(session.stage_timer().Get("reconstruct.iterations"), 0.0);
  EXPECT_GT(session.stage_timer().Get("reconstruct.maximal_cliques"), 0.0);
  EXPECT_EQ(session.stage_timer().Get("reconstruct.cliques_truncated"),
            0.0);
  // Snapshot upkeep counters: every iteration's snapshot was either
  // patched or rebuilt, so the mix accounts for all of them.
  double snapshots =
      session.stage_timer().Get("reconstruct.snapshot_patches") +
      session.stage_timer().Get("reconstruct.snapshot_rebuilds");
  EXPECT_GT(snapshots, 0.0);
  // The per-phase seconds of Algorithm 1 ride the same channel.
  EXPECT_GT(session.stage_timer().Get("reconstruct.filtering_seconds"), 0.0);
  EXPECT_GT(session.stage_timer().Get("reconstruct.bidirectional_seconds"),
            0.0);
  // So do its per-iteration steps, which fit inside the loop's time.
  double steps = 0.0;
  for (const char* step : {"update", "score", "peel", "patch"}) {
    const std::string key = std::string("reconstruct.") + step + "_seconds";
    ASSERT_TRUE(session.stage_timer().stages().contains(key)) << key;
    EXPECT_GE(session.stage_timer().Get(key), 0.0) << key;
    steps += session.stage_timer().Get(key);
  }
  EXPECT_LE(steps,
            session.stage_timer().Get("reconstruct.bidirectional_seconds"));
}

TEST(Session, FileBasedRoundTripMatchesInMemoryRun) {
  eval::PreparedDataset data = SmallDataset();
  const std::string train_path = "session_test_train.hg";
  const std::string target_path = "session_test_target.eg";
  const std::string out_path = "session_test_out.hg";
  ASSERT_TRUE(io::TryWriteHypergraphFile(*data.source, train_path).ok());
  ASSERT_TRUE(
      io::TryWriteProjectedGraphFile(*data.g_target, target_path).ok());

  SessionOptions options;
  options.method = "MARIOH";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  StatusOr<Hypergraph> source = io::TryReadHypergraphFile(train_path);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(session.Train(source->Project(), *source).ok());
  StatusOr<ProjectedGraph> target = io::TryReadProjectedGraphFile(target_path);
  ASSERT_TRUE(target.ok());
  Status reconstructed = session.Reconstruct(*target);
  ASSERT_TRUE(reconstructed.ok()) << reconstructed.ToString();
  ASSERT_TRUE(session.WriteReconstruction(out_path).ok());

  StatusOr<Hypergraph> round_trip = io::TryReadHypergraphFile(out_path);
  ASSERT_TRUE(round_trip.ok());
  ASSERT_NE(session.reconstruction(), nullptr);
  EXPECT_EQ(round_trip->num_unique_edges(),
            session.reconstruction()->num_unique_edges());

  // Missing files surface as NotFound, not exceptions or aborts.
  EXPECT_EQ(io::TryReadHypergraphFile("no_such_file.hg").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(io::TryReadProjectedGraphFile("no_such_file.eg").status().code(),
            StatusCode::kNotFound);

  std::remove(train_path.c_str());
  std::remove(target_path.c_str());
  std::remove(out_path.c_str());
}

TEST(Session, ConfigureResetsStateForReuse) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MaxClique";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Reconstruct(*data.g_target).ok());
  EXPECT_NE(session.reconstruction(), nullptr);

  ASSERT_TRUE(session.Configure(options).ok());
  EXPECT_EQ(session.reconstruction(), nullptr);
  EXPECT_EQ(session.stage_timer().Total(), 0.0);
  EXPECT_EQ(session.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace marioh::api
