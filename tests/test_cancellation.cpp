// The concurrency test battery for mid-kernel preemption (the
// CancelToken threaded from api::Service jobs through Session, the
// MARIOH reconstruction loop, ParallelFor bodies, and the Bron–Kerbosch
// recursion):
//
//  * an *untripped* token must not change a single output bit, at any
//    thread count — cancellation checks may only stop work early, never
//    alter what it computes;
//  * a *tripped* token must land within bounded kernel iterations: a
//    reconstruction that takes T seconds uncancelled returns kCancelled
//    (or kDeadlineExceeded) in a small fraction of T.
//
// The suite runs under TSan in CI alongside the service stress test.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "core/classifier.hpp"
#include "core/marioh.hpp"
#include "hypergraph/csr.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace marioh {
namespace {

/// A prepared source/target split of a generator profile.
struct Workload {
  gen::SourceTargetSplit split;
  ProjectedGraph g_source;
  ProjectedGraph g_target;
};

Workload MakeWorkload(const std::string& profile, uint64_t seed) {
  Workload w;
  gen::GeneratedDataset data =
      gen::Generate(gen::ProfileByName(profile), seed);
  util::Rng rng(seed + 1);
  w.split = gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  w.g_source = w.split.source.Project();
  w.g_target = w.split.target.Project();
  return w;
}

Hypergraph RunMarioh(const Workload& w, int threads,
                     const util::CancelToken* cancel,
                     core::ReconstructionStats* stats = nullptr) {
  core::MariohOptions options;
  options.seed = 9;
  options.num_threads = threads;
  options.cancel = cancel;
  core::Marioh marioh(options);
  marioh.Train(w.g_source, w.split.source);
  return marioh.Reconstruct(w.g_target, stats);
}

// The preemption counterpart of the determinism contract: plumbing a
// token that never trips must leave the reconstruction bit-identical to
// a run with no token at all — across thread counts.
TEST(Cancellation, UntrippedTokenKeepsOutputBitIdentical) {
  Workload w = MakeWorkload("hosts", 5);
  Hypergraph reference = RunMarioh(w, 1, nullptr);
  ASSERT_GT(reference.num_unique_edges(), 0u);

  util::CancelToken token;  // never tripped
  for (int threads : {1, 2, 8}) {
    core::ReconstructionStats stats;
    Hypergraph gated = RunMarioh(w, threads, &token, &stats);
    EXPECT_FALSE(stats.cancelled);
    EXPECT_EQ(gated.edges(), reference.edges()) << "threads " << threads;
  }

  // An armed-but-distant deadline is also a no-op for the output.
  util::CancelToken distant;
  distant.SetDeadline(3600.0);
  core::ReconstructionStats stats;
  Hypergraph gated = RunMarioh(w, 2, &distant, &stats);
  EXPECT_FALSE(stats.cancelled);
  EXPECT_EQ(gated.edges(), reference.edges());
}

// A deadline beyond the steady clock's range saturates to "never trips"
// instead of overflowing the seconds-to-ticks conversion into the past.
TEST(Cancellation, HugeDeadlineNeverTrips) {
  for (double seconds : {1e10, 1e300}) {
    util::CancelToken token;
    token.SetDeadline(seconds);
    EXPECT_FALSE(token.deadline_passed()) << seconds;
    EXPECT_FALSE(token.ShouldStop()) << seconds;
  }
  const auto now = std::chrono::steady_clock::now();
  EXPECT_EQ(util::SaturatingAfter(now, 1e300),
            std::chrono::steady_clock::time_point::max());
  EXPECT_EQ(util::SaturatingAfter(now, 1.0), now + std::chrono::seconds(1));
}

// A token tripped before the run starts stops the kernels at their first
// preemption point: the reconstruction comes back flagged cancelled
// (partial — the caller's cue to discard it).
TEST(Cancellation, PreTrippedTokenFlagsTheReconstruction) {
  Workload w = MakeWorkload("hosts", 5);
  util::CancelToken token;
  token.Cancel();
  core::ReconstructionStats stats;
  RunMarioh(w, 2, &token, &stats);
  EXPECT_TRUE(stats.cancelled);
}

// Session maps the trip to a Status: kCancelled for Cancel(), and
// kDeadlineExceeded for the *hard* deadline (distinct from the soft
// time_budget_seconds OOT path, which still completes the run). Either
// way the partial reconstruction is discarded.
TEST(Cancellation, SessionMapsTripsToStatusesAndDiscardsPartialOutput) {
  Workload w = MakeWorkload("hosts", 5);

  util::CancelToken cancelled;
  cancelled.Cancel();
  api::SessionOptions options;
  options.method = "MARIOH";
  options.cancel = &cancelled;
  api::Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(w.g_source, w.split.source).code() ==
              api::StatusCode::kCancelled);

  util::CancelToken deadline;  // disarmed until after Train
  options.cancel = &deadline;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(w.g_source, w.split.source).ok());
  deadline.SetDeadline(0.0);  // trips at the first preemption point
  api::Status status = session.Reconstruct(w.g_target);
  EXPECT_EQ(status.code(), api::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.reconstruction(), nullptr);
}

// The bounded-latency acceptance test: a reconstruction that takes T
// seconds uncancelled must return kCancelled in a small fraction of T
// when the token trips mid-run. "eu" is the hard overlapping regime —
// the slowest profile in the battery — so T dominates the trip-to-stop
// latency by orders of magnitude.
TEST(Cancellation, MidReconstructCancelLandsWellBeforeCompletion) {
  Workload w = MakeWorkload("eu", 5);

  api::SessionOptions options;
  options.method = "MARIOH";
  options.marioh.num_threads = 2;
  api::Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(w.g_source, w.split.source).ok());
  util::Timer uncancelled;
  ASSERT_TRUE(session.Reconstruct(w.g_target).ok());
  double full_seconds = uncancelled.Seconds();

  // Trip the token from a second thread once a tenth of the uncancelled
  // time has passed — squarely mid-kernel. The tripper starts only after
  // Train so the trip can't land before the stage under test.
  util::CancelToken token;
  options.cancel = &token;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(w.g_source, w.split.source).ok());
  double trip_after = full_seconds / 10.0;
  std::thread tripper([&token, trip_after] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(trip_after));
    token.Cancel();
  });
  util::Timer cancelled;
  api::Status status = session.Reconstruct(w.g_target);
  double cancelled_seconds = cancelled.Seconds();
  tripper.join();

  EXPECT_EQ(status.code(), api::StatusCode::kCancelled)
      << status.ToString();
  EXPECT_EQ(session.reconstruction(), nullptr);
  // Generous bound for loaded CI boxes: the preemption points poll every
  // kernel item, so the real latency is microseconds — half of T means
  // the trip landed mid-run, not at the finish line.
  EXPECT_LT(cancelled_seconds, full_seconds * 0.5)
      << "uncancelled run took " << full_seconds << "s";
}

// Training is cancellable too: the MLP fit polls the token once per
// mini-batch, so a trip mid-Train returns kCancelled in a fraction of the
// uncancelled Train time — and leaves no half-fitted model behind, so a
// later Reconstruct is refused instead of scoring with it.
TEST(Cancellation, MidTrainCancelLandsAndLeavesTheSessionUntrained) {
  Workload w = MakeWorkload("eu", 5);

  api::SessionOptions options;
  options.method = "MARIOH";
  options.marioh.num_threads = 2;
  api::Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  util::Timer uncancelled;
  ASSERT_TRUE(session.Train(w.g_source, w.split.source).ok());
  double full_seconds = uncancelled.Seconds();

  util::CancelToken token;
  options.cancel = &token;
  ASSERT_TRUE(session.Configure(options).ok());
  double trip_after = full_seconds / 10.0;
  std::thread tripper([&token, trip_after] {
    std::this_thread::sleep_for(std::chrono::duration<double>(trip_after));
    token.Cancel();
  });
  util::Timer cancelled;
  api::Status status = session.Train(w.g_source, w.split.source);
  double cancelled_seconds = cancelled.Seconds();
  tripper.join();

  EXPECT_EQ(status.code(), api::StatusCode::kCancelled) << status.ToString();
  EXPECT_LT(cancelled_seconds, full_seconds * 0.5)
      << "uncancelled train took " << full_seconds << "s";
  EXPECT_GT(token.heartbeat(), 0u);

  api::Status refused = session.Reconstruct(w.g_target);
  EXPECT_EQ(refused.code(), api::StatusCode::kFailedPrecondition)
      << refused.ToString();
  EXPECT_EQ(session.reconstruction(), nullptr);
}

/// Classifier options whose Train is dominated by negative sampling: a
/// handful of positives asks for far more negatives than the source's
/// cliques can supply, so both sampling loops run to their attempt caps.
core::ClassifierOptions SamplingHeavyOptions() {
  core::ClassifierOptions options;
  options.max_positives = 8;
  options.negatives_per_positive = 4000.0;
  options.hard_negative_fraction = 0.5;
  options.mlp.epochs = 1;
  return options;
}

// Negative sampling polls the token per attempt; an untripped token must
// not move a bit of what it samples (polling draws nothing from the rng).
TEST(Cancellation, UntrippedTokenKeepsNegativeSamplingBitIdentical) {
  Workload w = MakeWorkload("crime", 5);
  core::CliqueClassifier plain(core::FeatureMode::kMultiplicityAware,
                               SamplingHeavyOptions());
  util::Rng plain_rng(3);
  plain.Train(w.g_source, w.split.source, &plain_rng);

  util::CancelToken distant;
  distant.SetDeadline(3600.0);
  core::CliqueClassifier tokened(core::FeatureMode::kMultiplicityAware,
                                 SamplingHeavyOptions());
  util::Rng tokened_rng(3);
  tokened.Train(w.g_source, w.split.source, &tokened_rng, &distant);

  ASSERT_TRUE(plain.trained());
  ASSERT_TRUE(tokened.trained());
  EXPECT_EQ(tokened.train_counts(), plain.train_counts());
  EXPECT_GT(distant.heartbeat(), 0u);
  CsrGraph csr(w.g_target);
  CliqueStore cliques = EnumerateMaximalCliques(csr).cliques;
  EXPECT_EQ(tokened.ScoreAll(csr, cliques, true, 1),
            plain.ScoreAll(csr, cliques, true, 1));
}

// A trip while Train is still sampling negatives lands there, not at the
// feature loop after it, and leaves the classifier untrained.
TEST(Cancellation, MidNegativeSamplingCancelLeavesTheClassifierUntrained) {
  Workload w = MakeWorkload("crime", 5);
  core::CliqueClassifier classifier(core::FeatureMode::kMultiplicityAware,
                                    SamplingHeavyOptions());
  util::Rng full_rng(3);
  util::Timer uncancelled;
  classifier.Train(w.g_source, w.split.source, &full_rng);
  double full_seconds = uncancelled.Seconds();
  ASSERT_TRUE(classifier.trained());

  util::CancelToken token;
  double trip_after = full_seconds / 10.0;
  std::thread tripper([&token, trip_after] {
    std::this_thread::sleep_for(std::chrono::duration<double>(trip_after));
    token.Cancel();
  });
  util::Rng rng(3);
  util::Timer cancelled;
  classifier.Train(w.g_source, w.split.source, &rng, &token);
  double cancelled_seconds = cancelled.Seconds();
  tripper.join();

  EXPECT_FALSE(classifier.trained());
  EXPECT_LT(cancelled_seconds, full_seconds * 0.5)
      << "uncancelled train took " << full_seconds << "s";
  EXPECT_GT(token.heartbeat(), 0u);
}

}  // namespace
}  // namespace marioh
