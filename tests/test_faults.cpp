// Tests for the fault-injection subsystem and the self-healing service
// behaviors built on it: failpoint spec parsing and firing semantics
// (count/after/p, deterministic seeding), the zero-cost/bit-identity
// contract when no failpoint fires, per-request retry with exponential
// backoff (retry-until-success and retries-exhausted), the job watchdog
// (a wedged job is detected and cancelled within its bounded latency),
// batch load shedding, and the protocol surface (retries=/backoff= submit
// keys, attempts= echo, the gated `failpoints` admin verb).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/request.hpp"
#include "api/service.hpp"
#include "api/session.hpp"
#include "api/status.hpp"
#include "eval/harness.hpp"
#include "net/line_protocol.hpp"
#include "util/failpoint.hpp"

namespace marioh {
namespace {

using api::DatasetCache;
using api::JobId;
using api::JobSnapshot;
using api::JobState;
using api::Priority;
using api::ReconstructRequest;
using api::Service;
using api::ServiceOptions;
using api::ServiceStats;
using api::StatusCode;
using api::StatusOr;
using util::FailAction;
using util::FailPoints;

/// Every test starts and ends with an empty registry — failpoints are
/// process-global, so leakage between tests would be order-dependent
/// flakiness.
class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Clear(); }
  void TearDown() override { FailPoints::Clear(); }
};

eval::PreparedDataset SmallDataset() {
  return eval::PrepareDataset("crime", /*multiplicity_reduced=*/true,
                              /*seed=*/1);
}

std::shared_ptr<DatasetCache> CacheWithCrime(
    const eval::PreparedDataset& data) {
  auto cache = std::make_shared<DatasetCache>();
  EXPECT_TRUE(cache->Insert("crime.train", data.source, data.g_source).ok());
  EXPECT_TRUE(cache->Insert("crime.target", nullptr, data.g_target).ok());
  EXPECT_TRUE(cache->Insert("crime.truth", data.target, nullptr).ok());
  return cache;
}

void ExpectPartitionHolds(const ServiceStats& stats) {
  EXPECT_EQ(stats.accepted, stats.done + stats.failed + stats.cancelled +
                                stats.deadline_exceeded + stats.queued +
                                stats.running);
}

// ---------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------

TEST_F(FaultsTest, SpecParsingAcceptsTheDocumentedGrammar) {
  EXPECT_FALSE(FailPoints::active());

  EXPECT_TRUE(FailPoints::Configure("a", "error"));
  EXPECT_TRUE(FailPoints::Configure("b", "delay:250|p=0.5"));
  EXPECT_TRUE(FailPoints::Configure("c", "short|after=2|count=3"));
  EXPECT_TRUE(FailPoints::active());
  EXPECT_EQ(FailPoints::Describe().size(), 3u);

  // Reconfiguring and removing.
  EXPECT_TRUE(FailPoints::Configure("a", "delay:1"));
  EXPECT_TRUE(FailPoints::Configure("a", "off"));
  EXPECT_TRUE(FailPoints::Configure("b", ""));
  EXPECT_EQ(FailPoints::Describe().size(), 1u);

  // Malformed specs are rejected with a message and change nothing.
  std::string error;
  EXPECT_FALSE(FailPoints::Configure("x", "explode", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FailPoints::Configure("x", "error|p=nope", &error));
  EXPECT_FALSE(FailPoints::Configure("x", "delay:", &error));
  EXPECT_FALSE(FailPoints::Configure("x", "error|p=1.5", &error));
  EXPECT_EQ(FailPoints::Describe().size(), 1u);

  // The MARIOH_FAILPOINTS list syntax, and "off" as a full reset.
  EXPECT_TRUE(FailPoints::ConfigureList("a=error,b=delay:5|count=2"));
  EXPECT_EQ(FailPoints::Describe().size(), 3u);  // a, b, c
  EXPECT_TRUE(FailPoints::ConfigureList("off"));
  EXPECT_FALSE(FailPoints::active());
}

TEST_F(FaultsTest, CountAfterAndProbabilityModifiers) {
  ASSERT_TRUE(FailPoints::Configure("counted", "error|count=2"));
  EXPECT_EQ(FailPoints::Eval("counted"), FailAction::kError);
  EXPECT_EQ(FailPoints::Eval("counted"), FailAction::kError);
  EXPECT_EQ(FailPoints::Eval("counted"), FailAction::kNone);
  EXPECT_EQ(FailPoints::Hits("counted"), 2u);

  ASSERT_TRUE(FailPoints::Configure("skipped", "error|after=2"));
  EXPECT_EQ(FailPoints::Eval("skipped"), FailAction::kNone);
  EXPECT_EQ(FailPoints::Eval("skipped"), FailAction::kNone);
  EXPECT_EQ(FailPoints::Eval("skipped"), FailAction::kError);

  // Unconfigured names never fire.
  EXPECT_EQ(FailPoints::Eval("no-such-point"), FailAction::kNone);

  // p= draws are a deterministic, seeded sequence: the same seed replays
  // the exact same fire/skip pattern.
  auto draw_pattern = [] {
    FailPoints::SetSeed(1234);
    EXPECT_TRUE(FailPoints::Configure("coin", "error|p=0.5"));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(FailPoints::Eval("coin") == FailAction::kError);
    }
    EXPECT_TRUE(FailPoints::Configure("coin", "off"));
    return fired;
  };
  std::vector<bool> first = draw_pattern();
  std::vector<bool> second = draw_pattern();
  EXPECT_EQ(first, second);
  // And the coin is a coin, not a constant.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FaultsTest, DelayActionSleepsAndIsInterruptible) {
  ASSERT_TRUE(FailPoints::Configure("sleepy", "delay:80"));
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(FailPoints::Eval("sleepy"), FailAction::kDelay);
  double slept = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_GE(slept, 0.07);

  // A tripped CancelToken aborts the sleep at the next 10 ms chunk.
  ASSERT_TRUE(FailPoints::Configure("wedge", "delay:10000"));
  util::CancelToken cancel;
  cancel.Cancel();
  t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(FailPoints::Eval("wedge", &cancel), FailAction::kDelay);
  slept = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
  EXPECT_LT(slept, 1.0);
}

// ---------------------------------------------------------------------
// Zero-cost / bit-identity when nothing fires
// ---------------------------------------------------------------------

// With no failpoint configured — and even with one configured that never
// fires — a reconstruction is bit-identical to the clean run. This is
// the "behavior-identical when inactive" half of the failpoint contract.
TEST_F(FaultsTest, InactiveFailpointsLeaveResultsBitIdentical) {
  eval::PreparedDataset data = SmallDataset();

  auto run = [&data] {
    api::SessionOptions options;
    options.method = "MARIOH";
    options.seed = 7;
    api::Session session;
    EXPECT_TRUE(session.Configure(options).ok());
    EXPECT_TRUE(session.Train(data.train()).ok());
    EXPECT_TRUE(session.Reconstruct(data.target_input()).ok());
    StatusOr<Hypergraph> taken = session.TakeReconstruction();
    EXPECT_TRUE(taken.ok());
    return std::move(taken).value();
  };

  ASSERT_FALSE(FailPoints::active());
  Hypergraph baseline = run();

  // Now the gates are *armed* (active() is true, Eval runs at every
  // site) but the point can never fire — output must not change.
  ASSERT_TRUE(
      FailPoints::Configure("session.reconstruct", "error|after=1000000"));
  ASSERT_TRUE(FailPoints::active());
  Hypergraph instrumented = run();
  EXPECT_EQ(baseline.edges(), instrumented.edges());
}

// ---------------------------------------------------------------------
// Retry / backoff through the Service
// ---------------------------------------------------------------------

TEST_F(FaultsTest, RetryUntilSuccessConsumesExactlyTheFailedAttempts) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  Service service(cache, ServiceOptions{});

  // The first two attempts die at the reconstruct stage boundary with
  // UNAVAILABLE; the third sails through.
  ASSERT_TRUE(
      FailPoints::Configure("session.reconstruct", "error|count=2"));

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  request.retry.max_attempts = 3;
  request.retry.initial_backoff_seconds = 0.01;

  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
  EXPECT_EQ(job->attempts, 3);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_retried, 2u);
  EXPECT_EQ(stats.retries_exhausted, 0u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.failed, 0u);
  ExpectPartitionHolds(stats);
}

TEST_F(FaultsTest, RetriesExhaustedEndsFailedWithTheTransientStatus) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  Service service(cache, ServiceOptions{});

  // Every attempt fails: the job must end kFailed (not retry forever),
  // carrying the last UNAVAILABLE status and the full attempt count.
  ASSERT_TRUE(FailPoints::Configure("session.reconstruct", "error"));

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  request.retry.max_attempts = 3;
  request.retry.initial_backoff_seconds = 0.01;

  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kFailed);
  EXPECT_EQ(job->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(job->attempts, 3);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_retried, 2u);
  EXPECT_EQ(stats.retries_exhausted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  ExpectPartitionHolds(stats);
}

TEST_F(FaultsTest, NonRetryableFailuresStayFailFast) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  auto empty = std::make_shared<const Hypergraph>();
  ASSERT_TRUE(cache
                  ->Insert("empty.train", empty,
                           std::make_shared<const ProjectedGraph>(
                               empty->Project()))
                  .ok());
  Service service(cache, ServiceOptions{});

  // A permanent run-time error (a supervised method training on a source
  // with no hyperedges → INVALID_ARGUMENT, not UNAVAILABLE) must not
  // consume retry attempts.
  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "empty.train";
  request.target_dataset = "crime.target";
  request.retry.max_attempts = 5;
  request.retry.initial_backoff_seconds = 0.01;

  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kFailed);
  EXPECT_EQ(job->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job->attempts, 1);
  EXPECT_EQ(service.stats().jobs_retried, 0u);
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

// A wedged job — its heartbeat frozen inside a 30 s injected stall — is
// detected and cancelled well before the stall would have ended:
// detection latency is bounded by stall_timeout + watchdog period, and
// the acceptance bound is 2x the stall timeout end to end.
TEST_F(FaultsTest, WatchdogCancelsAWedgedJobWithinBoundedLatency) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  ServiceOptions options;
  options.stall_timeout_seconds = 1.0;
  Service service(cache, options);

  ASSERT_TRUE(FailPoints::Configure("session.reconstruct",
                                    "delay:30000|count=1"));

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";

  auto t0 = std::chrono::steady_clock::now();
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kCancelled) << job->status.ToString();
  EXPECT_NE(job->status.message().find("stalled"), std::string::npos)
      << job->status.ToString();
  // Bounded detection + stop: 2x the stall timeout, with nothing like
  // the 30 s injected stall ever elapsing.
  EXPECT_LT(elapsed, 2.0 * options.stall_timeout_seconds);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_stalled, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  ExpectPartitionHolds(stats);
}

// A healthy job under an enabled watchdog is left alone: its heartbeat
// advances at every kernel poll, so no stall is ever declared. A MARIOH
// job on eu spends most of its time in Train (chiefly the MLP fit, which
// beats once per mini-batch), far past the stall timeout.
TEST_F(FaultsTest, WatchdogLeavesHealthyJobsAlone) {
  eval::PreparedDataset data =
      eval::PrepareDataset("eu", /*multiplicity_reduced=*/true, /*seed=*/1);
  auto cache = std::make_shared<DatasetCache>();
  ASSERT_TRUE(cache->Insert("eu.train", data.source, data.g_source).ok());
  ASSERT_TRUE(cache->Insert("eu.target", nullptr, data.g_target).ok());
  ServiceOptions options;
  options.stall_timeout_seconds = 0.25;
  Service service(cache, options);

  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "eu.train";
  request.target_dataset = "eu.target";
  request.seed = 3;

  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
  EXPECT_EQ(service.stats().jobs_stalled, 0u);
  // The premise: Train alone outlasted the stall timeout.
  EXPECT_GT(job->stage_stats["train"], options.stall_timeout_seconds);
}

// ---------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------

TEST_F(FaultsTest, BatchSubmitsAreShedUnderQueuePressure) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  ServiceOptions options;
  options.num_workers = 1;
  options.shed_batch_above_queued = 1;
  Service service(cache, options);

  // The first dequeued task stalls 500 ms *before* it starts running, so
  // the submitted job reliably sits in the queued gauge while we probe
  // the shedding threshold.
  ASSERT_TRUE(
      FailPoints::Configure("worker.task_start", "delay:500|count=1"));

  ReconstructRequest normal;
  normal.method = "MaxClique";
  normal.target_dataset = "crime.target";
  StatusOr<JobId> blocker = service.Submit(normal);
  ASSERT_TRUE(blocker.ok());

  ReconstructRequest batch = normal;
  batch.priority = Priority::kBatch;
  StatusOr<JobId> shed = service.Submit(batch);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("load shedding"),
            std::string::npos)
      << shed.status().ToString();

  // Interactive/normal traffic still admits at the same queue depth.
  ReconstructRequest interactive = normal;
  interactive.priority = Priority::kInteractive;
  StatusOr<JobId> admitted = service.Submit(interactive);
  EXPECT_TRUE(admitted.ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.loadshed_rejects, 1u);
  EXPECT_EQ(stats.submits_rejected, 1u);
  ExpectPartitionHolds(stats);

  EXPECT_TRUE(service.Wait(*blocker).ok());
  EXPECT_TRUE(service.Wait(*admitted).ok());
}

// ---------------------------------------------------------------------
// Protocol surface
// ---------------------------------------------------------------------

TEST_F(FaultsTest, ProtocolRetriesKeysAndGatedFailpointsVerb) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  Service service(cache, ServiceOptions{});
  net::LineProtocol protocol(cache.get(), &service);

  // The admin verb is locked until explicitly allowed.
  EXPECT_EQ(protocol.Handle("failpoints").response.rfind(
                "error FAILED_PRECONDITION", 0),
            0u);
  protocol.set_allow_failpoint_admin(true);
  EXPECT_EQ(protocol
                .Handle("failpoints session.reconstruct=error|count=1")
                .response.rfind("ok failpoints", 0),
            0u);
  EXPECT_EQ(protocol.Handle("failpoints").response.rfind("ok failpoints",
                                                         0),
            0u);
  EXPECT_EQ(protocol.Handle("failpoints not-a-spec").response.rfind(
                "error INVALID_ARGUMENT", 0),
            0u);

  // retries=/backoff= submit keys: one injected failure, one retry, and
  // the terminal job echoes attempts=2 (only then — a first-attempt
  // success stays byte-identical to the pre-retry protocol).
  net::LineProtocol::Result submitted = protocol.Handle(
      "submit method=MaxClique target=crime.target retries=2 "
      "backoff=0.01");
  ASSERT_EQ(submitted.response.rfind("ok job ", 0), 0u)
      << submitted.response;
  JobId id = std::stoull(submitted.response.substr(7));
  StatusOr<JobSnapshot> job = service.Wait(id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
  EXPECT_EQ(job->attempts, 2);
  EXPECT_NE(protocol.FormatJob(*job).find(" attempts=2"),
            std::string::npos);

  // Bad values are rejected at parse time.
  EXPECT_EQ(protocol.Handle("submit method=MaxClique target=crime.target "
                            "retries=-1")
                .response.rfind("error INVALID_ARGUMENT", 0),
            0u);
  EXPECT_EQ(protocol.Handle("submit method=MaxClique target=crime.target "
                            "backoff=-0.5")
                .response.rfind("error INVALID_ARGUMENT", 0),
            0u);

  EXPECT_EQ(protocol.Handle("failpoints off").response.rfind(
                "ok failpoints off", 0),
            0u);
}

}  // namespace
}  // namespace marioh
