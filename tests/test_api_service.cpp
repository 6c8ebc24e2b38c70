// Tests for the service-grade API stack: DatasetCache (named, immutable,
// load-once shared handles), the async job Service (Submit/Poll/Wait/
// Cancel on a worker pool, service counters), and the
// determinism contract the whole design rests on — N concurrent jobs over
// one shared dataset handle produce bit-identical hypergraphs to the same
// runs executed sequentially through Session.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/request.hpp"
#include "api/service.hpp"
#include "api/session.hpp"
#include "eval/harness.hpp"
#include "io/text_io.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace marioh::api {
namespace {

eval::PreparedDataset SmallDataset() {
  return eval::PrepareDataset("crime", /*multiplicity_reduced=*/true,
                              /*seed=*/1);
}

/// A cache pre-filled with the crime profile's three roles, sharing the
/// PreparedDataset's handles (zero copies).
std::shared_ptr<DatasetCache> CacheWithCrime(
    const eval::PreparedDataset& data) {
  auto cache = std::make_shared<DatasetCache>();
  EXPECT_TRUE(cache->Insert("crime.train", data.source, data.g_source).ok());
  EXPECT_TRUE(cache->Insert("crime.target", nullptr, data.g_target).ok());
  EXPECT_TRUE(cache->Insert("crime.truth", data.target, nullptr).ok());
  return cache;
}

/// Polls until the job leaves kQueued. True if it was observed kRunning
/// (false means it raced straight to a terminal state).
bool WaitUntilRunning(Service& service, JobId id) {
  for (;;) {
    StatusOr<JobSnapshot> job = service.Poll(id);
    if (!job.ok()) return false;
    if (job->state == JobState::kRunning) return true;
    if (job->terminal()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The process-wide cancel-to-stop histogram every Service observes
/// into; tests compare its count/sum before and after a run.
const obs::Histogram& CancelLatency() {
  return *obs::MetricRegistry::Global().GetHistogram(
      "marioh_cancel_latency_seconds");
}

TEST(DatasetCache, InsertGetAndListing) {
  eval::PreparedDataset data = SmallDataset();
  DatasetCache cache;
  ASSERT_TRUE(cache.Insert("d", data.source, data.g_source).ok());
  EXPECT_TRUE(cache.Contains("d"));
  EXPECT_EQ(cache.size(), 1u);

  StatusOr<DatasetHandle> fetched = cache.Get("d");
  ASSERT_TRUE(fetched.ok());
  // Zero-copy: the cache shares the caller's objects, not copies.
  EXPECT_EQ(fetched->hypergraph.get(), data.source.get());
  EXPECT_EQ(fetched->graph.get(), data.g_source.get());

  // Unknown names are a NotFound listing the residents.
  Status missing = cache.Get("nope").status();
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_NE(missing.message().find("d"), std::string::npos);

  // Duplicate names are rejected; the original stays.
  EXPECT_EQ(cache.Insert("d", data.target, nullptr).status().code(),
            StatusCode::kAlreadyExists);

  // A dataset must hold something, under a non-empty name.
  EXPECT_EQ(cache.Insert("empty", nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.Insert("", data.source, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetCache, FileLoadsAreSharedAndLoadOnce) {
  eval::PreparedDataset data = SmallDataset();
  const std::string path = "cache_test_source.hg";
  ASSERT_TRUE(io::TryWriteHypergraphFile(*data.source, path).ok());

  DatasetCache cache;
  StatusOr<DatasetHandle> first = cache.LoadHypergraphFile("src", path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_hypergraph());
  ASSERT_TRUE(first->has_graph());  // projection comes with the load
  EXPECT_EQ(first->hypergraph->num_unique_edges(),
            data.source->num_unique_edges());

  // Load-once: the same name+path returns the identical handle even if
  // the file vanished in between — no re-read happens.
  std::remove(path.c_str());
  StatusOr<DatasetHandle> second = cache.LoadHypergraphFile("src", path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->hypergraph.get(), first->hypergraph.get());

  // The same name from a *different* path is a conflict, not a reload.
  EXPECT_EQ(cache.LoadHypergraphFile("src", "other.hg").status().code(),
            StatusCode::kAlreadyExists);
  // Missing files surface as NotFound under a fresh name.
  EXPECT_EQ(cache.LoadHypergraphFile("fresh", "no_such.hg").status().code(),
            StatusCode::kNotFound);
}

// A sparse huge node id would size the projection's dense per-node
// arrays by the id (4e9 ids is hundreds of GB): both file loads refuse
// it with kInvalidArgument naming the id, and nothing lands in the cache.
TEST(DatasetCache, FileLoadsRejectSparseHugeNodeIds) {
  const std::string hg_path = "cache_test_huge.hg";
  const std::string eg_path = "cache_test_huge.eg";
  std::ofstream(hg_path) << "4000000000 1\n";
  std::ofstream(eg_path) << "0 1 1\n4000000000 1 1\n";

  DatasetCache cache;
  for (const Status& status :
       {cache.LoadHypergraphFile("h", hg_path).status(),
        cache.LoadProjectedGraphFile("g", eg_path).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("node id 4000000000"), std::string::npos)
        << status.ToString();
  }
  EXPECT_TRUE(cache.Names().empty());
  std::remove(hg_path.c_str());
  std::remove(eg_path.c_str());
}

TEST(Session, HandleBasedStagesShareOneDatasetCopy) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MARIOH";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  ASSERT_TRUE(session.Train(data.train()).ok());
  ASSERT_TRUE(session.Reconstruct(data.target_input()).ok());
  ASSERT_NE(session.reconstruction(), nullptr);
  EXPECT_GT(session.reconstruction()->num_unique_edges(), 0u);

  // Ill-typed handles are precise InvalidArguments.
  EXPECT_EQ(session.Train(data.target_input()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Reconstruct(data.ground_truth()).code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, TakeReconstructionMovesTheResultOut) {
  eval::PreparedDataset data = SmallDataset();
  SessionOptions options;
  options.method = "MaxClique";
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());
  EXPECT_EQ(session.TakeReconstruction().status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Reconstruct(data.target_input()).ok());
  size_t unique = session.reconstruction()->num_unique_edges();
  StatusOr<Hypergraph> taken = session.TakeReconstruction();
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->num_unique_edges(), unique);
  EXPECT_EQ(session.reconstruction(), nullptr);
}

TEST(Service, SubmitValidatesBeforeQueueing) {
  eval::PreparedDataset data = SmallDataset();
  Service service(CacheWithCrime(data));

  ReconstructRequest request;
  request.method = "NoSuchMethod";
  request.target_dataset = "crime.target";
  EXPECT_EQ(service.Submit(request).status().code(), StatusCode::kNotFound);

  request.method = "MARIOH";
  request.target_dataset = "";
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kInvalidArgument);
  request.target_dataset = "no.such.dataset";
  EXPECT_EQ(service.Submit(request).status().code(), StatusCode::kNotFound);

  // A graph-only dataset cannot train; a hypergraph-only one cannot be a
  // target; a supervised method needs a train dataset at all.
  request.target_dataset = "crime.truth";
  request.train_dataset = "crime.train";
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kFailedPrecondition);
  request.target_dataset = "crime.target";
  request.train_dataset = "crime.target";
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kFailedPrecondition);
  request.train_dataset = "";
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kFailedPrecondition);

  // Reserved override keys belong in the typed request fields.
  request.train_dataset = "crime.train";
  request.overrides = {{"seed", "3"}};
  EXPECT_EQ(service.Submit(request).status().code(),
            StatusCode::kInvalidArgument);

  // Nothing was admitted by any of the rejects.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(service.Poll(1).status().code(), StatusCode::kNotFound);
}

// The acceptance-criteria test: K concurrent jobs sharing one DatasetCache
// handle must produce bit-identical hypergraphs to the same runs executed
// sequentially through Session with the same seeds.
TEST(Service, ConcurrentJobsMatchSequentialSessionsBitForBit) {
  constexpr int kJobs = 4;
  eval::PreparedDataset data = SmallDataset();

  // Sequential reference runs, one Session each, seeds 1..K.
  std::vector<Hypergraph> reference;
  for (int s = 1; s <= kJobs; ++s) {
    SessionOptions options;
    options.method = "MARIOH";
    options.seed = static_cast<uint64_t>(s);
    Session session;
    ASSERT_TRUE(session.Configure(options).ok());
    ASSERT_TRUE(session.Train(data.train()).ok());
    ASSERT_TRUE(session.Reconstruct(data.target_input()).ok());
    StatusOr<Hypergraph> taken = session.TakeReconstruction();
    ASSERT_TRUE(taken.ok());
    reference.push_back(std::move(taken).value());
  }

  // The same K runs as concurrent service jobs on shared handles.
  ServiceOptions service_options;
  service_options.num_workers = kJobs;
  Service service(CacheWithCrime(data), service_options);
  std::vector<ReconstructRequest> batch;
  for (int s = 1; s <= kJobs; ++s) {
    ReconstructRequest request;
    request.method = "MARIOH";
    request.train_dataset = "crime.train";
    request.target_dataset = "crime.target";
    request.ground_truth_dataset = "crime.truth";
    request.seed = static_cast<uint64_t>(s);
    batch.push_back(request);
  }
  std::vector<JobId> ids;
  for (const ReconstructRequest& request : batch) {
    StatusOr<JobId> id = service.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  for (int s = 0; s < kJobs; ++s) {
    StatusOr<JobSnapshot> job = service.Wait(ids[static_cast<size_t>(s)]);
    ASSERT_TRUE(job.ok());
    EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
    ASSERT_NE(job->reconstruction, nullptr);
    // Bit-identical output: same edge multiset, same multiplicities.
    EXPECT_EQ(job->reconstruction->edges(), reference[static_cast<size_t>(s)].edges())
        << "job seed " << s + 1;
    // Evaluation and stage stats rode along.
    ASSERT_TRUE(job->evaluation.has_value());
    EXPECT_GE(job->evaluation->jaccard, 0.5);
    EXPECT_GT(job->stage_stats.at("reconstruct"), 0.0);
    EXPECT_GT(job->stage_stats.at("reconstruct.iterations"), 0.0);
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.done, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST(Service, CancelQueuedJobsOnASingleWorker) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.num_workers = 1;  // everything after the first job queues
  Service service(CacheWithCrime(data), options);

  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "crime.train";
  request.target_dataset = "crime.target";
  std::vector<JobId> ids;
  for (int s = 0; s < 4; ++s) {
    request.seed = static_cast<uint64_t>(s + 1);
    StatusOr<JobId> id = service.Submit(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Cancel the tail jobs; whichever already started/finished reports
  // FailedPrecondition — on a 1-worker pool at least the last ones are
  // still queued and cancel cleanly.
  size_t cancelled = 0;
  for (size_t i = 1; i < ids.size(); ++i) {
    if (service.Cancel(ids[i]).ok()) ++cancelled;
  }
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(service.Cancel(999).code(), StatusCode::kNotFound);

  size_t observed_cancelled = 0;
  for (JobId id : ids) {
    StatusOr<JobSnapshot> job = service.Wait(id);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(job->terminal());
    if (job->state == JobState::kCancelled) {
      ++observed_cancelled;
      EXPECT_EQ(job->status.code(), StatusCode::kCancelled);
      EXPECT_EQ(job->reconstruction, nullptr);
    } else {
      EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
    }
    // Cancelling a terminal job is a FailedPrecondition, not a crash.
    EXPECT_EQ(service.Cancel(id).code(), StatusCode::kFailedPrecondition);
  }
  // A Cancel that caught its job queued lands for sure; one that raced a
  // just-started job is best-effort, so observed <= issued.
  EXPECT_LE(observed_cancelled, cancelled);
  EXPECT_EQ(service.stats().cancelled, observed_cancelled);
}

// Priority classes and fair-share lanes decide dispatch order, proven
// exactly via finish_seq on a single worker: while a blocker job holds
// the only worker, six jobs queue up — a batch job first, then three
// from client "a" interleaved with one from client "b", then an
// interactive job last. Dispatch must run the interactive job first
// (submitted last — the priority-inversion check), round-robin a/b
// within the normal class, and leave batch for the end.
TEST(Service, FairSharePriorityOrderingOnOneWorker) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.num_workers = 1;
  Service service(CacheWithCrime(data), options);

  // The blocker is the slowest job we have (supervised MARIOH) so the
  // whole batch below queues while it runs.
  ReconstructRequest blocker;
  blocker.method = "MARIOH";
  blocker.train_dataset = "crime.train";
  blocker.target_dataset = "crime.target";
  StatusOr<JobId> blocker_id = service.Submit(blocker);
  ASSERT_TRUE(blocker_id.ok());
  ASSERT_TRUE(WaitUntilRunning(service, *blocker_id));

  ReconstructRequest base;
  base.method = "MaxClique";
  base.target_dataset = "crime.target";
  auto with = [&base](Priority priority, const std::string& client) {
    ReconstructRequest request = base;
    request.priority = priority;
    request.client_id = client;
    return request;
  };
  std::vector<JobId> ids;
  for (const ReconstructRequest& request : {
           with(Priority::kBatch, "d"),        // submitted first, runs last
           with(Priority::kNormal, "a"),       // A1
           with(Priority::kNormal, "b"),       // B1
           with(Priority::kNormal, "a"),       // A2
           with(Priority::kNormal, "a"),       // A3
           with(Priority::kInteractive, "c"),  // submitted last, runs first
       }) {
    StatusOr<JobId> id = service.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  // The order is only deterministic if none of the six was dispatched
  // before all six were queued — i.e. the queue gauge still reads 6 in
  // one atomic stats snapshot (sub-millisecond submissions vs a
  // hundreds-of-milliseconds blocker: this is the overwhelmingly common
  // path, but don't turn a scheduler test into a flake on a loaded CI
  // box).
  ServiceStats mid = service.stats();
  bool deterministic = mid.queued == 6;
  if (deterministic) {
    EXPECT_EQ(mid.queued_interactive, 1u);
    EXPECT_EQ(mid.queued_normal, 4u);
    EXPECT_EQ(mid.queued_batch, 1u);
  }

  std::vector<JobSnapshot> jobs;
  for (JobId id : ids) {
    StatusOr<JobSnapshot> job = service.Wait(id);
    ASSERT_TRUE(job.ok());
    EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
    EXPECT_GT(job->finish_seq, 0u);
    jobs.push_back(*job);
  }
  StatusOr<JobSnapshot> blocker_job = service.Wait(*blocker_id);
  ASSERT_TRUE(blocker_job.ok());

  if (deterministic) {
    // Submission order: D, A1, B1, A2, A3, C.
    // Expected dispatch:  blocker, C, A1, B1, A2, A3, D.
    EXPECT_EQ(blocker_job->finish_seq, 1u);
    EXPECT_EQ(jobs[5].finish_seq, 2u);  // interactive jumps every queue
    EXPECT_EQ(jobs[1].finish_seq, 3u);  // A1
    EXPECT_EQ(jobs[2].finish_seq, 4u);  // B1: round-robin beats FIFO
    EXPECT_EQ(jobs[3].finish_seq, 5u);  // A2
    EXPECT_EQ(jobs[4].finish_seq, 6u);  // A3
    EXPECT_EQ(jobs[0].finish_seq, 7u);  // batch yields to everything
  }
  // Snapshots echo the scheduling attributes either way.
  EXPECT_EQ(jobs[0].priority, Priority::kBatch);
  EXPECT_EQ(jobs[0].client_id, "d");
  EXPECT_EQ(jobs[5].priority, Priority::kInteractive);
}

// Cancelling a running job preempts it mid-kernel: the job ends
// kCancelled with a measured cancel-to-stop latency, and the service
// accounts it under preempted + the cancel-latency histogram.
TEST(Service, CancelRunningJobMeasuresPreemptionLatency) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.num_workers = 1;
  Service service(CacheWithCrime(data), options);
  const obs::Histogram& latency = CancelLatency();
  uint64_t count_before = latency.count();
  double sum_before = latency.sum();

  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "crime.train";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  if (!WaitUntilRunning(service, *id)) {
    GTEST_SKIP() << "job finished before Cancel could catch it running";
  }
  ASSERT_TRUE(service.Cancel(*id).ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  if (job->state == JobState::kDone) {
    // Best-effort contract: the job crossed the finish line between the
    // running-state observation and the token trip.
    EXPECT_EQ(service.stats().preempted, 0u);
    return;
  }
  EXPECT_EQ(job->state, JobState::kCancelled);
  EXPECT_EQ(job->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(job->reconstruction, nullptr);
  EXPECT_GE(job->cancel_latency_seconds, 0.0);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.preempted, 1u);
  EXPECT_EQ(latency.count() - count_before, 1u);
  EXPECT_DOUBLE_EQ(latency.sum() - sum_before, job->cancel_latency_seconds);
  EXPECT_GE(latency.max(), job->cancel_latency_seconds);
}

// A hard deadline aborts the job with the dedicated terminal state —
// disjoint from kCancelled.
TEST(Service, HardDeadlineEndsJobsAsDeadlineExceeded) {
  eval::PreparedDataset data = SmallDataset();
  Service service(CacheWithCrime(data));
  uint64_t cancels_before = CancelLatency().count();

  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "crime.train";
  request.target_dataset = "crime.target";
  request.deadline_seconds = 0.0;  // trips at the first preemption point
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kDeadlineExceeded);
  EXPECT_EQ(job->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(job->reconstruction, nullptr);
  EXPECT_GT(job->finish_seq, 0u);
  // No explicit Cancel happened, so no cancel-latency sample.
  EXPECT_LT(job->cancel_latency_seconds, 0.0);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.preempted, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(CancelLatency().count(), cancels_before);

  // Cancelling the already-aborted job is a precise FailedPrecondition.
  EXPECT_EQ(service.Cancel(*id).code(), StatusCode::kFailedPrecondition);
}

// The per-job `threads=` override changes only the job's CPU share,
// never its output (the thread-count-invariance contract, job-level).
TEST(Service, KernelThreadsOverrideKeepsOutputIdentical) {
  eval::PreparedDataset data = SmallDataset();
  Service service(CacheWithCrime(data));

  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "crime.train";
  request.target_dataset = "crime.target";
  request.seed = 11;
  StatusOr<JobId> base = service.Submit(request);
  request.overrides = {{"threads", "4"}};
  StatusOr<JobId> wide = service.Submit(request);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(wide.ok());
  StatusOr<JobSnapshot> base_job = service.Wait(*base);
  StatusOr<JobSnapshot> wide_job = service.Wait(*wide);
  ASSERT_TRUE(base_job.ok());
  ASSERT_TRUE(wide_job.ok());
  ASSERT_EQ(base_job->state, JobState::kDone)
      << base_job->status.ToString();
  ASSERT_EQ(wide_job->state, JobState::kDone)
      << wide_job->status.ToString();
  EXPECT_EQ(base_job->reconstruction->edges(),
            wide_job->reconstruction->edges());
}

TEST(Service, MethodLevelOverridesReachTheJob) {
  eval::PreparedDataset data = SmallDataset();
  Service service(CacheWithCrime(data));

  // A bad override value is refused at Submit, which configures the job
  // exactly as a worker would: nothing is admitted.
  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "crime.train";
  request.target_dataset = "crime.target";
  request.overrides = {{"theta_init", "oops"}};
  StatusOr<JobId> bad = service.Submit(request);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("theta_init"), std::string::npos);
  EXPECT_EQ(service.stats().accepted, 0u);

  // A good override (threads=2) changes nothing about the output — the
  // determinism contract — and the job succeeds.
  request.overrides = {{"threads", "2"}};
  request.seed = 7;
  StatusOr<JobId> good = service.Submit(request);
  ASSERT_TRUE(good.ok());
  StatusOr<JobSnapshot> done = service.Wait(*good);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, JobState::kDone) << done->status.ToString();

  SessionOptions session_options;
  session_options.method = "MARIOH";
  session_options.seed = 7;
  Session session;
  ASSERT_TRUE(session.Configure(session_options).ok());
  ASSERT_TRUE(session.Train(data.train()).ok());
  ASSERT_TRUE(session.Reconstruct(data.target_input()).ok());
  EXPECT_EQ(done->reconstruction->edges(),
            session.reconstruction()->edges());
}

TEST(Service, EmptyTrainingSourceFailsTheJobNotTheService) {
  eval::PreparedDataset data = SmallDataset();
  std::shared_ptr<DatasetCache> cache = CacheWithCrime(data);
  auto empty = std::make_shared<const Hypergraph>();
  ASSERT_TRUE(cache
                  ->Insert("empty.train", empty,
                           std::make_shared<const ProjectedGraph>(
                               empty->Project()))
                  .ok());
  Service service(cache);

  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "empty.train";
  request.target_dataset = "crime.target";
  StatusOr<JobId> bad = service.Submit(request);
  ASSERT_TRUE(bad.ok());
  StatusOr<JobSnapshot> failed = service.Wait(*bad);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->state, JobState::kFailed);
  EXPECT_EQ(failed->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failed->status.message().find("MARIOH"), std::string::npos)
      << failed->status.ToString();

  // The same service keeps serving.
  request.train_dataset = "crime.train";
  StatusOr<JobId> good = service.Submit(request);
  ASSERT_TRUE(good.ok());
  StatusOr<JobSnapshot> done = service.Wait(*good);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kDone) << done->status.ToString();
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().done, 1u);
}

TEST(Service, ForgetRetiresTerminalJobsOnly) {
  eval::PreparedDataset data = SmallDataset();
  Service service(CacheWithCrime(data));
  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  ASSERT_EQ(job->state, JobState::kDone);

  ASSERT_TRUE(service.Forget(*id).ok());
  // The job is gone from the table, but the snapshot's shared handle
  // keeps the result alive — and the monotone counters are unaffected.
  EXPECT_EQ(service.Poll(*id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Forget(*id).code(), StatusCode::kNotFound);
  EXPECT_GT(job->reconstruction->num_unique_edges(), 0u);
  EXPECT_EQ(service.stats().done, 1u);

  // A queued/running job cannot be forgotten.
  ServiceOptions one_worker;
  one_worker.num_workers = 1;
  Service busy(CacheWithCrime(data), one_worker);
  ReconstructRequest slow;
  slow.method = "MARIOH";
  slow.train_dataset = "crime.train";
  slow.target_dataset = "crime.target";
  StatusOr<JobId> first = busy.Submit(slow);
  StatusOr<JobId> second = busy.Submit(slow);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // The second job sits behind the first on the single worker; unless
  // both raced to completion already, forgetting it is premature.
  Status premature = busy.Forget(*second);
  if (!premature.ok()) {
    EXPECT_EQ(premature.code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(busy.Wait(*second).ok());
  }
  ASSERT_TRUE(busy.Wait(*first).ok());
}

/// Records completion-observer calls per job id. Outlives the Service it
/// observes, so the shutdown cancels land here too.
class FinishRecorder {
 public:
  std::function<void(JobId)> Observer() {
    return [this](JobId id) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++calls_[id];
    };
  }
  int Calls(JobId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = calls_.find(id);
    return it == calls_.end() ? 0 : it->second;
  }
  std::map<JobId, int> All() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<JobId, int> calls_;
};

/// Clears every failpoint on scope exit, so a failed assertion cannot
/// leak a wedge into later tests.
struct FailPointsCleared {
  ~FailPointsCleared() { util::FailPoints::Clear(); }
};

// The completion observer fires exactly once per terminal transition, on
// every path into FinishLocked — done, failed, hard deadline, cancelled
// while running, cancelled while queued, and the shutdown cancels of both
// a queued and a running job — and never for a retry re-queue.
TEST(Service, CompletionObserverFiresOncePerTerminalTransition) {
  eval::PreparedDataset data = SmallDataset();
  FinishRecorder recorder;
  FailPointsCleared cleared;
  std::vector<JobId> ids;
  {
    ServiceOptions options;
    options.num_workers = 1;
    Service service(CacheWithCrime(data), options);
    service.set_on_finish(recorder.Observer());
    ReconstructRequest request;
    request.method = "MaxClique";
    request.target_dataset = "crime.target";
    auto submit = [&service, &ids](const ReconstructRequest& r) {
      StatusOr<JobId> id = service.Submit(r);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.ok() ? *id : 0);
      return ids.back();
    };
    // Wait returns after the terminal transition, observer included.
    auto finish = [&service, &recorder](JobId id, JobState state) {
      StatusOr<JobSnapshot> job = service.Wait(id);
      ASSERT_TRUE(job.ok());
      EXPECT_EQ(job->state, state) << job->status.ToString();
      EXPECT_EQ(recorder.Calls(id), 1) << "job " << id;
    };

    finish(submit(request), JobState::kDone);

    ASSERT_TRUE(util::FailPoints::Configure("session.reconstruct",
                                            "error|count=1"));
    finish(submit(request), JobState::kFailed);

    // The first attempt fails and re-queues; only the second, terminal
    // one reaches the observer.
    ASSERT_TRUE(util::FailPoints::Configure("session.reconstruct",
                                            "error|count=1"));
    ReconstructRequest retried = request;
    retried.retry.max_attempts = 2;
    retried.retry.initial_backoff_seconds = 0.01;
    finish(submit(retried), JobState::kDone);
    EXPECT_EQ(service.stats().jobs_retried, 1u);

    ReconstructRequest doomed = request;
    doomed.method = "MARIOH";
    doomed.train_dataset = "crime.train";
    doomed.deadline_seconds = 0.0;
    finish(submit(doomed), JobState::kDeadlineExceeded);

    // From here on every job wedges at its reconstruct stage until its
    // token trips, so each cancel below finds the state it names.
    ASSERT_TRUE(
        util::FailPoints::Configure("session.reconstruct", "delay:60000"));
    JobId running = submit(request);
    ASSERT_TRUE(WaitUntilRunning(service, running));
    ASSERT_TRUE(service.Cancel(running).ok());
    finish(running, JobState::kCancelled);

    JobId blocker = submit(request);
    ASSERT_TRUE(WaitUntilRunning(service, blocker));
    JobId queued = submit(request);
    ASSERT_TRUE(service.Cancel(queued).ok());
    finish(queued, JobState::kCancelled);

    // Left for the destructor: `blocker` running, one more queued.
    submit(request);
    EXPECT_EQ(recorder.Calls(blocker), 0);
  }
  std::map<JobId, int> calls = recorder.All();
  EXPECT_EQ(calls.size(), ids.size());
  for (JobId id : ids) EXPECT_EQ(calls[id], 1) << "job " << id;
}

// set_on_finish(nullptr) detaches the observer: later terminal
// transitions, shutdown cancels included, no longer reach it.
TEST(Service, ClearedCompletionObserverIsNotCalled) {
  eval::PreparedDataset data = SmallDataset();
  FinishRecorder recorder;
  {
    Service service(CacheWithCrime(data));
    service.set_on_finish(recorder.Observer());
    service.set_on_finish(nullptr);
    ReconstructRequest request;
    request.method = "MaxClique";
    request.target_dataset = "crime.target";
    StatusOr<JobId> id = service.Submit(request);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.Wait(*id).ok());
  }
  EXPECT_TRUE(recorder.All().empty());
}

// Pin-aware LRU: under a byte budget the cache evicts the least recently
// used unpinned entry; entries whose handles are still held outside the
// cache are never evicted (dropping the name would free nothing).
TEST(DatasetCache, LruEvictionUnderByteBudgetSparesPinnedHandles) {
  eval::PreparedDataset data = SmallDataset();
  // A fresh unpinned copy per insert: the temporary StatusOr handle is
  // dropped immediately, so only the cache holds it.
  auto copy = [&data] { return std::make_shared<Hypergraph>(*data.source); };

  // Measure one entry on a scratch cache (unbounded by default).
  size_t entry_bytes = 0;
  {
    DatasetCache scratch;
    ASSERT_TRUE(scratch.Insert("a", copy(), nullptr).ok());
    entry_bytes = scratch.total_bytes();
    ASSERT_GT(entry_bytes, 0u);
    EXPECT_EQ(scratch.evictions(), 0u);
  }

  // Room for exactly two entries of this size.
  const size_t max_bytes = 2 * entry_bytes + entry_bytes / 2;
  DatasetCache cache(max_bytes);
  ASSERT_TRUE(cache.Insert("a", copy(), nullptr).ok());
  ASSERT_TRUE(cache.Insert("b", copy(), nullptr).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch "a" so "b" becomes the LRU victim, then overflow with "c".
  ASSERT_TRUE(cache.Get("a").ok());
  ASSERT_TRUE(cache.Insert("c", copy(), nullptr).ok());
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.total_bytes(), max_bytes);

  // Pinning: under a budget below one entry, hold live handles to every
  // resident. Nothing can be evicted — the cache stays over budget
  // rather than dropping names whose data must live on anyway.
  DatasetCache tight(/*max_bytes=*/1);
  {
    StatusOr<DatasetHandle> pin_a = tight.Insert("a", copy(), nullptr);
    StatusOr<DatasetHandle> pin_c = tight.Insert("c", copy(), nullptr);
    ASSERT_TRUE(pin_a.ok());
    ASSERT_TRUE(pin_c.ok());
    EXPECT_TRUE(tight.Contains("a"));
    EXPECT_TRUE(tight.Contains("c"));
    EXPECT_EQ(tight.evictions(), 0u);
  }

  // The pins are gone, so the entries are reclaimable; the next insert's
  // eviction pass clears them (the fresh entry itself is exempt, so an
  // over-budget dataset still loads).
  ASSERT_TRUE(tight.Insert("d", copy(), nullptr).ok());
  EXPECT_FALSE(tight.Contains("a"));
  EXPECT_FALSE(tight.Contains("c"));
  EXPECT_TRUE(tight.Contains("d"));
  EXPECT_EQ(tight.evictions(), 2u);
}

// Admission control: a full queue or a client over its in-flight quota
// gets kResourceExhausted at Submit time; rejects are counted in
// submits_rejected and never leak into accepted — the terminal/gauge
// partition of accepted stays exact.
TEST(Service, AdmissionCapsRejectSubmitsWithResourceExhausted) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queued_jobs = 2;
  options.max_inflight_per_client = 2;
  Service service(CacheWithCrime(data), options);

  // The blocker holds the only worker (running, so it does not count
  // against the queued cap; it does count against its client's quota).
  ReconstructRequest blocker;
  blocker.method = "MARIOH";
  blocker.train_dataset = "crime.train";
  blocker.target_dataset = "crime.target";
  blocker.client_id = "hog";
  StatusOr<JobId> blocker_id = service.Submit(blocker);
  ASSERT_TRUE(blocker_id.ok());
  ASSERT_TRUE(WaitUntilRunning(service, *blocker_id));

  ReconstructRequest quick;
  quick.method = "MaxClique";
  quick.target_dataset = "crime.target";

  // The client quota trips first: "hog" has 1 running + 1 queued.
  quick.client_id = "hog";
  StatusOr<JobId> hog_queued = service.Submit(quick);
  ASSERT_TRUE(hog_queued.ok());
  EXPECT_EQ(service.Submit(quick).status().code(),
            StatusCode::kResourceExhausted);

  // Another client still gets the last queue slot — then the global
  // queued cap trips for everyone.
  quick.client_id = "other";
  StatusOr<JobId> other_queued = service.Submit(quick);
  ASSERT_TRUE(other_queued.ok());
  quick.client_id = "third";
  EXPECT_EQ(service.Submit(quick).status().code(),
            StatusCode::kResourceExhausted);

  ASSERT_TRUE(service.Wait(*blocker_id).ok());
  ASSERT_TRUE(service.Wait(*hog_queued).ok());
  ASSERT_TRUE(service.Wait(*other_queued).ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submits_rejected, 2u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.accepted, stats.done + stats.failed + stats.cancelled +
                                stats.deadline_exceeded + stats.queued +
                                stats.running);
}

// TTL retirement: the maintenance thread drops a terminal job once its
// TTL runs out, with no caller touching the job table. Monotone counters
// are unaffected; jobs_retired counts the drops.
TEST(Service, TtlRetiresTerminalJobs) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.job_ttl_seconds = 0.5;
  Service service(CacheWithCrime(data), options);

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  ASSERT_EQ(job->state, JobState::kDone);

  // Within the TTL the record is still pollable; past it, it is gone.
  ASSERT_TRUE(service.Poll(*id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_EQ(service.Poll(*id).status().code(), StatusCode::kNotFound);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_retired, 1u);
  EXPECT_EQ(stats.done, 1u);  // monotone history survives retirement
  // The snapshot's shared handle outlives the record.
  EXPECT_GT(job->reconstruction->num_unique_edges(), 0u);

  // An idle service retires too: stats() reads the count without
  // touching the job table in between.
  StatusOr<JobId> second = service.Submit(request);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(service.Wait(*second).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_EQ(service.stats().jobs_retired, 2u);
}

// A TTL past the clock's range means "never": the due time saturates
// instead of overflowing, and the job stays pollable.
TEST(Service, HugeTtlNeverRetires) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.job_ttl_seconds = 1e300;
  Service service(CacheWithCrime(data), options);

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(service.Poll(*id).ok());
  EXPECT_EQ(service.stats().jobs_retired, 0u);
}

// A job forgotten inside its TTL leaves a stale expiry entry behind; when
// it comes due, the maintenance thread skips it without counting it.
TEST(Service, ForgottenJobIsNotCountedAsRetired) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.job_ttl_seconds = 0.3;
  Service service(CacheWithCrime(data), options);

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  ASSERT_TRUE(service.Forget(*id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_EQ(service.Poll(*id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().jobs_retired, 0u);
}

// The Forget-vs-TTL race resolves to kNotFound: forgetting a job the TTL
// already retired is indistinguishable from forgetting twice — never a
// crash, never a silent success.
TEST(Service, ForgetAfterTtlRetirementIsNotFound) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions options;
  options.job_ttl_seconds = 0.5;
  Service service(CacheWithCrime(data), options);

  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  // The maintenance thread retired the job when its TTL ran out.
  EXPECT_EQ(service.Forget(*id).code(), StatusCode::kNotFound);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_retired, 1u);
  EXPECT_EQ(stats.done, 1u);

  // With retirement disabled (negative TTL, the default), Forget still
  // owns the removal and TTL never interferes.
  Service keeper(CacheWithCrime(data));
  StatusOr<JobId> kept = keeper.Submit(request);
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(keeper.Wait(*kept).ok());
  EXPECT_TRUE(keeper.Forget(*kept).ok());
  EXPECT_EQ(keeper.stats().jobs_retired, 0u);
}

/// A request with every typed field off its default, plus overrides.
ReconstructRequest FullyPopulatedRequest() {
  ReconstructRequest request;
  request.method = "MARIOH";
  request.train_dataset = "crime.train";
  request.target_dataset = "crime.target";
  request.ground_truth_dataset = "crime.truth";
  request.seed = 42;
  request.deadline_seconds = 0.3333333333333333;
  request.priority = Priority::kInteractive;
  request.client_id = "tenant-7";
  request.retry.max_attempts = 4;
  request.retry.initial_backoff_seconds = 0.01;
  request.overrides = {{"threads", "2"}, {"theta_init", "0.8"}};
  return request;
}

/// Field-by-field equality of two requests.
bool SameRequest(const ReconstructRequest& a, const ReconstructRequest& b) {
  return a.method == b.method && a.train_dataset == b.train_dataset &&
         a.target_dataset == b.target_dataset &&
         a.ground_truth_dataset == b.ground_truth_dataset &&
         a.seed == b.seed && a.deadline_seconds == b.deadline_seconds &&
         a.priority == b.priority && a.client_id == b.client_id &&
         a.retry.max_attempts == b.retry.max_attempts &&
         a.retry.initial_backoff_seconds ==
             b.retry.initial_backoff_seconds &&
         a.overrides == b.overrides;
}

/// One row of the acceptance table: a request and the code Submit must
/// answer it with, whether or not the Service journals.
struct SubmitCase {
  std::string name;
  ReconstructRequest request;
  StatusCode expected;
};

/// Requests that a worker could not configure or the journal could not
/// replay, then one good MARIOH request last (so it gets job id 1 only
/// if no refused request used an id).
std::vector<SubmitCase> AcceptanceTable() {
  ReconstructRequest good;
  good.method = "MARIOH";
  good.train_dataset = "crime.train";
  good.target_dataset = "crime.target";
  good.ground_truth_dataset = "crime.truth";
  auto with = [&good](std::vector<std::pair<std::string, std::string>> o) {
    ReconstructRequest request = good;
    request.overrides = std::move(o);
    return request;
  };
  ReconstructRequest retired;
  retired.method = "MaxClique";
  retired.target_dataset = "crime.target";
  retired.overrides = {{"kthreads", "3"}};
  ReconstructRequest spaced = good;
  spaced.client_id = "two words";
  const StatusCode invalid = StatusCode::kInvalidArgument;
  return {
      {"retired key", retired, invalid},
      {"bad override value", with({{"theta_init", "oops"}}), invalid},
      {"seed override", with({{"seed", "3"}}), invalid},
      {"budget override", with({{"budget", "5"}}), invalid},
      {"time_budget_seconds override",
       with({{"time_budget_seconds", "5"}}), invalid},
      {"duplicated override",
       with({{"theta_init", "0.8"}, {"theta_init", "0.9"}}), invalid},
      {"client id with a space", spaced, invalid},
      {"good request", with({{"threads", "2"}}), StatusCode::kOk},
  };
}

// One acceptance rule: a Service without a journal and one with a
// journal answer every request of the table identically — the same
// codes and messages, no job id spent on a refusal — and the refusals
// leave nothing in the journal for a restart to recover.
TEST(Service, SubmitAdmitsTheSameRequestsWithOrWithoutAJournal) {
  eval::PreparedDataset data = SmallDataset();
  const std::string dir =
      testing::TempDir() + "/marioh_service_acceptance_journal";
  std::filesystem::remove_all(dir);
  ServiceOptions journaled;
  journaled.journal_dir = dir;
  journaled.journal_fsync = util::JournalFsync::kNever;

  std::vector<std::vector<std::string>> outcomes;
  std::vector<HypergraphHandle> results;
  for (const ServiceOptions& options : {ServiceOptions{}, journaled}) {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok());
    outcomes.emplace_back();
    for (const SubmitCase& row : AcceptanceTable()) {
      StatusOr<JobId> id = service.Submit(row.request);
      EXPECT_EQ(id.status().code(), row.expected)
          << row.name << ": " << id.status().ToString();
      outcomes.back().push_back(id.ok() ? "job " + std::to_string(*id)
                                        : id.status().ToString());
    }
    EXPECT_NE(outcomes.back().front().find("unknown option 'kthreads'"),
              std::string::npos)
        << outcomes.back().front();
    EXPECT_EQ(outcomes.back().back(), "job 1");
    StatusOr<JobSnapshot> done = service.Wait(1);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done->state, JobState::kDone) << done->status.ToString();
    results.push_back(done->reconstruction);
    EXPECT_EQ(service.stats().accepted, 1u);
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(results[0]->edges(), results[1]->edges());

  Service restarted(CacheWithCrime(data), journaled);
  ASSERT_TRUE(restarted.startup_status().ok());
  EXPECT_EQ(restarted.stats().jobs_recovered, 0u);
  EXPECT_EQ(restarted.stats().accepted, 0u);
  std::filesystem::remove_all(dir);
}

// Whatever ValidateRequestSerializable passes comes back equal from
// Serialize → Parse — the property that lets Submit promise a journaled
// job replays as the job it admitted. Edge values either fail the check
// or round-trip.
TEST(RequestWire, EveryValidatedRequestRoundTripsEqual) {
  std::vector<ReconstructRequest> requests;
  for (const SubmitCase& row : AcceptanceTable()) {
    requests.push_back(row.request);
  }
  requests.push_back(ReconstructRequest{});
  requests.push_back(FullyPopulatedRequest());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double value : {inf, -inf, nan, -0.0, 1e300}) {
    ReconstructRequest request = FullyPopulatedRequest();
    request.deadline_seconds = value;
    requests.push_back(request);
    request = FullyPopulatedRequest();
    request.retry.initial_backoff_seconds = value;
    requests.push_back(request);
  }
  for (int attempts : {-3, 0, 1, INT32_MAX}) {
    ReconstructRequest request = FullyPopulatedRequest();
    request.retry.max_attempts = attempts;
    requests.push_back(request);
  }
  ReconstructRequest odd = FullyPopulatedRequest();
  odd.retry.initial_backoff_seconds = -0.5;
  requests.push_back(odd);
  odd = FullyPopulatedRequest();
  odd.priority = static_cast<Priority>(7);
  requests.push_back(odd);
  odd = FullyPopulatedRequest();
  odd.method = "";
  requests.push_back(odd);
  odd = FullyPopulatedRequest();
  odd.seed = UINT64_MAX;
  odd.overrides = {{"theta_init", "a=b"}};
  requests.push_back(odd);

  size_t validated = 0;
  for (const ReconstructRequest& request : requests) {
    if (!ValidateRequestSerializable(request).ok()) continue;
    ++validated;
    const std::string wire = SerializeReconstructRequest(request);
    ReconstructRequest parsed;
    ASSERT_TRUE(ParseReconstructRequest(wire, &parsed).ok()) << wire;
    EXPECT_TRUE(SameRequest(parsed, request)) << wire;
  }
  // The table rows only Configure refuses (the retired keys, among them
  // both budget spellings, and the bad value) and the good one, the
  // default and full requests, the finite edge doubles (-0 and 1e300 in
  // each of the two fields), one and INT32_MAX attempts, and the huge
  // seed with a '='-bearing value.
  EXPECT_EQ(validated, 14u);
}

// The wire grammar shared by the LineProtocol `submit` verb and the
// journal's accept records: every typed field round-trips exactly,
// defaults are omitted, and overrides survive in order.
TEST(RequestWire, SerializeParseRoundTripsEveryField) {
  const ReconstructRequest request = FullyPopulatedRequest();
  ASSERT_TRUE(ValidateRequestSerializable(request).ok());

  std::string wire = SerializeReconstructRequest(request);
  ReconstructRequest parsed;
  ASSERT_TRUE(ParseReconstructRequest(wire, &parsed).ok()) << wire;
  EXPECT_EQ(parsed.method, request.method);
  EXPECT_EQ(parsed.train_dataset, request.train_dataset);
  EXPECT_EQ(parsed.target_dataset, request.target_dataset);
  EXPECT_EQ(parsed.ground_truth_dataset, request.ground_truth_dataset);
  EXPECT_EQ(parsed.seed, request.seed);
  EXPECT_EQ(parsed.deadline_seconds, request.deadline_seconds);
  EXPECT_EQ(parsed.priority, request.priority);
  EXPECT_EQ(parsed.client_id, request.client_id);
  EXPECT_EQ(parsed.retry.max_attempts, request.retry.max_attempts);
  EXPECT_EQ(parsed.retry.initial_backoff_seconds,
            request.retry.initial_backoff_seconds);
  EXPECT_EQ(parsed.overrides, request.overrides);
  // The round trip is a fixed point: re-serializing yields the same line.
  EXPECT_EQ(SerializeReconstructRequest(parsed), wire);

  // A default request serializes to nothing but the defaults it omits.
  ReconstructRequest blank;
  ReconstructRequest reparsed;
  ASSERT_TRUE(
      ParseReconstructRequest(SerializeReconstructRequest(blank), &reparsed)
          .ok());
  EXPECT_EQ(reparsed.method, blank.method);
  EXPECT_EQ(reparsed.seed, blank.seed);
  EXPECT_EQ(reparsed.retry.max_attempts, 1);
}

TEST(RequestWire, ParserRejectsMalformedAndDuplicateTokens) {
  auto parse = [](const std::string& text) {
    ReconstructRequest request;
    return ParseReconstructRequest(text, &request);
  };
  // Malformed token shapes.
  Status bad_shape = parse("method=MARIOH oops");
  EXPECT_EQ(bad_shape.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_shape.message().find("expected key=value, got 'oops'"),
            std::string::npos);
  // Bad typed values name the key and the value.
  Status bad_value = parse("seed=banana");
  EXPECT_EQ(bad_value.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_value.message().find("bad value 'banana' for option 'seed'"),
            std::string::npos);
  EXPECT_EQ(parse("priority=urgent").code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parse("priority=urgent").message().find(
                "bad priority 'urgent' (expected batch, normal, or "
                "interactive)"),
            std::string::npos);
  // Any duplicated key — typed or override — is a typo, not an overwrite.
  Status dup_typed = parse("seed=1 seed=2");
  EXPECT_EQ(dup_typed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup_typed.message().find("duplicate option 'seed'"),
            std::string::npos);
  Status dup_override = parse("threads=2 threads=4");
  EXPECT_EQ(dup_override.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup_override.message().find("duplicate option 'threads'"),
            std::string::npos);
  // Unknown keys are overrides, vetted later by Submit — not a parse
  // error here.
  ReconstructRequest with_override;
  ASSERT_TRUE(
      ParseReconstructRequest("theta_init=0.8", &with_override).ok());
  ASSERT_EQ(with_override.overrides.size(), 1u);
  EXPECT_EQ(with_override.overrides[0].first, "theta_init");
  // A retired typed key is no longer special: it lands in the overrides,
  // where the method factory rejects it at Configure.
  ReconstructRequest retired;
  ASSERT_TRUE(ParseReconstructRequest("kthreads=2", &retired).ok());
  ASSERT_EQ(retired.overrides.size(), 1u);
  EXPECT_EQ(retired.overrides[0].first, "kthreads");
  EXPECT_EQ(retired.overrides[0].second, "2");
}

TEST(RequestWire, ValidateRejectsWhatCannotRoundTrip) {
  ReconstructRequest request;
  request.target_dataset = "crime.target";
  ASSERT_TRUE(ValidateRequestSerializable(request).ok());
  // Whitespace in a string field would split into extra tokens.
  request.client_id = "two words";
  EXPECT_EQ(ValidateRequestSerializable(request).code(),
            StatusCode::kInvalidArgument);
  request.client_id = "ok";
  // An override key carrying '=' or shadowing a typed key would not
  // parse back to the same request.
  request.overrides = {{"a=b", "1"}};
  EXPECT_EQ(ValidateRequestSerializable(request).code(),
            StatusCode::kInvalidArgument);
  request.overrides = {{"seed", "9"}};
  EXPECT_EQ(ValidateRequestSerializable(request).code(),
            StatusCode::kInvalidArgument);
  request.overrides = {{"threads", ""}};
  EXPECT_EQ(ValidateRequestSerializable(request).code(),
            StatusCode::kInvalidArgument);
  request.overrides = {{"threads", "2"}};
  EXPECT_TRUE(ValidateRequestSerializable(request).ok());
}

// Every double key takes finite values only: `deadline=inf` would reach
// CancelToken::SetDeadline, and a NaN is not equal to itself, so it
// could never round-trip. `retries` must leave room for the first
// attempt in an int.
TEST(RequestWire, ParserRejectsNonFiniteAndOutOfRangeNumbers) {
  for (const char* key : {"deadline", "backoff"}) {
    for (const char* value :
         {"inf", "-inf", "infinity", "nan", "-nan", "1e400", "-1e400"}) {
      std::string text = std::string(key) + "=" + value;
      ReconstructRequest request;
      EXPECT_EQ(ParseReconstructRequest(text, &request).code(),
                StatusCode::kInvalidArgument)
          << text;
    }
  }
  ReconstructRequest request;
  EXPECT_EQ(ParseReconstructRequest("retries=2147483647", &request).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ParseReconstructRequest("retries=2147483646", &request).ok());
  EXPECT_EQ(request.retry.max_attempts, 2147483647);
}

// Seeded mutation test of the wire grammar: every truncation of a fully
// populated request line, and at every offset all eight single-bit flips
// plus seeded random bytes. No mutant may crash the parser (the suite
// runs under ASan+UBSan), and every mutant that parses and passes
// ValidateRequestSerializable must be a Serialize→Parse fixed point —
// the property the journal's accept records rely on.
TEST(RequestWire, MutatedLinesNeverCrashAndAcceptedOnesRoundTrip) {
  const std::string wire = SerializeReconstructRequest(FullyPopulatedRequest());
  size_t accepted = 0;
  auto check = [&accepted](const std::string& text) {
    ReconstructRequest parsed;
    if (!ParseReconstructRequest(text, &parsed).ok()) return;
    if (!ValidateRequestSerializable(parsed).ok()) return;
    ++accepted;
    const std::string once = SerializeReconstructRequest(parsed);
    ReconstructRequest reparsed;
    Status again = ParseReconstructRequest(once, &reparsed);
    ASSERT_TRUE(again.ok()) << "mutant '" << text << "' serialized to '"
                            << once << "': " << again.ToString();
    EXPECT_EQ(SerializeReconstructRequest(reparsed), once)
        << "mutant '" << text << "'";
    EXPECT_TRUE(SameRequest(reparsed, parsed)) << "mutant '" << text << "'";
  };
  for (size_t length = 0; length <= wire.size(); ++length) {
    check(wire.substr(0, length));
  }
  util::Rng rng(20261017);
  for (size_t offset = 0; offset < wire.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = wire;
      mutant[offset] = static_cast<char>(mutant[offset] ^ (1 << bit));
      check(mutant);
    }
    for (int draw = 0; draw < 4; ++draw) {
      std::string mutant = wire;
      mutant[offset] = static_cast<char>(rng.UniformInt(0, 255));
      check(mutant);
    }
  }
  // Not vacuous: most flips land inside a value and still parse.
  EXPECT_GT(accepted, wire.size());
}

// The crash-recovery acceptance test: kill a journaling Service mid-queue
// (destructor ≙ process death for queued/preempted jobs: none of them is
// journaled terminal), restart on the same journal dir, and require every
// lost job to be re-admitted under its original JobId/client/priority and
// to finish bit-identical to an undisturbed reference run — with the
// jobs_recovered counter and the terminal-partition invariant exact.
TEST(Service, JournalRecoveryReadmitsKilledJobsBitIdentical) {
  constexpr int kJobs = 3;
  eval::PreparedDataset data = SmallDataset();
  const std::string dir =
      testing::TempDir() + "/marioh_service_recovery_journal";
  std::filesystem::remove_all(dir);
  util::FailPoints::Clear();

  // Undisturbed reference runs, seeds 1..K.
  std::vector<Hypergraph> reference;
  for (int s = 1; s <= kJobs; ++s) {
    SessionOptions session_options;
    session_options.method = "MARIOH";
    session_options.seed = static_cast<uint64_t>(s);
    Session session;
    ASSERT_TRUE(session.Configure(session_options).ok());
    ASSERT_TRUE(session.Train(data.train()).ok());
    ASSERT_TRUE(session.Reconstruct(data.target_input()).ok());
    StatusOr<Hypergraph> taken = session.TakeReconstruction();
    ASSERT_TRUE(taken.ok());
    reference.push_back(std::move(taken).value());
  }

  ServiceOptions options;
  options.num_workers = 1;
  options.journal_dir = dir;

  // Life 1: the single worker wedges inside the first job's reconstruct
  // stage; everything else queues. Destroying the Service preempts the
  // runner and sweeps the queue — exactly what SIGKILL leaves behind.
  ASSERT_TRUE(
      util::FailPoints::Configure("session.reconstruct", "delay:30000"));
  {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok())
        << service.startup_status().ToString();
    for (int s = 1; s <= kJobs; ++s) {
      ReconstructRequest request;
      request.method = "MARIOH";
      request.train_dataset = "crime.train";
      request.target_dataset = "crime.target";
      request.seed = static_cast<uint64_t>(s);
      request.client_id = "survivor";
      request.priority = Priority::kInteractive;
      StatusOr<JobId> id = service.Submit(request);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, static_cast<JobId>(s));
    }
    EXPECT_EQ(service.stats().jobs_recovered, 0u);
  }
  util::FailPoints::Clear();

  // Life 2: all K jobs come back under their original identities and
  // finish bit-identical to the reference.
  {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok())
        << service.startup_status().ToString();
    ServiceStats at_boot = service.stats();
    EXPECT_EQ(at_boot.jobs_recovered, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(at_boot.accepted, static_cast<uint64_t>(kJobs));
    for (int s = 1; s <= kJobs; ++s) {
      StatusOr<JobSnapshot> job = service.Wait(static_cast<JobId>(s));
      ASSERT_TRUE(job.ok()) << job.status().ToString();
      EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
      EXPECT_EQ(job->client_id, "survivor");
      EXPECT_EQ(job->priority, Priority::kInteractive);
      ASSERT_NE(job->reconstruction, nullptr);
      EXPECT_EQ(job->reconstruction->edges(),
                reference[static_cast<size_t>(s - 1)].edges())
          << "recovered job " << s;
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.done, static_cast<uint64_t>(kJobs));
    EXPECT_EQ(stats.accepted, stats.done + stats.failed + stats.cancelled +
                                  stats.deadline_exceeded + stats.queued +
                                  stats.running);
    // Fresh submissions never collide with recovered ids.
    ReconstructRequest fresh;
    fresh.method = "MaxClique";
    fresh.target_dataset = "crime.target";
    StatusOr<JobId> next = service.Submit(fresh);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, static_cast<JobId>(kJobs + 1));
    ASSERT_TRUE(service.Wait(*next).ok());
  }

  // Life 3: every job reached a journaled terminal state, so a third
  // boot recovers nothing (and compaction had nothing left to keep).
  {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok());
    EXPECT_EQ(service.stats().jobs_recovered, 0u);
    EXPECT_EQ(service.stats().accepted, 0u);
  }
  std::filesystem::remove_all(dir);
}

// Terminal records stick: an explicitly cancelled queued job must NOT
// resurrect, and a recovered job whose dataset vanished fails cleanly
// under its original id instead of poisoning startup.
TEST(Service, JournalRecoveryHonoursTerminalsAndMissingDatasets) {
  eval::PreparedDataset data = SmallDataset();
  const std::string dir =
      testing::TempDir() + "/marioh_service_recovery_terminals";
  std::filesystem::remove_all(dir);
  util::FailPoints::Clear();

  ServiceOptions options;
  options.num_workers = 1;
  options.journal_dir = dir;

  ASSERT_TRUE(
      util::FailPoints::Configure("session.reconstruct", "delay:30000"));
  {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok());
    ReconstructRequest request;
    request.method = "MARIOH";
    request.train_dataset = "crime.train";
    request.target_dataset = "crime.target";
    StatusOr<JobId> wedged = service.Submit(request);    // id 1: runs, wedges
    StatusOr<JobId> queued = service.Submit(request);    // id 2: queued
    StatusOr<JobId> doomed = service.Submit(request);    // id 3: cancelled
    ASSERT_TRUE(wedged.ok());
    ASSERT_TRUE(queued.ok());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(WaitUntilRunning(service, *wedged));
    // Explicit cancel of a queued job journals a terminal CANCELLED.
    ASSERT_TRUE(service.Cancel(*doomed).ok());
  }
  util::FailPoints::Clear();

  // Life 2 boots with an EMPTY cache: ids 1 and 2 cannot re-admit and
  // must land kFailed under their original ids; id 3 stays gone.
  {
    Service service(std::make_shared<DatasetCache>(), options);
    ASSERT_TRUE(service.startup_status().ok())
        << service.startup_status().ToString();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_recovered, 2u);
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.failed, 2u);
    for (JobId id : {JobId{1}, JobId{2}}) {
      StatusOr<JobSnapshot> job = service.Poll(id);
      ASSERT_TRUE(job.ok()) << "job " << id;
      EXPECT_EQ(job->state, JobState::kFailed);
      EXPECT_NE(job->status.message().find("recovery could not re-admit"),
                std::string::npos);
    }
    EXPECT_EQ(service.Poll(3).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(stats.accepted, stats.done + stats.failed + stats.cancelled +
                                  stats.deadline_exceeded + stats.queued +
                                  stats.running);
  }
  std::filesystem::remove_all(dir);
}

// A journal written while `kthreads=` or `budget=` was still a typed key
// may hold it in an accept record. Recovery parses it as an override, which the
// method factory rejects at Configure: the job fails loudly under its
// original id (and journals that terminal) instead of running with the
// key silently dropped.
TEST(Service, JournalRecoveryFailsARetiredKeyLoudly) {
  eval::PreparedDataset data = SmallDataset();
  const std::string dir =
      testing::TempDir() + "/marioh_service_recovery_retired_key";
  std::filesystem::remove_all(dir);
  {
    StatusOr<std::unique_ptr<util::Journal>> journal = util::Journal::Open(
        dir, [](const util::JournalRecord&) {});
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE((*journal)
                    ->Append(1,
                             "accept method=MaxClique target=crime.target "
                             "kthreads=2",
                             /*terminal=*/false)
                    .ok());
    ASSERT_TRUE((*journal)
                    ->Append(2,
                             "accept method=MaxClique target=crime.target "
                             "budget=5",
                             /*terminal=*/false)
                    .ok());
  }

  ServiceOptions options;
  options.num_workers = 1;
  options.journal_dir = dir;
  {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok())
        << service.startup_status().ToString();
    EXPECT_EQ(service.stats().jobs_recovered, 2u);
    JobId id = 0;
    for (const char* key : {"kthreads", "budget"}) {
      StatusOr<JobSnapshot> job = service.Wait(++id);
      ASSERT_TRUE(job.ok()) << job.status().ToString();
      EXPECT_EQ(job->state, JobState::kFailed);
      EXPECT_EQ(job->status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(job->status.message().find("unknown option '" +
                                           std::string(key) + "'"),
                std::string::npos)
          << job->status.ToString();
    }

    ReconstructRequest request;
    request.method = "MaxClique";
    request.target_dataset = "crime.target";
    StatusOr<JobId> next = service.Submit(request);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(*next, 3u);
    ASSERT_TRUE(service.Wait(*next).ok());
  }
  // Every job closed its key: a third life has nothing to re-admit.
  {
    Service service(CacheWithCrime(data), options);
    ASSERT_TRUE(service.startup_status().ok());
    EXPECT_EQ(service.stats().jobs_recovered, 0u);
  }
  std::filesystem::remove_all(dir);
}

// The dataset manifest round trip: EnableManifest records loads and
// generated triples; RestoreFromManifest on a fresh cache brings every
// dataset back (files re-read, triples re-generated through the
// resolver), and malformed manifests are precise errors.
TEST(DatasetCache, ManifestRecordsAndRestoresDatasets) {
  eval::PreparedDataset data = SmallDataset();
  const std::string dir = testing::TempDir() + "/marioh_manifest_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string manifest = dir + "/datasets.manifest";
  const std::string hg_path = dir + "/source.hg";
  ASSERT_TRUE(io::TryWriteHypergraphFile(*data.source, hg_path).ok());

  {
    DatasetCache cache;
    ASSERT_TRUE(cache.EnableManifest(manifest).ok());
    ASSERT_TRUE(cache.LoadHypergraphFile("src", hg_path).ok());
    cache.RecordGenerated("syn", "crime", 7);
  }
  StatusOr<std::vector<DatasetCache::ManifestEntry>> entries =
      DatasetCache::ReadManifest(manifest);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);

  // Restore into a fresh cache; the resolver counts gen requests.
  DatasetCache restored;
  int generated = 0;
  Status status = restored.RestoreFromManifest(
      manifest, [&generated](const std::string& basename,
                             const std::string& profile, uint64_t seed) {
        ++generated;
        EXPECT_EQ(basename, "syn");
        EXPECT_EQ(profile, "crime");
        EXPECT_EQ(seed, 7u);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(generated, 1);
  EXPECT_TRUE(restored.Contains("src"));

  // A missing manifest restores nothing, successfully.
  DatasetCache empty;
  EXPECT_TRUE(
      empty.RestoreFromManifest(dir + "/absent.manifest", nullptr).ok());
  // A malformed line is an error naming the line.
  {
    std::ofstream bad(dir + "/bad.manifest");
    bad << "hypergraph only_two\n";
  }
  EXPECT_EQ(DatasetCache::ReadManifest(dir + "/bad.manifest").status().code(),
            StatusCode::kInvalidArgument);
  // A vanished file fails the restore but names the casualty.
  std::filesystem::remove(hg_path);
  DatasetCache unlucky;
  Status lost = unlucky.RestoreFromManifest(manifest, nullptr);
  EXPECT_EQ(lost.code(), StatusCode::kUnavailable);
  EXPECT_NE(lost.message().find("src"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// Seeded mutation test of manifest restore, like the ones the wire
// parser, the .hg/.eg readers and journal replay have: every truncation
// of a valid manifest, and at every offset all eight single-bit flips
// plus seeded random bytes. ReadManifest must either return entries that
// each fit the grammar or kInvalidArgument naming a line of the file,
// and RestoreFromManifest must return (the suite runs under ASan+UBSan)
// with OK, that same error, or kUnavailable for entries it could not
// restore.
TEST(DatasetCache, MutatedManifestsNeverCrashAndParseToTheGrammar) {
  const std::string dir = testing::TempDir() + "/marioh_manifest_mutation";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Hypergraph tiny;
  tiny.AddEdge({0, 1, 2});
  tiny.AddEdge({1, 2});
  ASSERT_TRUE(io::TryWriteHypergraphFile(tiny, dir + "/h.hg").ok());
  ASSERT_TRUE(
      io::TryWriteProjectedGraphFile(tiny.Project(), dir + "/g.eg").ok());
  const std::string manifest = dir + "/m";
  {
    DatasetCache cache;
    ASSERT_TRUE(cache.EnableManifest(manifest).ok());
    ASSERT_TRUE(cache.LoadHypergraphFile("h", dir + "/h.hg").ok());
    ASSERT_TRUE(cache.LoadProjectedGraphFile("g", dir + "/g.eg").ok());
    cache.RecordGenerated("syn", "crime", 7);
  }
  std::string pristine;
  {
    std::ifstream in(manifest, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(DatasetCache::ReadManifest(manifest)->size(), 3u);

  auto token = [](const std::string& field) {
    return !field.empty() &&
           field.find_first_of(" \t\n\v\f\r") == std::string::npos;
  };
  size_t parsed = 0, rejected = 0;
  auto check = [&](const std::string& text) {
    {
      std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
      out << text;
    }
    const size_t lines = static_cast<size_t>(
        std::count(text.begin(), text.end(), '\n') +
        (!text.empty() && text.back() != '\n' ? 1 : 0));
    StatusOr<std::vector<DatasetCache::ManifestEntry>> entries =
        DatasetCache::ReadManifest(manifest);
    if (entries.ok()) {
      ++parsed;
      for (const DatasetCache::ManifestEntry& entry : *entries) {
        const bool file = entry.kind == "hypergraph" || entry.kind == "graph";
        EXPECT_TRUE(file || entry.kind == "gen") << "kind '" << entry.kind
                                                 << "' from '" << text << "'";
        EXPECT_TRUE(token(entry.name) && token(entry.path)) << text;
        if (file) {
          EXPECT_EQ(entry.seed, 0u) << text;
        }
      }
    } else {
      ++rejected;
      EXPECT_EQ(entries.status().code(), StatusCode::kInvalidArgument);
      const std::string& message = entries.status().message();
      const size_t at = message.find("' line ");
      ASSERT_NE(at, std::string::npos) << message;
      const size_t line = std::stoul(message.substr(at + 7));
      EXPECT_GE(line, 1u) << message;
      EXPECT_LE(line, lines) << message;
    }
    DatasetCache restored;
    Status status = restored.RestoreFromManifest(
        manifest, [](const std::string&, const std::string&, uint64_t) {
          return Status::Ok();
        });
    if (!entries.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    } else if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    }
  };

  for (size_t length = 0; length <= pristine.size(); ++length) {
    check(pristine.substr(0, length));
  }
  util::Rng rng(20261017);
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = pristine;
      mutant[offset] = static_cast<char>(mutant[offset] ^ (1 << bit));
      check(mutant);
    }
    for (int draw = 0; draw < 4; ++draw) {
      std::string mutant = pristine;
      mutant[offset] = static_cast<char>(rng.UniformInt(0, 255));
      check(mutant);
    }
  }
  // Not vacuous: both outcomes are common.
  EXPECT_GT(parsed, pristine.size());
  EXPECT_GT(rejected, pristine.size());
  std::filesystem::remove_all(dir);
}

TEST(Service, UnsupervisedJobsSkipTraining) {
  eval::PreparedDataset data = SmallDataset();
  Service service(CacheWithCrime(data));
  ReconstructRequest request;
  request.method = "MaxClique";
  request.target_dataset = "crime.target";
  StatusOr<JobId> id = service.Submit(request);
  ASSERT_TRUE(id.ok());
  StatusOr<JobSnapshot> job = service.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, JobState::kDone) << job->status.ToString();
  EXPECT_EQ(job->stage_stats.count("train"), 0u);
  ASSERT_NE(job->reconstruction, nullptr);
  EXPECT_GT(job->reconstruction->num_unique_edges(), 0u);
}

}  // namespace
}  // namespace marioh::api
