// Seed-fixed concurrency stress test for the api::Service scheduler: N
// producer threads submit jobs with randomized priorities, clients,
// deadlines and budgets while randomly cancelling earlier ones, and a
// sampler thread keeps asserting the counter invariant
//
//   accepted = done + failed + cancelled + deadline_exceeded
//            + queued + running
//
// at arbitrary instants (every state transition and every stats() read
// happens under one mutex, so the books must balance in every snapshot,
// not just at quiescence). The suite runs under TSan in CI, where it
// doubles as the data-race battery for the CancelToken plumbing; it also
// writes the cancel-to-stop latencies the run added to the
// marioh_cancel_latency_seconds histogram to cancel_latency.json, which
// CI uploads next to bench_micro.json. A second test times a mid-Train
// cancel of a MARIOH Session and records it in the same file.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/request.hpp"
#include "api/service.hpp"
#include "api/session.hpp"
#include "eval/harness.hpp"
#include "obs/metrics.hpp"
#include "util/cancel.hpp"

namespace marioh::api {
namespace {

constexpr int kProducers = 4;
constexpr int kJobsPerProducer = 12;

/// The process-wide cancel-to-stop histogram every Service observes into.
const obs::Histogram& CancelLatency() {
  return *obs::MetricRegistry::Global().GetHistogram(
      "marioh_cancel_latency_seconds");
}

/// Writes `fields` to cancel_latency.json together with every field the
/// tests before it in this process published, so each test adds its own
/// numbers to the one file.
void PublishCancelLatency(
    const std::vector<std::pair<std::string, double>>& fields) {
  static std::vector<std::pair<std::string, double>> published;
  published.insert(published.end(), fields.begin(), fields.end());
  std::ofstream out("cancel_latency.json");
  ASSERT_TRUE(out.good());
  out << "{\n";
  for (size_t i = 0; i < published.size(); ++i) {
    out << "  \"" << published[i].first << "\": " << published[i].second
        << (i + 1 < published.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

/// Checks the books of one stats() snapshot. `cancel_samples` is how far
/// the cancel-latency histogram grew since the run began, read *before*
/// `stats`: the service observes a sample under the lock that counts the
/// cancel, so the sample count can only trail the cancelled total.
void CheckInvariant(const ServiceStats& stats, uint64_t cancel_samples) {
  EXPECT_EQ(stats.accepted, stats.done + stats.failed + stats.cancelled +
                                stats.deadline_exceeded + stats.queued +
                                stats.running);
  EXPECT_EQ(stats.queued, stats.queued_interactive + stats.queued_normal +
                              stats.queued_batch);
  EXPECT_LE(stats.preempted, stats.cancelled + stats.deadline_exceeded);
  EXPECT_LE(cancel_samples, stats.cancelled);
  EXPECT_LE(stats.budget_overruns, stats.done);
}

TEST(ServiceStress, CountersReconcileUnderConcurrentSubmitAndCancel) {
  eval::PreparedDataset data =
      eval::PrepareDataset("crime", /*multiplicity_reduced=*/true,
                           /*seed=*/1);
  auto cache = std::make_shared<DatasetCache>();
  ASSERT_TRUE(cache->Insert("crime.train", data.source, data.g_source).ok());
  ASSERT_TRUE(cache->Insert("crime.target", nullptr, data.g_target).ok());

  ServiceOptions options;
  options.num_workers = 2;
  Service service(cache, options);
  const obs::Histogram& latency = CancelLatency();
  const uint64_t count_before = latency.count();
  const double sum_before = latency.sum();

  std::atomic<bool> producing{true};
  std::vector<std::thread> producers;
  std::mutex ids_mutex;
  std::vector<JobId> all_ids;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &ids_mutex, &all_ids, p] {
      // Seed fixed per producer: the submission stream is reproducible;
      // only the interleaving with the workers varies run to run.
      std::mt19937 rng(1234u + static_cast<unsigned>(p));
      std::vector<JobId> mine;
      for (int j = 0; j < kJobsPerProducer; ++j) {
        ReconstructRequest request;
        // Mostly the fast unsupervised method; every 4th job the slower
        // supervised one so cancels have something running to preempt.
        if (j % 4 == 0) {
          request.method = "MARIOH";
          request.train_dataset = "crime.train";
        } else {
          request.method = "MaxClique";
        }
        request.target_dataset = "crime.target";
        request.seed = 1 + rng() % 5;
        request.priority = static_cast<Priority>(rng() % 3);
        request.client_id = "producer-" + std::to_string(rng() % 3);
        switch (rng() % 6) {
          case 0:
            request.deadline_seconds = 0.0;  // guaranteed hard abort
            break;
          case 1:
            request.time_budget_seconds = 0.0;  // guaranteed soft overrun
            break;
          default:
            break;
        }
        StatusOr<JobId> id = service.Submit(request);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        mine.push_back(*id);
        // Randomly cancel one of this producer's earlier jobs; whatever
        // state it is in (queued/running/terminal) must be handled.
        if (rng() % 5 < 2) {
          // Any outcome is legal here (ok / kFailedPrecondition on a
          // terminal job); the invariant checks below are the oracle.
          service.Cancel(mine[rng() % mine.size()]);
        }
      }
      std::lock_guard<std::mutex> lock(ids_mutex);
      all_ids.insert(all_ids.end(), mine.begin(), mine.end());
    });
  }

  // The sampler hammers stats() while producers and workers run: the
  // invariant must hold in every mid-flight snapshot.
  std::thread sampler([&service, &producing, &latency, count_before] {
    while (producing.load()) {
      uint64_t cancel_samples = latency.count() - count_before;
      CheckInvariant(service.stats(), cancel_samples);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& producer : producers) producer.join();
  producing.store(false);
  sampler.join();

  for (JobId id : all_ids) {
    StatusOr<JobSnapshot> job = service.Wait(id);
    ASSERT_TRUE(job.ok());
    EXPECT_TRUE(job->terminal());
    EXPECT_GT(job->finish_seq, 0u);
    if (job->state == JobState::kDone) {
      EXPECT_NE(job->reconstruction, nullptr);
    } else {
      EXPECT_EQ(job->reconstruction, nullptr);
    }
  }

  uint64_t cancel_count = latency.count() - count_before;
  double cancel_total = latency.sum() - sum_before;
  ServiceStats stats = service.stats();
  CheckInvariant(stats, cancel_count);
  EXPECT_LE(cancel_total,
            latency.max() * static_cast<double>(cancel_count) + 1e-9);
  EXPECT_EQ(stats.accepted,
            static_cast<uint64_t>(kProducers * kJobsPerProducer));
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  // Roughly a sixth of the jobs carried deadline_seconds=0, so hard
  // aborts must have happened.
  EXPECT_GT(stats.deadline_exceeded, 0u);
  EXPECT_GT(stats.done, 0u);
  EXPECT_EQ(stats.failed, 0u);

  // Publish the measured cancel latencies for the CI artifact (empty
  // stats are valid: every Cancel may have caught its job queued).
  double mean =
      cancel_count == 0 ? 0.0
                        : cancel_total / static_cast<double>(cancel_count);
  PublishCancelLatency(
      {{"cancel_latency_count", static_cast<double>(cancel_count)},
       {"cancel_latency_mean_seconds", mean},
       {"cancel_latency_max_seconds",
        cancel_count == 0 ? 0.0 : latency.max()},
       {"preempted", static_cast<double>(stats.preempted)},
       {"cancelled", static_cast<double>(stats.cancelled)},
       {"deadline_exceeded", static_cast<double>(stats.deadline_exceeded)}});
}

// Mid-Train cancel latency: a MARIOH Session trains on an eu draw with
// 500 MLP epochs, seconds of fit even on the widest GEMM path, so the
// trip 300 ms in lands mid-Train; a cancel that never lands lets Train
// finish with kOk, which fails the status check in seconds rather than
// hanging. A second thread trips the token; the time from the trip
// until Train returns kCancelled is bounded by how often the fit's
// mini-batch loop (and the stages before it) poll the token. The bound
// is generous enough for a TSan Debug build.
TEST(ServiceStress, MidTrainCancelReturnsWithinASecond) {
  eval::PreparedDataset data =
      eval::PrepareDataset("eu", /*multiplicity_reduced=*/false,
                           /*seed=*/1);
  util::CancelToken token;
  SessionOptions options;
  options.method = "MARIOH";
  options.cancel = &token;
  options.marioh.classifier.mlp.epochs = 500;
  Session session;
  ASSERT_TRUE(session.Configure(options).ok());

  using Clock = std::chrono::steady_clock;
  Clock::time_point tripped_at;
  std::thread tripper([&token, &tripped_at] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    tripped_at = Clock::now();
    token.Cancel();
  });
  Status status = session.Train(data.train());
  const Clock::time_point returned_at = Clock::now();
  tripper.join();

  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  const double seconds =
      std::chrono::duration<double>(returned_at - tripped_at).count();
  EXPECT_LE(seconds, 1.0);
  PublishCancelLatency({{"train_cancel_latency_seconds", seconds}});
}

}  // namespace
}  // namespace marioh::api
