#include "api/service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/parse.hpp"

namespace marioh::api {

namespace {

/// The fixed part of the retry schedule (RetryPolicy sets only the
/// attempt count and the initial backoff): each failed attempt doubles
/// the backoff up to a 2 s cap, then a jitter of up to a tenth of it is
/// added.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffSeconds = 2.0;
constexpr double kJitterFraction = 0.1;

/// Backoff before the next attempt after `failed_attempts` have failed:
/// exponential with a deterministic jitter (a pure function of job id
/// and attempt — replayed schedules back off identically).
double BackoffSeconds(const RetryPolicy& policy, JobId id,
                      int failed_attempts) {
  double base = policy.initial_backoff_seconds;
  for (int i = 1; i < failed_attempts; ++i) {
    base *= kBackoffMultiplier;
    if (base >= kMaxBackoffSeconds) break;
  }
  base = std::min(base, kMaxBackoffSeconds);
  // splitmix64 of (id, attempt) -> uniform in [0, 1).
  uint64_t x = (id * 0x9E3779B97F4A7C15ULL) ^
               (static_cast<uint64_t>(failed_attempts) + 0x42ULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  double unit = static_cast<double>(x >> 11) * 0x1.0p-53;
  return base * (1.0 + kJitterFraction * unit);
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kDone:
      return "DONE";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kCancelled:
      return "CANCELLED";
    case JobState::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

Service::Service(std::shared_ptr<DatasetCache> cache,
                 ServiceOptions options)
    : cache_(std::move(cache)), options_(options) {
  MARIOH_CHECK(cache_ != nullptr);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  wait_latency_seconds_ =
      registry.GetHistogram("marioh_wait_latency_seconds");
  cancel_latency_seconds_ =
      registry.GetHistogram("marioh_cancel_latency_seconds");
  pool_ = std::make_unique<util::WorkerPool>(options_.num_workers);
  // Recovery happens after the pool exists (re-admitted jobs enqueue
  // into it) and before the maintenance thread starts watching.
  if (!options_.journal_dir.empty()) RecoverFromJournal();
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
  // Last: once the hook is live, any thread's Collect() may call back
  // into stats(), so the service must be fully constructed.
  metrics_hook_ = registry.AddCollectionHook([this] { PublishMetrics(); });
}

void Service::PublishMetrics() const {
  obs::MetricRegistry& r = obs::MetricRegistry::Global();
  // One stats() call = one coherent snapshot under mutex_: the terminal
  // partition (accepted = terminals + queued + running) holds across
  // the published values exactly, which the metrics-endpoint partition
  // assertions (test_net_server, both soaks) rely on.
  ServiceStats s = stats();
  r.GetCounter("marioh_jobs_accepted_total")->Set(s.accepted);
  r.GetGauge("marioh_jobs_queued")->Set(static_cast<double>(s.queued));
  r.GetGauge("marioh_jobs_running")->Set(static_cast<double>(s.running));
  r.GetCounter("marioh_jobs_done_total")->Set(s.done);
  r.GetCounter("marioh_jobs_failed_total")->Set(s.failed);
  r.GetCounter("marioh_jobs_cancelled_total")->Set(s.cancelled);
  r.GetCounter("marioh_jobs_deadline_exceeded_total")
      ->Set(s.deadline_exceeded);
  r.GetCounter("marioh_budget_overruns_total")->Set(s.budget_overruns);
  r.GetCounter("marioh_jobs_preempted_total")->Set(s.preempted);
  r.GetGauge("marioh_queue_depth", "priority=\"interactive\"")
      ->Set(static_cast<double>(s.queued_interactive));
  r.GetGauge("marioh_queue_depth", "priority=\"normal\"")
      ->Set(static_cast<double>(s.queued_normal));
  r.GetGauge("marioh_queue_depth", "priority=\"batch\"")
      ->Set(static_cast<double>(s.queued_batch));
  r.GetCounter("marioh_submits_rejected_total")->Set(s.submits_rejected);
  r.GetCounter("marioh_jobs_retired_total")->Set(s.jobs_retired);
  r.GetCounter("marioh_jobs_retried_total")->Set(s.jobs_retried);
  r.GetCounter("marioh_retries_exhausted_total")->Set(s.retries_exhausted);
  r.GetCounter("marioh_jobs_stalled_total")->Set(s.jobs_stalled);
  r.GetCounter("marioh_loadshed_rejects_total")->Set(s.loadshed_rejects);
  r.GetCounter("marioh_jobs_recovered_total")->Set(s.jobs_recovered);
  r.GetCounter("marioh_faults_injected_total")
      ->Set(util::FailPoints::TotalHits());
  r.GetGauge("marioh_cache_bytes")
      ->Set(static_cast<double>(cache_->total_bytes()));
  r.GetCounter("marioh_cache_evictions_total")->Set(cache_->evictions());
  if (journal_ != nullptr) {
    // Created lazily only when a journal exists, so journal-less
    // processes expose no journal series.
    util::JournalStats js = journal_->stats();
    r.GetCounter("marioh_journal_records_total")->Set(js.records_appended);
    r.GetCounter("marioh_journal_fsyncs_total")->Set(js.fsyncs);
    r.GetGauge("marioh_journal_segments")
        ->Set(static_cast<double>(journal_->segment_count()));
    r.GetCounter("marioh_journal_replayed_total")
        ->Set(js.records_replayed);
    r.GetCounter("marioh_journal_torn_tails_total")
        ->Set(js.torn_tails_truncated);
    r.GetCounter("marioh_journal_compacted_total")
        ->Set(js.segments_compacted);
  }
}

void Service::RecoverFromJournal() {
  /// What the journal said about one JobId, folded over its records in
  /// append order.
  struct Replayed {
    std::string request_text;  ///< the serialized accept payload
    bool have_request = false;
    int attempts = 0;   ///< highest attempt number journaled
    bool terminal = false;
  };
  std::map<JobId, Replayed> replayed;
  util::JournalOptions journal_options;
  journal_options.fsync = options_.journal_fsync;
  StatusOr<std::unique_ptr<util::Journal>> journal = util::Journal::Open(
      options_.journal_dir,
      [&replayed](const util::JournalRecord& record) {
        Replayed& entry = replayed[record.key];
        if (record.terminal) {
          entry.terminal = true;
          return;
        }
        if (record.payload.rfind("accept ", 0) == 0) {
          entry.request_text = record.payload.substr(7);
          entry.have_request = true;
        } else if (record.payload.rfind("attempt ", 0) == 0) {
          std::optional<int> n =
              util::ParseNonNegativeInt(record.payload.substr(8));
          if (n.has_value()) entry.attempts = std::max(entry.attempts, *n);
        }
        // Unknown record kinds are skipped, not fatal: a newer journal
        // replayed by an older binary loses detail, never the jobs.
      },
      journal_options);
  if (!journal.ok()) {
    startup_status_ = journal.status();
    return;
  }
  journal_ = std::move(journal).value();
  for (const auto& [id, entry] : replayed) {
    // New ids must never collide with journaled ones — terminal or not.
    next_id_ = std::max(next_id_, id + 1);
    if (entry.terminal || !entry.have_request) continue;
    // This job was accepted by a previous life of the service and never
    // finished: re-admit it through the normal lanes under its original
    // identity. Its accept record stays in the old segments (open keys
    // block their compaction), so no re-journaling is needed.
    ReconstructRequest request;
    Status parsed = ParseReconstructRequest(entry.request_text, &request);
    StatusOr<std::shared_ptr<Job>> admitted =
        parsed.ok() ? Admit(request)
                    : StatusOr<std::shared_ptr<Job>>(parsed);
    if (admitted.ok()) {
      std::shared_ptr<Job> job = std::move(admitted).value();
      job->id = id;
      // The interrupted attempt produced nothing, so it is repeated
      // rather than charged: attempts resumes one below the journaled
      // high-water mark.
      job->attempts = std::max(0, entry.attempts - 1);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        job->admitted_at = std::chrono::steady_clock::now();
        jobs_.emplace(id, job);
        ++totals_.accepted;
        ++totals_.jobs_recovered;
      }
      Enqueue(job);
    } else {
      // Un-re-admittable (dataset gone, drifted record): the job still
      // counts, as a recovered failure under its original id — silently
      // dropping it is exactly what the journal exists to prevent.
      // Its terminal record closes the key, so the failure is itself
      // durable (best-effort: a failed append just means one more doomed
      // re-admission).
      auto job = std::make_shared<Job>();
      job->id = id;
      job->request = request;
      std::lock_guard<std::mutex> lock(mutex_);
      jobs_.emplace(id, job);
      ++totals_.accepted;
      ++totals_.jobs_recovered;
      FinishLocked(*job, JobState::kFailed,
                   Status(admitted.status().code(),
                          "recovery could not re-admit the job: " +
                              admitted.status().message()));
    }
  }
}

Service::~Service() {
  // Hook first, holding no locks: RemoveCollectionHook blocks until any
  // in-flight Collect() finished running hooks, so after this line
  // PublishMetrics can never run against a dying service (and the
  // lock order hook-mutex → mutex_ is never reversed).
  obs::MetricRegistry::Global().RemoveCollectionHook(metrics_hook_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // The maintenance thread goes first: it must not re-enqueue a backoff
  // retry into a pool that is shutting down underneath it.
  maintenance_wake_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Jobs parked in the backoff heap are kQueued in the table below, so
    // the sweep cancels them like any other queued job; the heap entries
    // themselves just die with the service.
    retry_heap_.clear();
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kQueued) {
        FinishLocked(*job, JobState::kCancelled,
                     Status::Cancelled("service shut down before the job "
                                       "started"));
      }
      // Running jobs stop at their next mid-kernel preemption point.
      job->cancel.Cancel();
    }
  }
  pool_->Shutdown();
}

StatusOr<std::shared_ptr<Service::Job>> Service::Admit(
    const ReconstructRequest& request) {
  // One rule, journal or not: admit only what the journal would replay
  // as the same request and what a worker's Session would configure.
  MARIOH_RETURN_IF_ERROR(ValidateRequestSerializable(request));
  auto job = std::make_shared<Job>();
  job->request = request;
  // Kernels run on one thread unless a `threads=` override says otherwise:
  // job and kernel parallelism compose explicitly, not quadratically.
  job->options.method = request.method;
  job->options.seed = request.seed;
  job->options.time_budget_seconds = request.time_budget_seconds;
  for (const auto& [key, value] : request.overrides) {
    MARIOH_RETURN_IF_ERROR(
        ApplySessionOverride(&job->options, key + "=" + value));
  }
  Session probe;
  MARIOH_RETURN_IF_ERROR(probe.Configure(job->options));

  if (request.target_dataset.empty()) {
    return Status::InvalidArgument("request names no target_dataset");
  }
  StatusOr<DatasetHandle> target = cache_->Get(request.target_dataset);
  if (!target.ok()) return target.status();
  if (!target->has_graph()) {
    return Status::FailedPrecondition(
        "dataset '" + request.target_dataset +
        "' holds no projected graph to reconstruct from");
  }
  job->target = std::move(target).value();

  if (!request.train_dataset.empty()) {
    StatusOr<DatasetHandle> train = cache_->Get(request.train_dataset);
    if (!train.ok()) return train.status();
    if (!train->has_hypergraph() || !train->has_graph()) {
      return Status::FailedPrecondition(
          "dataset '" + request.train_dataset +
          "' is not a source pair (needs a hypergraph and its "
          "projection)");
    }
    job->train = std::move(train).value();
  } else if (probe.method_info().supervised) {
    return Status::FailedPrecondition(
        "method '" + request.method +
        "' is supervised and needs a train_dataset");
  }

  if (!request.ground_truth_dataset.empty()) {
    StatusOr<DatasetHandle> truth =
        cache_->Get(request.ground_truth_dataset);
    if (!truth.ok()) return truth.status();
    if (!truth->has_hypergraph()) {
      return Status::FailedPrecondition(
          "dataset '" + request.ground_truth_dataset +
          "' holds no hypergraph to evaluate against");
    }
    job->ground_truth = std::move(truth).value();
  }

  return job;
}

void Service::Enqueue(const std::shared_ptr<Job>& job) {
  util::TaskOptions scheduling;
  scheduling.priority = static_cast<int>(job->request.priority);
  scheduling.client = job->request.client_id;
  pool_->Submit([this, job] { RunJob(job); }, std::move(scheduling));
}

Status Service::AdmitCapacityLocked(const std::string& client,
                                    Priority priority) {
  size_t queued = 0;
  size_t inflight_client = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kQueued) ++queued;
    if ((job->state == JobState::kQueued ||
         job->state == JobState::kRunning) &&
        job->request.client_id == client) {
      ++inflight_client;
    }
  }
  if (options_.shed_batch_above_queued > 0 &&
      priority == Priority::kBatch &&
      queued >= options_.shed_batch_above_queued) {
    // Overload: shed bulk work before it buries the queue. Softer than
    // the hard cap below (which turns *everyone* away), and counted
    // separately so operators can tell pressure from misconfiguration.
    ++totals_.submits_rejected;
    ++totals_.loadshed_rejects;
    return Status::ResourceExhausted(
        "load shedding: batch admissions suspended while " +
        std::to_string(queued) + " jobs are queued (threshold " +
        std::to_string(options_.shed_batch_above_queued) +
        "); retry later or raise the priority");
  }
  if (options_.max_queued_jobs > 0 && queued >= options_.max_queued_jobs) {
    ++totals_.submits_rejected;
    return Status::ResourceExhausted(
        "queue is full (" + std::to_string(queued) + " of " +
        std::to_string(options_.max_queued_jobs) +
        " queued jobs); retry after jobs drain");
  }
  if (options_.max_inflight_per_client > 0 &&
      inflight_client >= options_.max_inflight_per_client) {
    ++totals_.submits_rejected;
    return Status::ResourceExhausted(
        "client '" + client + "' has " + std::to_string(inflight_client) +
        " of " + std::to_string(options_.max_inflight_per_client) +
        " in-flight jobs; wait for one to finish");
  }
  return Status::Ok();
}

StatusOr<JobId> Service::Submit(const ReconstructRequest& request) {
  StatusOr<std::shared_ptr<Job>> admitted = Admit(request);
  if (!admitted.ok()) return admitted.status();
  std::shared_ptr<Job> job = std::move(admitted).value();
  // Serialized outside the lock, and only when journaling (no syscalls).
  const std::string wire =
      journal_ != nullptr ? SerializeReconstructRequest(request) : "";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MARIOH_RETURN_IF_ERROR(
        AdmitCapacityLocked(request.client_id, request.priority));
    if (journal_ != nullptr) {
      // Write-ahead: the accept record is on stable storage before the
      // job exists anywhere else. If the append fails, the submit fails —
      // an accepted-but-unjournaled job would be exactly the silent loss
      // this layer exists to prevent. The unused id is safely reused by
      // the next submit.
      MARIOH_RETURN_IF_ERROR(
          journal_->Append(next_id_, "accept " + wire, /*terminal=*/false));
    }
    job->id = next_id_++;
    job->admitted_at = std::chrono::steady_clock::now();
    jobs_.emplace(job->id, job);
    ++totals_.accepted;
  }
  Enqueue(job);
  return job->id;
}

void Service::RunJob(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    if (job->cancel.cancelled()) {
      FinishLocked(*job, JobState::kCancelled,
                   Status::Cancelled("job cancelled before it started"));
      return;
    }
    job->state = JobState::kRunning;
    if (job->admitted_at.has_value()) {
      // Queue wait for this attempt: admission (or retry scheduling) to
      // the moment a worker picked the job up.
      wait_latency_seconds_->Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        *job->admitted_at)
              .count());
    }
    ++job->attempts;
    if (journal_ != nullptr) {
      // Best-effort attempt marker: losing it costs nothing but a
      // repeated attempt number after a crash.
      (void)journal_->Append(job->id,
                             "attempt " + std::to_string(job->attempts),
                             /*terminal=*/false);
    }
    // Arm the watchdog's stall clock for this attempt: progress is
    // "the heartbeat advanced since last sampled", starting now.
    job->last_heartbeat = job->cancel.heartbeat();
    job->last_progress = std::chrono::steady_clock::now();
  }
  // A sleeping maintenance thread starts its stall scans once something
  // is running.
  if (options_.stall_timeout_seconds >= 0.0) maintenance_wake_.notify_all();
  // The hard deadline covers *run* time, so arm it only now that the job
  // holds a worker — a job stuck behind a long queue keeps its full
  // allowance. Re-armed per attempt: every retry gets the full
  // allowance, like a fresh run would.
  if (job->request.deadline_seconds >= 0.0) {
    job->cancel.SetDeadline(job->request.deadline_seconds);
  }

  SessionOptions options = job->options;
  // The token gates every stage entry *and* rides into the MARIOH-family
  // kernels, so Cancel/deadline trips land mid-kernel; baselines still
  // stop at their next stage boundary.
  options.cancel = &job->cancel;

  Session session;
  Status status;
  std::optional<EvaluationResult> evaluation;
  HypergraphHandle reconstruction;
  {
    // Root span of this attempt: the session's per-stage spans open
    // inside this scope, so they link to it as children.
    obs::TraceSpan job_span(
        "job", job->request.method + " job=" + std::to_string(job->id) +
                   " attempt=" + std::to_string(job->attempts));
    status = session.Configure(std::move(options));
    if (status.ok() && job->train.has_hypergraph()) {
      status = session.Train(job->train);
    }
    if (status.ok()) status = session.Reconstruct(job->target);
    if (status.ok() && job->ground_truth.has_hypergraph()) {
      StatusOr<EvaluationResult> scores =
          session.Evaluate(*job->ground_truth.hypergraph);
      if (scores.ok()) {
        evaluation = *scores;
      } else {
        status = scores.status();
      }
    }

    if (status.ok()) {
      StatusOr<Hypergraph> result = session.TakeReconstruction();
      if (result.ok()) {
        reconstruction = std::make_shared<const Hypergraph>(
            std::move(result).value());
      } else {
        status = result.status();
      }
    }
  }

  bool scheduled_retry = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Transient (kUnavailable) failure with attempts left and no cancel
    // requested: back off, then re-queue through the normal fair-share
    // lanes. Trips end kCancelled / kDeadlineExceeded, so they never
    // retry. The job keeps its id and returns to kQueued — not a
    // terminal transition, so no finish_seq and Wait() keeps blocking;
    // the stats partition flows through the `queued` gauge unbroken.
    if (status.code() == StatusCode::kUnavailable &&
        !job->cancel.cancelled() && !stopping_) {
      if (job->attempts < job->request.retry.max_attempts) {
        job->state = JobState::kQueued;
        job->status = Status::Ok();
        // Re-arm the wait clock: the next kRunning transition samples
        // backoff + queue time for this retry, not time since the
        // original admission.
        job->admitted_at = std::chrono::steady_clock::now();
        ++totals_.jobs_retried;
        // Saturating: a huge `backoff=` can exceed the clock's range,
        // which parks the retry until a Cancel.
        auto due = util::SaturatingAfter(
            std::chrono::steady_clock::now(),
            BackoffSeconds(job->request.retry, job->id, job->attempts));
        retry_heap_.emplace_back(due, job);
        std::push_heap(retry_heap_.begin(), retry_heap_.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
        scheduled_retry = true;
      } else {
        // Out of attempts: the last transient status becomes terminal.
        ++totals_.retries_exhausted;
      }
    }
    if (!scheduled_retry) {
      JobState state = JobState::kFailed;
      bool preempted = false;
      if (status.ok()) {
        state = JobState::kDone;
      } else if (status.code() == StatusCode::kCancelled) {
        state = JobState::kCancelled;
        preempted = true;
      } else if (status.code() == StatusCode::kDeadlineExceeded &&
                 job->cancel.deadline_passed()) {
        // The *hard* deadline tripped the token mid-run — even if a
        // Cancel() landed after the trip, which reason() would report
        // first. (A plain kDeadlineExceeded without a passed deadline is
        // the soft time_budget_seconds gate refusing a later stage — that
        // run produced and kept nothing extra, but it was not preempted.)
        state = JobState::kDeadlineExceeded;
        preempted = true;
      }
      if (job->stalled && state == JobState::kCancelled) {
        // A watchdog cancel, not a user one: say so. (If the job beat
        // the cancel to the finish line it stays kDone — best effort.)
        status = Status::Cancelled(
            "job stalled: watchdog observed no heartbeat for " +
            std::to_string(options_.stall_timeout_seconds) +
            "s and cancelled it");
      }
      job->budget_overrun = session.deadline_exceeded();
      job->evaluation = evaluation;
      job->stage_stats = session.stage_timer().stages();
      job->reconstruction = std::move(reconstruction);
      if (job->budget_overrun) ++totals_.budget_overruns;
      if (preempted) {
        ++totals_.preempted;
        if (job->cancelled_at.has_value() && state == JobState::kCancelled) {
          job->cancel_latency_seconds =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - *job->cancelled_at)
                  .count();
          cancel_latency_seconds_->Observe(job->cancel_latency_seconds);
        }
      }
      FinishLocked(*job, state, std::move(status));
    }
  }
  if (scheduled_retry) {
    // Wake the maintenance thread so it can (re)compute its next due
    // time; Wait()ers have nothing to see yet.
    maintenance_wake_.notify_all();
  }
}

void Service::FinishLocked(Job& job, JobState state, Status status) {
  MARIOH_CHECK(state != JobState::kQueued && state != JobState::kRunning);
  job.state = state;
  job.status = std::move(status);
  job.finish_seq = next_finish_seq_++;
  job.finished_at = std::chrono::steady_clock::now();
  if (options_.job_ttl_seconds >= 0.0) {
    // Saturating: a TTL past the clock's range expires "never" (max()).
    if (expiry_.empty()) maintenance_wake_.notify_all();
    expiry_.emplace_back(
        util::SaturatingAfter(*job.finished_at, options_.job_ttl_seconds),
        job.id);
  }
  switch (state) {
    case JobState::kDone:
      ++totals_.done;
      break;
    case JobState::kFailed:
      ++totals_.failed;
      break;
    case JobState::kCancelled:
      ++totals_.cancelled;
      break;
    case JobState::kDeadlineExceeded:
      ++totals_.deadline_exceeded;
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;
  }
  // Close the job's journal key — except when shutdown cancelled it: a
  // job the *service's death* cancelled is exactly the kind the journal
  // must keep open, so the next life re-admits it.
  if (journal_ != nullptr && !(stopping_ && state == JobState::kCancelled)) {
    (void)journal_->Append(job.id,
                           std::string("terminal ") + JobStateName(state),
                           /*terminal=*/true);
  }
  job_done_.notify_all();
  if (on_finish_) on_finish_(job.id);
}

void Service::set_on_finish(std::function<void(JobId)> on_finish) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_finish_ = std::move(on_finish);
}

void Service::WatchdogTickLocked(
    std::chrono::steady_clock::time_point now) {
  for (auto& [id, job] : jobs_) {
    if (job->state != JobState::kRunning || job->stalled) continue;
    uint64_t heartbeat = job->cancel.heartbeat();
    if (heartbeat != job->last_heartbeat) {
      job->last_heartbeat = heartbeat;
      job->last_progress = now;
      continue;
    }
    double silent_seconds =
        std::chrono::duration<double>(now - job->last_progress).count();
    if (silent_seconds > options_.stall_timeout_seconds) {
      // Wedged (or at least not reaching any poll site): cancel through
      // the normal preemption path. The terminal transition in RunJob
      // rewrites the status to say "stalled" and samples the
      // detection-to-stop latency via cancelled_at.
      job->stalled = true;
      ++totals_.jobs_stalled;
      job->cancelled_at = now;
      job->cancel.Cancel();
    }
  }
}

void Service::MaintenanceLoop() {
  using std::chrono::steady_clock;
  const bool watchdog = options_.stall_timeout_seconds >= 0.0;
  // Scan period: fine enough that detection latency is dominated by the
  // stall timeout itself, coarse enough to stay invisible in profiles.
  const auto period = std::chrono::duration_cast<steady_clock::duration>(
      std::chrono::duration<double>(
          std::clamp(options_.stall_timeout_seconds / 4.0, 0.010, 0.250)));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // One wake time: the earliest due retry or expiry, and one scan
    // period out while the watchdog has a running job to watch. max()
    // means "never" (none of these, or only saturated due times): sleep
    // until a retry is scheduled, a job starts or finishes, or shutdown.
    steady_clock::time_point wake = steady_clock::time_point::max();
    if (!retry_heap_.empty()) wake = retry_heap_.front().first;
    if (!expiry_.empty()) wake = std::min(wake, expiry_.front().first);
    if (watchdog && std::any_of(jobs_.begin(), jobs_.end(),
                                [](const auto& entry) {
                                  return entry.second->state ==
                                         JobState::kRunning;
                                })) {
      wake = std::min(wake, steady_clock::now() + period);
    }
    if (wake == steady_clock::time_point::max()) {
      maintenance_wake_.wait(lock);
    } else {
      maintenance_wake_.wait_until(lock, wake);
    }
    if (stopping_) break;
    const steady_clock::time_point now = steady_clock::now();
    while (!expiry_.empty() && expiry_.front().first <= now) {
      // A job Forget already erased is simply gone: not counted.
      totals_.jobs_retired += jobs_.erase(expiry_.front().second);
      expiry_.pop_front();
    }
    std::vector<std::shared_ptr<Job>> due;
    while (!retry_heap_.empty() && retry_heap_.front().first <= now) {
      std::pop_heap(retry_heap_.begin(), retry_heap_.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
      due.push_back(std::move(retry_heap_.back().second));
      retry_heap_.pop_back();
    }
    if (watchdog) WatchdogTickLocked(now);
    if (!due.empty()) {
      // Enqueue outside the lock: the pool takes its own mutex. A job
      // cancelled during its backoff still enqueues harmlessly — RunJob
      // sees the non-queued state and returns.
      lock.unlock();
      for (const std::shared_ptr<Job>& job : due) Enqueue(job);
      lock.lock();
    }
  }
}

JobSnapshot Service::SnapshotLocked(const Job& job) const {
  JobSnapshot snapshot;
  snapshot.id = job.id;
  snapshot.state = job.state;
  snapshot.method = job.request.method;
  snapshot.target_dataset = job.request.target_dataset;
  snapshot.priority = job.request.priority;
  snapshot.client_id = job.request.client_id;
  snapshot.status = job.status;
  snapshot.budget_overrun = job.budget_overrun;
  snapshot.finish_seq = job.finish_seq;
  snapshot.cancel_latency_seconds = job.cancel_latency_seconds;
  snapshot.attempts = job.attempts;
  snapshot.evaluation = job.evaluation;
  snapshot.stage_stats = job.stage_stats;
  snapshot.reconstruction = job.reconstruction;
  return snapshot;
}

StatusOr<JobSnapshot> Service::Poll(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  return SnapshotLocked(*it->second);
}

StatusOr<JobSnapshot> Service::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  job_done_.wait(lock, [&job] {
    return job->state != JobState::kQueued &&
           job->state != JobState::kRunning;
  });
  return SnapshotLocked(*job);
}

Status Service::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  Job& job = *it->second;
  switch (job.state) {
    case JobState::kQueued:
      // The worker that eventually pops this job sees a non-queued state
      // and returns immediately. An *explicit* cancel is journaled
      // terminal and durable — unlike the shutdown sweep, which leaves
      // jobs open for the next life.
      FinishLocked(job, JobState::kCancelled,
                   Status::Cancelled("job cancelled while queued"));
      return Status::Ok();
    case JobState::kRunning:
      // Timestamp first so the measured latency can only over-count the
      // cancel-to-stop interval, never under-count it.
      job.cancelled_at = std::chrono::steady_clock::now();
      job.cancel.Cancel();
      return Status::Ok();
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
    case JobState::kDeadlineExceeded:
      return Status::FailedPrecondition(
          "job " + std::to_string(id) + " is already " +
          JobStateName(job.state));
  }
  return Status::Internal("unreachable");
}

Status Service::Forget(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The Forget-vs-TTL race resolves under mutex_: whichever comes first
  // erases the record, and the other finds nothing — Forget answers
  // kNotFound, the maintenance thread skips the entry uncounted.
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  const Job& job = *it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    return Status::FailedPrecondition(
        "job " + std::to_string(id) + " is still " +
        JobStateName(job.state) + "; Cancel/Wait before Forget");
  }
  jobs_.erase(it);
  return Status::Ok();
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats stats = totals_;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kQueued) {
      ++stats.queued;
      switch (job->request.priority) {
        case Priority::kInteractive:
          ++stats.queued_interactive;
          break;
        case Priority::kNormal:
          ++stats.queued_normal;
          break;
        case Priority::kBatch:
          ++stats.queued_batch;
          break;
      }
    }
    if (job->state == JobState::kRunning) ++stats.running;
  }
  return stats;
}

}  // namespace marioh::api
