/// \file service.hpp
/// \brief The async job layer: `ReconstructRequest` → `JobId` on a worker
/// pool, with Submit/Poll/Wait/Cancel, per-job `Status` + stage stats +
/// `EvaluationResult`, and service-level counters. This is
/// the serving loop the ROADMAP's "server front end" item asked for:
/// N jobs run concurrently over shared `DatasetCache` handles, each
/// inside its own `Session`, and — because datasets are immutable and
/// every method is a pure function of (dataset, seed, options) — a
/// concurrent schedule produces bit-identical hypergraphs to running the
/// same requests sequentially (asserted by `test_api_service`).

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/request.hpp"
#include "api/session.hpp"
#include "api/status.hpp"
#include "util/cancel.hpp"
#include "util/journal.hpp"
#include "util/worker_pool.hpp"

namespace marioh::obs {
class Histogram;
}  // namespace marioh::obs

namespace marioh::api {

/// Identifies a submitted job; dense, starting at 1.
using JobId = uint64_t;

/// Lifecycle of a job. Terminal states: kDone, kFailed, kCancelled,
/// kDeadlineExceeded.
enum class JobState {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< executing on a worker
  kDone,       ///< finished with an OK status
  kFailed,     ///< finished with an error status
  kCancelled,  ///< cancelled before completing
  /// Aborted mid-run by the request's *hard* `deadline_seconds` (the
  /// soft `time_budget_seconds` overrun still ends kDone, flagged
  /// `budget_overrun`).
  kDeadlineExceeded,
};

/// Stable upper-case name of a state ("QUEUED", ...).
const char* JobStateName(JobState state);

/// Point-in-time view of a job, returned by Poll/Wait. Result fields are
/// populated once the job is terminal.
struct JobSnapshot {
  JobId id = 0;
  JobState state = JobState::kQueued;
  /// Echo of the request's method, target dataset and scheduling
  /// attributes, for display.
  std::string method;
  std::string target_dataset;
  Priority priority = Priority::kNormal;
  std::string client_id;
  /// Terminal status: OK for kDone, the failure for kFailed, kCancelled
  /// / kDeadlineExceeded for a preempted job. OK while the job is still
  /// queued/running.
  Status status;
  /// True if the run exceeded its soft time budget (the overrunning
  /// reconstruction still completed and scored; see Session — the
  /// overshoot is in `stage_stats["budget_overrun_seconds"]`).
  bool budget_overrun = false;
  /// Position in the service-wide terminal order (1 = first job to reach
  /// any terminal state; 0 while queued/running). Makes scheduling
  /// assertions exact: job A finished before job B iff
  /// A.finish_seq < B.finish_seq.
  uint64_t finish_seq = 0;
  /// Seconds from the Cancel() call to the job actually stopping, for a
  /// job preempted while running; negative when not applicable.
  double cancel_latency_seconds = -1.0;
  /// Attempts started so far (1 for a job that never retried; 0 while
  /// still queued for its first run). A terminal snapshot's value is the
  /// total attempts the job consumed.
  int attempts = 0;
  /// Scores, when the request named a ground-truth dataset.
  std::optional<EvaluationResult> evaluation;
  /// Stage wall-clock and reconstruction counters of the job's session
  /// ("train", "reconstruct", "reconstruct.iterations", ...).
  std::map<std::string, double> stage_stats;
  /// The reconstructed hypergraph (kDone only); shared so callers can
  /// keep it after the service forgets the job (see Service::Forget).
  HypergraphHandle reconstruction;

  bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled ||
           state == JobState::kDeadlineExceeded;
  }
};

/// Service-level counters. Gauges (`queued*`, `running`) describe the
/// current instant; the rest are monotone totals since construction.
/// The terminal totals partition the admitted jobs:
/// `accepted = done + failed + cancelled + deadline_exceeded + queued +
/// running` holds at every instant (asserted by test_service_stress).
struct ServiceStats {
  uint64_t accepted = 0;   ///< jobs admitted by Submit
  uint64_t queued = 0;     ///< currently waiting for a worker
  uint64_t running = 0;    ///< currently executing
  uint64_t done = 0;       ///< finished OK (soft overruns included)
  uint64_t failed = 0;     ///< finished with an error
  uint64_t cancelled = 0;  ///< cancelled before completing
  /// Aborted mid-run by their hard deadline (terminal state
  /// kDeadlineExceeded) — disjoint from every other terminal total.
  uint64_t deadline_exceeded = 0;
  /// Jobs that finished past their *soft* time budget (they still ended
  /// kDone and scored; overlaps `done`).
  uint64_t budget_overruns = 0;
  /// Running jobs stopped before completion — by Cancel() or the hard
  /// deadline (queued cancels don't count; nothing was interrupted).
  uint64_t preempted = 0;
  /// Queue-depth gauges per priority class (these sum to `queued`).
  uint64_t queued_interactive = 0;
  uint64_t queued_normal = 0;
  uint64_t queued_batch = 0;
  /// Submits turned away by admission control (queued-work cap or
  /// per-client in-flight quota) with kResourceExhausted. Rejected
  /// submits are never `accepted`, so the terminal-partition invariant
  /// above is untouched by this counter.
  uint64_t submits_rejected = 0;
  /// Terminal jobs auto-retired by the `job_ttl_seconds` policy (manual
  /// Forget calls do not count). Retirement drops the job *record* only;
  /// the monotone terminal totals it already landed in are unaffected.
  uint64_t jobs_retired = 0;
  /// Transient-failure re-queues: bumped each time a retryable failure
  /// sent a job back for another attempt (a job retried twice counts
  /// twice). A retry is not a new admission — `accepted` counts the job
  /// once, and during its backoff the job sits in the `queued` gauge, so
  /// the terminal-partition invariant above holds through every retry.
  uint64_t jobs_retried = 0;
  /// Retryable failures with no attempts left: the job went kFailed
  /// carrying its last transient status.
  uint64_t retries_exhausted = 0;
  /// Running jobs the watchdog declared stalled (heartbeat silent past
  /// `stall_timeout_seconds`) and cancelled through the preemption path.
  uint64_t jobs_stalled = 0;
  /// Batch-priority submits turned away by load shedding
  /// (`shed_batch_above_queued`). A subset of `submits_rejected`.
  uint64_t loadshed_rejects = 0;
  /// Jobs re-admitted from the write-ahead journal at startup: accepted
  /// by a previous life of this service (same journal_dir) that died
  /// before they reached a terminal state. Each is counted in `accepted`
  /// too and keeps its original JobId/client/priority, so the
  /// terminal-partition invariant holds across the restart.
  uint64_t jobs_recovered = 0;
};

/// Configuration of a Service.
struct ServiceOptions {
  /// Concurrent jobs (worker threads); 0 = hardware concurrency.
  int num_workers = 0;
  /// Admission control: Submit returns kResourceExhausted while this
  /// many jobs are already queued (running jobs don't count — they hold
  /// workers, not queue slots). 0 = unlimited.
  size_t max_queued_jobs = 0;
  /// Per-client in-flight quota: Submit returns kResourceExhausted while
  /// the request's client_id already has this many queued + running
  /// jobs. 0 = unlimited. The empty client id is one (shared) client for
  /// quota purposes, same as for fair-share lanes.
  size_t max_inflight_per_client = 0;
  /// Age-based retirement of terminal jobs: a job that has been terminal
  /// for longer than this many seconds is dropped from the job table as
  /// if Forget had been called (Poll/Wait/Forget on it then return
  /// kNotFound). The maintenance thread retires each job when its TTL
  /// runs out, idle or not; a TTL too large for the clock never
  /// expires. Negative = keep forever (the pre-TTL behavior).
  double job_ttl_seconds = -1.0;
  /// Watchdog: a *running* job whose heartbeat — published by its
  /// kernels' CancelChecker polls and its session's stage gates — does
  /// not advance for this many seconds is declared stalled and cancelled
  /// through the normal preemption path. The job ends kCancelled with a
  /// "stalled" status; `jobs_stalled` counts it. Detection latency is
  /// bounded by `stall_timeout + watchdog period` (the period is
  /// stall_timeout/4, clamped to [10ms, 250ms]). Negative disables the
  /// watchdog entirely (no maintenance wakeups while idle).
  double stall_timeout_seconds = -1.0;
  /// Load shedding: while at least this many jobs are queued, new
  /// kBatch-priority submits are rejected with kResourceExhausted
  /// (`loadshed_rejects`) so background bulk work cannot bury
  /// interactive traffic during overload. Interactive/normal submits
  /// still admit up to `max_queued_jobs`. 0 disables shedding.
  size_t shed_batch_above_queued = 0;
  /// Durability: when non-empty, the service write-ahead journals the
  /// request lifecycle into this directory (see util::Journal) — every
  /// request is serialized and synced *before* Submit replies, and on
  /// construction the journal is replayed: jobs that never reached a
  /// terminal state in a previous life are re-admitted under their
  /// original JobId/client/priority (`jobs_recovered`). Empty (the
  /// default) disables journaling entirely — zero syscalls on the
  /// submit path.
  std::string journal_dir;
  /// Fsync policy of the journal (see util::JournalFsync); kAlways means
  /// an accepted job survives even power loss, kNever trades the most
  /// recent accepts for speed.
  util::JournalFsync journal_fsync = util::JournalFsync::kAlways;
};

/// Runs reconstruction jobs asynchronously over a shared `DatasetCache`.
/// All methods are thread-safe; Submit never blocks on job execution.
/// Destruction cancels queued jobs, then waits for running ones.
class Service {
 public:
  explicit Service(std::shared_ptr<DatasetCache> cache,
                   ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits the request, journal or not, only if it passes
  /// ValidateRequestSerializable, Session::Configure and the dataset
  /// checks; a refusal uses no job id and writes no journal record.
  /// The job holds handles to its datasets from this point on, so cache
  /// eviction cannot affect an admitted job.
  StatusOr<JobId> Submit(const ReconstructRequest& request);

  /// Non-blocking state snapshot. kNotFound for unknown ids — including
  /// ids whose record the job TTL retired.
  StatusOr<JobSnapshot> Poll(JobId id);

  /// Blocks until the job reaches a terminal state and returns its final
  /// snapshot. kNotFound for unknown ids.
  StatusOr<JobSnapshot> Wait(JobId id);

  /// Requests cancellation: a queued job never starts (kCancelled); a
  /// running job's CancelToken trips and the kernels stop at their next
  /// preemption point — mid-kernel, within bounded latency (the
  /// cancel-to-stop time lands in the job's `cancel_latency_seconds` and
  /// the `marioh_cancel_latency_seconds` histogram). Best-effort — a job
  /// that finishes first stays done/failed. kNotFound for unknown ids,
  /// kFailedPrecondition if the job is already terminal.
  Status Cancel(JobId id);

  /// Retires a *terminal* job: drops it from the job table, releasing
  /// its reconstruction and dataset pins (snapshots already taken stay
  /// valid — everything shared is handle-owned). Long-running servers
  /// call this after consuming a result so memory stays bounded; the
  /// monotone counters in stats() are unaffected. kNotFound for unknown
  /// ids, kFailedPrecondition while the job is still queued/running
  /// (Cancel and Wait first). A job the TTL already retired is
  /// kNotFound, like a second Forget.
  Status Forget(JobId id);

  /// Current service counters.
  ServiceStats stats() const;

  /// Installs the one completion observer (nullptr clears it), called
  /// with the job id exactly once per job, at its terminal transition
  /// (a retry re-queue is not one). It runs on the finishing thread with
  /// `mutex_` held, so it must not call back into the Service, only hand
  /// the id on; lock order is `mutex_` → the observer's lock, never the
  /// reverse. Once this returns, no call to the old observer is in flight.
  void set_on_finish(std::function<void(JobId)> on_finish);

  /// Whether construction-time recovery succeeded. A constructor cannot
  /// return a Status, so a journal that failed to open/replay lands
  /// here; front ends check it and refuse to serve (a service that
  /// silently dropped its durability promise is worse than one that
  /// won't start). Always OK when `journal_dir` is empty.
  const Status& startup_status() const { return startup_status_; }

 private:
  struct Job {
    JobId id = 0;
    ReconstructRequest request;
    /// Session configuration built at admission; copied per attempt.
    SessionOptions options;
    /// Dataset handles resolved at submit time (own the data from then
    /// on).
    DatasetHandle train;
    DatasetHandle target;
    DatasetHandle ground_truth;
    JobState state = JobState::kQueued;
    /// The job's stop signal, threaded through Session into every
    /// kernel. Trips on Cancel() and on the request's hard deadline
    /// (armed when the job starts running). Lives here so it outlives
    /// the Session by construction.
    util::CancelToken cancel;
    /// When an explicit Cancel() hit the job while running (guarded by
    /// mutex_); the terminal transition turns it into a latency sample.
    std::optional<std::chrono::steady_clock::time_point> cancelled_at;
    /// When the job (re-)entered the queue — at admission, and again
    /// when a retry is scheduled — so the kQueued→kRunning transition
    /// can sample the wait-latency histogram. Guarded by mutex_.
    std::optional<std::chrono::steady_clock::time_point> admitted_at;
    Status status;
    bool budget_overrun = false;
    uint64_t finish_seq = 0;
    double cancel_latency_seconds = -1.0;
    /// Attempts started (guarded by mutex_); see JobSnapshot::attempts.
    int attempts = 0;
    /// Watchdog bookkeeping (guarded by mutex_): the heartbeat value
    /// last sampled off the token and when it last advanced. Reset each
    /// time the job transitions to kRunning.
    uint64_t last_heartbeat = 0;
    std::chrono::steady_clock::time_point last_progress{};
    /// The watchdog cancelled this job for missing heartbeats; its
    /// terminal status is rewritten to say so.
    bool stalled = false;
    /// When the job reached its terminal state; the TTL counts from
    /// here. Unset while queued/running.
    std::optional<std::chrono::steady_clock::time_point> finished_at;
    std::optional<EvaluationResult> evaluation;
    std::map<std::string, double> stage_stats;
    HypergraphHandle reconstruction;
  };

  /// Builds and vets a job for Submit and recovery. Requires no lock.
  StatusOr<std::shared_ptr<Job>> Admit(const ReconstructRequest& request);
  void Enqueue(const std::shared_ptr<Job>& job);
  void RunJob(const std::shared_ptr<Job>& job);
  /// The one terminal transition: sets `state` (terminal) and `status`,
  /// stamps finish_seq/finished_at, bumps the matching terminal total,
  /// journals `terminal <STATE>` (except for a shutdown cancel, which
  /// stays open for the next life to re-admit), schedules TTL expiry,
  /// wakes Wait()ers and calls the completion observer.
  /// Site-specific bookkeeping stays with the caller. Requires `mutex_`.
  void FinishLocked(Job& job, JobState state, Status status);
  /// Snapshot of `job` under `mutex_`.
  JobSnapshot SnapshotLocked(const Job& job) const;
  /// Admission control for one more job of `client` at `priority`.
  /// Requires `mutex_` held; OK or kResourceExhausted (counted in
  /// submits_rejected, plus loadshed_rejects when shed by priority).
  Status AdmitCapacityLocked(const std::string& client, Priority priority);
  /// The maintenance thread, sole owner of time-driven transitions: it
  /// re-enqueues backoff-expired retries, retires TTL-expired jobs and
  /// runs the stall scan. It sleeps until the earliest due retry or
  /// expiry, or one watchdog period while a watched job runs; with
  /// none of these it sleeps until woken.
  void MaintenanceLoop();
  /// One stall scan over the running jobs. Requires `mutex_` held.
  void WatchdogTickLocked(std::chrono::steady_clock::time_point now);
  /// Opens the journal at `options_.journal_dir`, replays it, and
  /// re-admits every job a previous life accepted but never finished.
  /// Called from the constructor (after the pool exists, before the
  /// maintenance thread starts); failures land in `startup_status_`.
  void RecoverFromJournal();
  /// Pull-model metrics publication, run by the registry at every
  /// Collect(): takes one stats() snapshot under `mutex_` and Sets the
  /// `marioh_jobs_*` / queue-depth / cache / journal instruments from
  /// it, so the terminal-partition invariant holds exactly in every
  /// exposition output. Registered in the constructor; the destructor
  /// removes the hook (blocking out any in-flight collection) before
  /// touching anything else.
  void PublishMetrics() const;

  std::shared_ptr<DatasetCache> cache_;
  ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable job_done_;  ///< Wait blocks here
  /// The completion observer (see set_on_finish); guarded by mutex_.
  std::function<void(JobId)> on_finish_;
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  JobId next_id_ = 1;
  /// Next value of JobSnapshot::finish_seq, assigned at every terminal
  /// transition under mutex_.
  uint64_t next_finish_seq_ = 1;
  ServiceStats totals_;  ///< counters other than the live gauges

  /// Backoff queue: jobs between attempts, min-heap on due time (guarded
  /// by mutex_). Entries whose job was cancelled during the backoff pop
  /// harmlessly — RunJob sees a non-queued state and returns.
  std::vector<std::pair<std::chrono::steady_clock::time_point,
                        std::shared_ptr<Job>>>
      retry_heap_;
  /// TTL expiries (due time, job), appended by FinishLocked (guarded by
  /// mutex_). finished_at is stamped under mutex_ in call order, so the
  /// deque is sorted by due time without a heap. An entry whose job was
  /// forgotten first pops without effect (job ids are never reused).
  std::deque<std::pair<std::chrono::steady_clock::time_point, JobId>>
      expiry_;
  std::condition_variable maintenance_wake_;
  bool stopping_ = false;  ///< guarded by mutex_; set by the destructor

  /// The write-ahead journal (null when disabled). Thread-safe on its
  /// own mutex; appended to under `mutex_` so lifecycle records land in
  /// the same order the state machine commits them. Shutdown-preempted
  /// jobs are deliberately *not* journaled terminal — they stay open so
  /// the next life re-admits them.
  std::unique_ptr<util::Journal> journal_;
  Status startup_status_;  ///< set once in the constructor, then const

  /// Event-time latency instruments (global registry; pointers are
  /// stable for the process lifetime) and the collection-hook id.
  obs::Histogram* wait_latency_seconds_ = nullptr;
  obs::Histogram* cancel_latency_seconds_ = nullptr;
  uint64_t metrics_hook_ = 0;

  /// Created last, destroyed first: workers must be gone before the job
  /// table they touch.
  std::unique_ptr<util::WorkerPool> pool_;
  /// The maintenance thread (joined before the pool shuts down).
  std::thread maintenance_;
};

}  // namespace marioh::api
