#include "api/session.hpp"

#include <optional>
#include <utility>

#include "eval/metrics.hpp"
#include "io/text_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/parse.hpp"

namespace marioh::api {

namespace {

/// kInvalidArgument if a session-level key was already applied to this
/// SessionOptions (each may be assigned at most once). Called from each
/// session-level parse branch, so the set of session-level keys lives in
/// exactly one place: the branches themselves.
Status CheckNotDuplicate(const SessionOptions& options,
                         const std::string& key) {
  for (const std::string& applied : options.applied_session_keys) {
    if (applied == key) {
      return Status::InvalidArgument(
          "duplicate session option '" + key +
          "': it was already set by an earlier override");
    }
  }
  return Status::Ok();
}

/// Maps a tripped token to the stage's failure status: an armed deadline
/// becomes kDeadlineExceeded (the *hard* variant — the soft
/// time_budget_seconds path reports its own message), anything else
/// kCancelled.
Status StatusForTrip(util::CancelReason reason, const std::string& method,
                     const std::string& where) {
  if (reason == util::CancelReason::kDeadline) {
    return Status::DeadlineExceeded(method + ": hard deadline exceeded " +
                                    where);
  }
  return Status::Cancelled(method + ": run cancelled " + where);
}

}  // namespace

Status ApplySessionOverride(SessionOptions* options,
                            const std::string& assignment) {
  size_t eq = assignment.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("expected key=value, got '" +
                                   assignment + "'");
  }
  if (eq == 0) {
    return Status::InvalidArgument("empty key in override '" + assignment +
                                   "'");
  }
  std::string key = assignment.substr(0, eq);
  std::string value = assignment.substr(eq + 1);
  if (value.empty()) {
    return Status::InvalidArgument("empty value for option '" + key + "'");
  }
  if (key == "method") {
    MARIOH_RETURN_IF_ERROR(CheckNotDuplicate(*options, key));
    options->method = value;
    options->applied_session_keys.push_back(key);
    return Status::Ok();
  }
  if (key == "seed" || key == "time_budget_seconds" || key == "threads") {
    MARIOH_RETURN_IF_ERROR(CheckNotDuplicate(*options, key));
    const Status bad = Status::InvalidArgument(
        "bad value '" + value + "' for option '" + key + "'");
    if (key == "seed") {
      std::optional<uint64_t> seed = util::ParseUint64(value);
      if (!seed) return bad;
      options->seed = *seed;
    } else if (key == "threads") {
      std::optional<int> threads = util::ParseNonNegativeInt(value);
      if (!threads) return bad;
      options->marioh.num_threads = *threads;
    } else {
      std::optional<double> budget = util::ParseDouble(value);
      if (!budget) return bad;
      options->time_budget_seconds = *budget;
    }
    options->applied_session_keys.push_back(key);
    return Status::Ok();
  }
  options->overrides.emplace_back(std::move(key), std::move(value));
  return Status::Ok();
}

Status Session::Configure(SessionOptions options) {
  // Reset everything so a Session can be reused for a fresh run.
  method_.reset();
  reconstruction_.reset();
  source_handle_ = {};
  target_handle_ = {};
  stage_timer_.Clear();
  clock_.reset();
  trained_ = false;
  deadline_exceeded_ = false;

  StatusOr<MethodInfo> info =
      MethodRegistry::Global().Info(options.method);
  if (!info.ok()) return info.status();

  // Thread the session's stop token into the MARIOH-family kernels via
  // the typed base options (the method factory copies them), so a trip
  // lands mid-kernel instead of waiting for the next stage gate.
  options.marioh.cancel = options.cancel;

  MethodConfig config;
  config.seed = options.seed;
  config.marioh_base = &options.marioh;
  config.overrides = options.overrides;
  StatusOr<std::unique_ptr<Reconstructor>> method =
      MethodRegistry::Global().Create(options.method, config);
  if (!method.ok()) return method.status();

  options_ = std::move(options);
  info_ = std::move(info).value();
  method_ = std::move(method).value();
  return Status::Ok();
}

const MethodInfo& Session::method_info() const {
  MARIOH_CHECK(configured());
  return info_;
}

double Session::elapsed_seconds() const {
  return clock_ ? clock_->Seconds() : 0.0;
}

Status Session::BeginStage(const std::string& stage) {
  if (!configured()) {
    return Status::FailedPrecondition(
        "session is not configured; call Configure before '" + stage +
        "'");
  }
  if (!clock_) clock_.emplace();
  if (deadline_exceeded_) {
    return Status::DeadlineExceeded(
        info_.name + ": time budget of " +
        std::to_string(options_.time_budget_seconds) +
        "s exhausted before stage '" + stage + "'");
  }
  if (options_.cancel != nullptr) {
    util::CancelReason reason = options_.cancel->reason();
    if (reason != util::CancelReason::kNone) {
      return StatusForTrip(reason, info_.name,
                           "before stage '" + stage + "'");
    }
  }
  // Stage gates double as liveness beats: a session that keeps crossing
  // stage boundaries is alive even if its kernels never poll a
  // CancelChecker (e.g. the fast baselines).
  if (options_.cancel != nullptr) options_.cancel->Beat();
  if (util::FailPoints::active()) {
    // Fault surface: a transient failure or wedge at a stage boundary
    // ("session.<stage>", e.g. "session.reconstruct"). The delay action
    // takes the session's cancel token so a watchdog Cancel cuts the
    // simulated wedge short; after the sleep the trip is re-checked so
    // the wedged stage still reports kCancelled / kDeadlineExceeded.
    util::FailAction action =
        util::FailPoints::Eval("session." + stage, options_.cancel);
    if (action == util::FailAction::kError) {
      return Status::Unavailable(info_.name + ": failpoint 'session." +
                                 stage +
                                 "': injected transient failure before "
                                 "stage '" + stage + "'");
    }
    if (options_.cancel != nullptr) {
      util::CancelReason reason = options_.cancel->reason();
      if (reason != util::CancelReason::kNone) {
        return StatusForTrip(reason, info_.name,
                             "before stage '" + stage + "'");
      }
    }
  }
  return Status::Ok();
}

void Session::EndStage(const std::string& stage, double stage_seconds) {
  stage_timer_.Add(stage, stage_seconds);
  if (obs::Enabled()) {
    obs::MetricRegistry::Global()
        .GetHistogram("marioh_stage_duration_seconds",
                      "stage=\"" + stage + "\"")
        ->Observe(stage_seconds);
    // Memory telemetry rides the stage stats (retires the ROADMAP
    // "memory-use counters" item): current and peak RSS as of the end
    // of the latest stage. Set, not Add — these are point samples.
    if (std::optional<obs::MemorySample> memory =
            obs::SampleProcessMemory()) {
      stage_timer_.Set("mem.rss_mb", static_cast<double>(memory->rss_bytes) /
                                         (1024.0 * 1024.0));
      stage_timer_.Set("mem.peak_rss_mb",
                       static_cast<double>(memory->peak_rss_bytes) /
                           (1024.0 * 1024.0));
    }
  }
  // The budget covers train + reconstruct only (not evaluation or idle
  // time between stages) and is accounted when a reconstruction
  // completes: a train stage alone never trips it (pre-empting between
  // train and reconstruct would pay for training and produce nothing).
  double budgeted_seconds = stage_timer_.Get("train") +
                            stage_timer_.Get("reconstruct");
  if (stage == "reconstruct" && options_.time_budget_seconds >= 0.0 &&
      budgeted_seconds > options_.time_budget_seconds) {
    deadline_exceeded_ = true;
    // Report how far past the budget the run landed — the overshoot a
    // stage-boundary-only check used to hide, and the number the
    // mid-kernel deadline path is asserted against.
    stage_timer_.Add("budget_overrun_seconds",
                     budgeted_seconds - options_.time_budget_seconds);
  }
}

Status Session::Train(const ProjectedGraph& g_source,
                      const Hypergraph& h_source) {
  // A supervised method learns from the source's hyperedges; with none
  // there is nothing to learn (and the classifier would refuse), so the
  // request itself is at fault.
  if (configured() && info_.supervised &&
      h_source.num_unique_edges() == 0) {
    return Status::InvalidArgument("supervised method '" + info_.name +
                                   "' needs a training source with at "
                                   "least one hyperedge");
  }
  MARIOH_RETURN_IF_ERROR(BeginStage("train"));
  obs::TraceSpan span("session.train", info_.name);
  util::Timer watch;
  trained_ = false;
  method_->Train(g_source, h_source);
  EndStage("train", watch.Seconds());
  if (util::ShouldStop(options_.cancel)) {
    // The kernels may have stopped mid-fit: the model is not trustworthy,
    // so Reconstruct keeps refusing until a Train completes.
    return StatusForTrip(options_.cancel->reason(), info_.name,
                         "during stage 'train'");
  }
  trained_ = true;
  return Status::Ok();
}

Status Session::Train(const DatasetHandle& source) {
  if (!source.has_hypergraph() || !source.has_graph()) {
    return Status::InvalidArgument(
        "dataset '" + source.name +
        "' is not a source pair (needs a hypergraph and its projection)");
  }
  source_handle_ = source;  // pin: outlives any cache eviction
  return Train(*source.graph, *source.hypergraph);
}

Status Session::Reconstruct(const ProjectedGraph& g_target) {
  if (configured() && info_.supervised && !trained_) {
    return Status::FailedPrecondition(
        "supervised method '" + info_.name +
        "' requires Train before Reconstruct");
  }
  MARIOH_RETURN_IF_ERROR(BeginStage("reconstruct"));
  obs::TraceSpan span("session.reconstruct", info_.name);
  util::Timer watch;
  Reconstruction result = method_->Reconstruct(g_target);
  reconstruction_ = std::move(result.hypergraph);
  EndStage("reconstruct", watch.Seconds());
  // Accumulate the run's counters alongside the stage times (StageTimer
  // sums per key, so like the times these are session totals), making
  // degraded runs — e.g. a truncated maximal-clique enumeration —
  // visible to callers instead of silently producing a partial result.
  for (const auto& [name, value] : result.stats) {
    stage_timer_.Add("reconstruct." + name, value);
  }
  if (util::ShouldStop(options_.cancel)) {
    // The kernels stopped at a preemption point (or the trip landed
    // moments after they finished — indistinguishable, and moot): the
    // hypergraph is not trustworthy output. Drop it and surface the trip
    // as the stage status; the stage time and `reconstruct.*` counters
    // above stay recorded so callers can see how far the run got.
    reconstruction_.reset();
    return StatusForTrip(options_.cancel->reason(), info_.name,
                         "during stage 'reconstruct'");
  }
  return Status::Ok();
}

Status Session::Reconstruct(const DatasetHandle& target) {
  if (!target.has_graph()) {
    return Status::InvalidArgument(
        "dataset '" + target.name +
        "' holds no projected graph to reconstruct from");
  }
  target_handle_ = target;  // pin: outlives any cache eviction
  return Reconstruct(*target.graph);
}

StatusOr<EvaluationResult> Session::Evaluate(
    const Hypergraph& ground_truth) {
  if (!reconstruction_) {
    return Status::FailedPrecondition(
        "nothing to evaluate: call Reconstruct first");
  }
  // Evaluation is outside the Train+Reconstruct budget (the paper's OOT
  // clock stops at reconstruction), so no BeginStage gate here.
  obs::TraceSpan span("session.evaluate", info_.name);
  util::Timer watch;
  EvaluationResult result;
  result.jaccard = eval::Jaccard(ground_truth, *reconstruction_);
  result.multi_jaccard = eval::MultiJaccard(ground_truth, *reconstruction_);
  result.reconstructed_unique_edges = reconstruction_->num_unique_edges();
  result.reconstructed_total_edges = reconstruction_->num_total_edges();
  stage_timer_.Add("evaluate", watch.Seconds());
  return result;
}

StatusOr<Hypergraph> Session::TakeReconstruction() {
  if (!reconstruction_) {
    return Status::FailedPrecondition(
        "nothing to take: call Reconstruct first");
  }
  Hypergraph out = std::move(*reconstruction_);
  reconstruction_.reset();
  return out;
}

Status Session::WriteReconstruction(const std::string& path) const {
  if (!reconstruction_) {
    return Status::FailedPrecondition(
        "nothing to write: call Reconstruct first");
  }
  return io::TryWriteHypergraphFile(*reconstruction_, path);
}

}  // namespace marioh::api
