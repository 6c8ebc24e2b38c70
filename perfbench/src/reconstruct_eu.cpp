// reconstruct_eu: one MARIOH classifier trained in set-up, then repeated
// Session::Reconstruct + Evaluate jobs (Table III setting, kernel threads
// = nproc/2) over eu targets made from the seed. The traced run adds the
// side measurements that split a job by layer:
//
//  * beside the set-up's Train: the source clique enumeration Train
//    makes, feature extraction over as many cliques as Train uses, and
//    an MLP fit of the same shape;
//  * beside every Reconstruct: a replica of Algorithm 1 driven from
//    public calls (Filtering, CsrGraph build/patch, BidirectionalSearch),
//    with extra enumerate/score calls on every iteration snapshot. The
//    replica must reproduce Session::Reconstruct's hypergraph bit for
//    bit, or its numbers are withheld.
//
// Side measurements run outside the job span, so the traced job time
// holds only the Session calls.

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "core/features.hpp"
#include "core/filtering.hpp"
#include "core/marioh.hpp"
#include "eval/harness.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using marioh::CliqueStore;
using marioh::CsrGraph;
using marioh::Hypergraph;
using marioh::NodeId;
using marioh::NodeSet;
using marioh::ProjectedGraph;
using marioh::api::Session;
using marioh::api::SessionOptions;
using marioh::api::Status;
using marioh::eval::PreparedDataset;

using NodeSetHashSet = std::unordered_set<NodeSet, marioh::util::VectorHash>;

// eu targets per run: jobs cycle over them, so a run's numbers average
// over targets instead of hanging on one.
constexpr size_t kTargets = 16;
// The classifier: trained on a fixed eu draw with a fixed session seed,
// the same in every run.
constexpr uint64_t kModelSeed = 20251016;
constexpr uint64_t kModelSessionSeed = 1;
// Repetitions of the set-up (setup_s is their median); see
// RunReconstructEu for the kernel threads each trains its session with.
constexpr int kSetups = 3;

/// One job as the caller and the Session's own stage stats see it.
struct JobOutcome {
  Status status = Status::Ok();
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// This job's share of Session::stage_timer() (stage times and the
  /// `reconstruct.*` run counters).
  std::map<std::string, double> stages;
  uint64_t hash = 0;
  marioh::api::EvaluationResult eval;
  size_t target = 0;  ///< which of the run's eu targets
};

std::map<std::string, double> Delta(const std::map<std::string, double>& after,
                                    const std::map<std::string, double>& before) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

SessionOptions MariohSession(uint64_t seed, int threads) {
  SessionOptions options;
  options.method = "MARIOH";
  options.seed = seed;
  options.marioh.num_threads = threads;
  return options;
}

/// Runs one job, Reconstruct + Evaluate of `data`, on the trained
/// `session`.
JobOutcome RunJob(Session* session, const PreparedDataset& data,
                  Tracer* tracer, uint64_t job) {
  JobOutcome out;
  const std::map<std::string, double> before =
      session->stage_timer().stages();
  const double cpu_before = ProcessCpuSeconds();
  Tracer::Span span(tracer, "job", job);
  {
    Tracer::Span reconstruct(tracer, "session.reconstruct", job);
    out.status = session->Reconstruct(data.target_input());
  }
  if (out.status.ok()) {
    Tracer::Span evaluate(tracer, "session.evaluate", job);
    marioh::api::StatusOr<marioh::api::EvaluationResult> scores =
        session->Evaluate(*data.target);
    if (scores.ok()) {
      out.eval = *scores;
    } else {
      out.status = scores.status();
    }
  }
  out.wall_s = span.End();
  out.cpu_s = ProcessCpuSeconds() - cpu_before;
  out.stages = Delta(session->stage_timer().stages(), before);
  if (out.status.ok() && session->reconstruction() != nullptr) {
    out.hash = ContentHash(*session->reconstruction());
  }
  return out;
}

double Stage(const JobOutcome& job, const std::string& key) {
  auto it = job.stages.find(key);
  return it == job.stages.end() ? 0.0 : it->second;
}

std::vector<double> StageSeries(const std::vector<JobOutcome>& jobs,
                                const std::string& key) {
  std::vector<double> out;
  for (const JobOutcome& job : jobs) out.push_back(Stage(job, key));
  return out;
}

/// Trains the classifier exactly as core::Marioh::Train does for the
/// model session, so the replica scores with the same model.
marioh::core::CliqueClassifier TrainReplicaClassifier(
    const PreparedDataset& model) {
  marioh::core::MariohOptions options;
  marioh::core::CliqueClassifier classifier(options.feature_mode,
                                            options.classifier);
  marioh::util::Rng rng(kModelSessionSeed);
  classifier.Train(*model.g_source, *model.source, &rng);
  return classifier;
}

/// Kernel threads of the timed jobs: half the cores. At nproc, every
/// fork-join kernel waits for whichever vCPU the host deschedules, and on
/// a shared 4-core machine ten seeds of job time spread up to 32%; at
/// half, interleaved runs spread ~5%.
int KernelThreads() { return std::max(1, Nproc() / 2); }

struct TrainSide {
  size_t source_cliques = 0;
  size_t examples = 0;
};

/// The three training layers, timed beside Train: the maximal-clique
/// enumeration of G_S that Train makes, FeatureExtractor::Extract on the
/// hash-map graph over as many cliques as Train used (`counts`), and an
/// MLP fit of the same shape with the default classifier options.
TrainSide MeasureTrainSide(const PreparedDataset& data,
                           std::pair<size_t, size_t> counts, Tracer* tracer) {
  TrainSide side;
  std::vector<NodeSet> maximal;
  {
    Tracer::Span span(tracer, "hypergraph.enumerate_source");
    maximal = marioh::EnumerateMaximalCliques(*data.g_source)
                  .cliques.ToNodeSets();
  }
  side.source_cliques = maximal.size();

  // Positives: source hyperedges. Negatives: maximal cliques, then
  // edges, that are not hyperedges (Train also samples sub-cliques; the
  // shape, not the exact rows, is what the fit time depends on).
  std::vector<NodeSet> positives = data.source->UniqueEdges();
  positives.resize(std::min(positives.size(), counts.first));
  NodeSetHashSet hyperedges;
  for (const auto& [edge, multiplicity] : data.source->edges()) {
    hyperedges.insert(edge);
  }
  NodeSetHashSet maximal_set(maximal.begin(), maximal.end());
  std::vector<NodeSet> negatives;
  for (const NodeSet& q : maximal) {
    if (negatives.size() >= counts.second) break;
    if (hyperedges.count(q) == 0) negatives.push_back(q);
  }
  for (const ProjectedGraph::Edge& e : data.g_source->Edges()) {
    if (negatives.size() >= counts.second) break;
    NodeSet q{e.u, e.v};
    if (hyperedges.count(q) == 0) negatives.push_back(std::move(q));
  }

  marioh::core::FeatureExtractor extractor(
      marioh::core::MariohOptions().feature_mode);
  const size_t rows = positives.size() + negatives.size();
  marioh::la::Matrix x(rows, extractor.dim());
  std::vector<double> y(rows, 0.0);
  {
    Tracer::Span span(tracer, "core.train_features");
    size_t row = 0;
    for (const auto* set : {&positives, &negatives}) {
      for (const NodeSet& q : *set) {
        marioh::la::Vector f = extractor.Extract(*data.g_source, q,
                                                 maximal_set.count(q) > 0);
        std::copy(f.begin(), f.end(), x.Row(row));
        y[row] = set == &positives ? 1.0 : 0.0;
        ++row;
      }
    }
  }
  marioh::ml::StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(&x);
  marioh::ml::MlpOptions mlp_options = marioh::core::ClassifierOptions().mlp;
  {
    Tracer::Span span(tracer, "ml.fit");
    marioh::ml::Mlp mlp(extractor.dim(), 1, mlp_options);
    mlp.Fit(x, y);
  }
  side.examples = rows;
  return side;
}

/// Algorithm 1 re-driven from public calls, mirroring
/// core::Marioh::Reconstruct at the jobs' kernel threads (filtering,
/// patch-or-rebuild snapshots, bidirectional iterations with θ decay and
/// the fallback peel). Beside every iteration it enumerates and scores
/// the frozen snapshot at 1, the jobs' and nproc threads; those spans are
/// side measurements, outside the bidir span they split. Filtering is
/// timed at 1 and nproc threads on copies of the input first.
Hypergraph Replica(const ProjectedGraph& g_target,
                   const marioh::core::CliqueClassifier& classifier,
                   Tracer* tracer, uint64_t job) {
  const marioh::core::MariohOptions options;
  const int nproc = Nproc();
  const int threads = KernelThreads();
  for (int t : {1, nproc}) {
    ProjectedGraph g = g_target;
    Hypergraph h(g.num_nodes());
    Tracer::Span span(tracer, "side.filtering.t" + std::to_string(t), job);
    marioh::core::Filtering(&g, &h, t);
  }

  ProjectedGraph g = g_target;
  Hypergraph h(g.num_nodes());
  auto refresh = [&](CsrGraph prev, std::span<const NodeId> touched) {
    if (touched.empty()) return prev;
    double fraction = static_cast<double>(touched.size()) /
                      static_cast<double>(g.num_nodes());
    if (fraction <= options.snapshot_reuse) {
      Tracer::Span span(tracer, "hypergraph.snapshot_patch", job);
      return CsrGraph(prev, g, touched, threads);
    }
    Tracer::Span span(tracer, "hypergraph.snapshot_build", job);
    return CsrGraph(g, threads);
  };

  CsrGraph snapshot;
  {
    CsrGraph pre_filter;
    marioh::core::FilteringStats stats;
    {
      Tracer::Span span(tracer, "core.filtering", job);
      stats = marioh::core::Filtering(&g, &h, threads, &pre_filter);
    }
    snapshot = refresh(std::move(pre_filter), stats.touched_nodes);
  }

  marioh::util::Rng rng(kModelSessionSeed ^ 0x9e3779b97f4a7c15ULL);
  double theta = options.theta_init;
  size_t iterations = 0;
  while (!g.Empty() && iterations < options.max_iterations) {
    for (int t : std::set<int>{1, threads, nproc}) {
      marioh::CliqueOptions copts;
      copts.num_threads = t;
      std::string suffix = ".t" + std::to_string(t);
      CliqueStore cliques;
      {
        Tracer::Span span(tracer, "side.enumerate" + suffix, job);
        cliques = marioh::EnumerateMaximalCliques(snapshot, copts).cliques;
      }
      Tracer::Span span(tracer, "side.score" + suffix, job);
      classifier.ScoreAll(snapshot, cliques, /*is_maximal=*/true, t);
    }

    marioh::core::BidirectionalOptions bopt;
    bopt.theta = theta;
    bopt.r_percent = options.r_percent;
    bopt.explore_subcliques = options.use_bidirectional;
    bopt.num_threads = threads;
    marioh::core::BidirectionalStats stats;
    {
      Tracer::Span span(tracer, "core.bidir", job);
      stats = marioh::core::BidirectionalSearch(&g, snapshot, classifier,
                                                bopt, &rng, &h);
    }
    theta = std::max(theta - options.alpha * options.theta_init, 0.0);
    ++iterations;
    std::vector<NodeId> touched = std::move(stats.touched_nodes);
    if (theta == 0.0 && stats.accepted_phase1 == 0 &&
        stats.accepted_phase2 == 0 && !g.Empty()) {
      marioh::CliqueOptions copts;
      copts.num_threads = threads;
      marioh::MaximalCliqueResult fallback =
          marioh::EnumerateMaximalCliques(snapshot, copts);
      if (fallback.cliques.empty()) break;
      NodeSet first = fallback.cliques.Materialize(0);
      h.AddEdge(first, 1);
      g.PeelClique(first);
      touched.insert(touched.end(), first.begin(), first.end());
      marioh::Canonicalize(&touched);
    }
    if (!g.Empty() && iterations < options.max_iterations) {
      snapshot = refresh(std::move(snapshot), touched);
    }
  }
  return h;
}

/// Per-job sums of span `name`, aligned with `jobs` (0 where a job has
/// no such span).
std::vector<double> JobSums(const Tracer& tracer, const std::string& name,
                            const std::vector<uint64_t>& jobs) {
  std::map<uint64_t, double> sums = tracer.SumsByJob(name);
  std::vector<double> out;
  for (uint64_t job : jobs) {
    auto it = sums.find(job);
    out.push_back(it == sums.end() ? 0.0 : it->second);
  }
  return out;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer metrics of the traced run. `train_s` are the set-ups'
/// train-stage times, `jobs` the timed jobs, `replica_jobs` the job ids
/// the replica ran beside.
void LayerMetrics(const Tracer& tracer, const std::vector<double>& train_s,
                  const TrainSide& side, const std::vector<JobOutcome>& jobs,
                  const std::vector<uint64_t>& replica_jobs,
                  bool replica_valid, Result* result) {
  const std::string tn = ".t" + std::to_string(Nproc());
  const std::string tw = ".t" + std::to_string(KernelThreads());
  result->Set("gen.prepare_s", Median(tracer.Durations("gen.prepare")));

  double train = Median(train_s);
  double enumerate_source =
      Median(tracer.Durations("hypergraph.enumerate_source"));
  double features = Median(tracer.Durations("core.train_features"));
  double fit = Median(tracer.Durations("ml.fit"));
  result->Set("core.train_s", train);
  result->Set("hypergraph.enumerate_source_s", enumerate_source);
  result->Set("hypergraph.source_cliques",
              static_cast<double>(side.source_cliques));
  result->Set("core.train_features_s", features);
  result->Set("ml.fit_s", fit);
  result->Set("ml.fit_rows_per_s",
              Ratio(static_cast<double>(side.examples) *
                        marioh::core::ClassifierOptions().mlp.epochs,
                    fit));
  result->Set("core.train_examples", static_cast<double>(side.examples));
  result->Set("core.train_other_s", train - enumerate_source - features - fit);
  // Layer accounting: the side measurements must fit inside Train,
  // within the run's own spread of Train times.
  double spread = train_s.empty()
                      ? 0.0
                      : *std::max_element(train_s.begin(), train_s.end()) -
                            *std::min_element(train_s.begin(), train_s.end());
  bool fits = enumerate_source + features + fit <= train + spread;
  result->Note("layer_accounting",
               fits ? std::string("ok")
                    : "side measurements exceed core.train_s by " +
                          FormatNumber(enumerate_source + features + fit -
                                       train) + " s");

  result->Set("core.reconstruct_s", Median(StageSeries(jobs, "reconstruct")));
  result->Set("eval.evaluate_s", Median(StageSeries(jobs, "evaluate")));

  result->Set("core.filtering_edges",
              Median(StageSeries(jobs, "reconstruct.filtering_edges")));
  result->Set("hypergraph.maximal_cliques",
              Median(StageSeries(jobs, "reconstruct.maximal_cliques")));
  result->Set("core.iterations",
              Median(StageSeries(jobs, "reconstruct.iterations")));
  result->Set("core.subcliques_scored",
              Median(StageSeries(jobs, "reconstruct.subcliques_scored")));
  std::vector<double> accept, patch_ratio;
  for (const JobOutcome& job : jobs) {
    accept.push_back(Ratio(Stage(job, "reconstruct.accepted_phase1") +
                               Stage(job, "reconstruct.accepted_phase2"),
                           Stage(job, "reconstruct.maximal_cliques") +
                               Stage(job, "reconstruct.subcliques_scored")));
    double patches = Stage(job, "reconstruct.snapshot_patches");
    patch_ratio.push_back(
        Ratio(patches, patches + Stage(job, "reconstruct.snapshot_rebuilds")));
  }
  result->Set("core.accept_ratio", Median(accept));
  result->Set("hypergraph.snapshot_patch_ratio", Median(patch_ratio));

  // Replica split of Reconstruct; withheld (0) when the replica did not
  // reproduce the Session's output.
  std::vector<double> filtering =
      JobSums(tracer, "core.filtering", replica_jobs);
  std::vector<double> build =
      JobSums(tracer, "hypergraph.snapshot_build", replica_jobs);
  std::vector<double> patch =
      JobSums(tracer, "hypergraph.snapshot_patch", replica_jobs);
  std::vector<double> bidir = JobSums(tracer, "core.bidir", replica_jobs);
  std::vector<double> enumerate =
      JobSums(tracer, "side.enumerate" + tw, replica_jobs);
  std::vector<double> score = JobSums(tracer, "side.score" + tw, replica_jobs);
  std::vector<double> peel;
  for (size_t i = 0; i < bidir.size(); ++i) {
    peel.push_back(bidir[i] - enumerate[i] - score[i]);
  }
  double v = replica_valid ? 1.0 : 0.0;
  result->Set("trace.replica_valid", v);
  result->Set("core.filtering_s", v * Median(filtering));
  result->Set("hypergraph.snapshot_build_s", v * Median(build));
  result->Set("hypergraph.snapshot_patch_s", v * Median(patch));
  result->Set("hypergraph.enumerate_s", v * Median(enumerate));
  result->Set("core.score_s", v * Median(score));
  result->Set("core.bidir_s", v * Median(bidir));
  result->Set("core.peel_explore_s", v * Median(peel));
  auto speedup = [&](const std::string& name) {
    return v * Ratio(Sum(tracer.Durations(name + ".t1")),
                     Sum(tracer.Durations(name + tn)));
  };
  result->Set("hypergraph.enumerate_speedup", speedup("side.enumerate"));
  result->Set("core.score_speedup", speedup("side.score"));
  result->Set("core.filtering_speedup", speedup("side.filtering"));
  result->Set("trace.job_s_p50", Median(tracer.Durations("job")));
  result->Set("job_s_p95", Quantile(tracer.Durations("job"), 0.95));
}

/// End-to-end metrics of a timed phase of `timed_s` seconds. Host slow
/// phases only ever add time, so a target's time and CPU are its fastest
/// job's, and job_s_p50 and cpu_s_per_job are medians of those over the
/// run's targets. jobs_per_s is jobs over the timed phase's wall time,
/// the work between jobs included. Quality is the mean over the run's
/// targets of each target's (deterministic) score, so it does not depend
/// on how often the clock let each target run.
void EndToEnd(const std::vector<JobOutcome>& jobs, double timed_s,
              Result* result) {
  std::map<size_t, double> fastest_s, fastest_cpu_s;
  std::map<size_t, marioh::api::EvaluationResult> per_target;
  for (const JobOutcome& job : jobs) {
    auto [wall, fresh] = fastest_s.emplace(job.target, job.wall_s);
    if (!fresh) wall->second = std::min(wall->second, job.wall_s);
    auto [cpu, fresh_cpu] = fastest_cpu_s.emplace(job.target, job.cpu_s);
    if (!fresh_cpu) cpu->second = std::min(cpu->second, job.cpu_s);
    per_target[job.target] = job.eval;
  }
  std::vector<double> job_s, cpu_s;
  for (const auto& [target, s] : fastest_s) job_s.push_back(s);
  for (const auto& [target, s] : fastest_cpu_s) cpu_s.push_back(s);
  double jaccard = 0.0, multi = 0.0;
  std::string by_target;
  for (const auto& [target, eval] : per_target) {
    jaccard += eval.jaccard;
    multi += eval.multi_jaccard;
    by_target += (by_target.empty() ? "" : " ") + FormatNumber(eval.jaccard);
  }
  const double targets = static_cast<double>(per_target.size());
  result->Set("job_s_p50", Median(job_s));
  result->Set("jobs_per_s", Ratio(static_cast<double>(jobs.size()), timed_s));
  result->Set("cpu_s_per_job", Median(cpu_s));
  result->Set("peak_rss_mb", PeakRssMb());
  result->Set("jaccard", Ratio(jaccard, targets));
  result->Set("multi_jaccard", Ratio(multi, targets));
  result->Note("jobs", static_cast<double>(jobs.size()));
  result->Note("jaccard_by_target", by_target);
  std::string all;
  for (double s : job_s) all += (all.empty() ? "" : " ") + FormatNumber(s);
  result->Note("fastest_job_s_by_target", all);
}

/// Folds one finished job into the run: counts it, and fails it when
/// its status is not OK or its output differs from the first output of
/// its target in this run (`first_hash`; every job of a target computes
/// the same reconstruction).
void Account(const JobOutcome& job, std::map<size_t, uint64_t>* first_hash,
             Result* result) {
  ++result->attempted;
  std::string failure;
  if (!job.status.ok()) {
    failure = "job failed: " + job.status.message();
  } else if (auto [it, fresh] = first_hash->emplace(job.target, job.hash);
             !fresh && it->second != job.hash) {
    failure = "determinism gate: target " + std::to_string(job.target) +
              " reconstructed differently than earlier in the run";
  }
  if (!failure.empty()) {
    ++result->failed;
    result->Fail(failure);
  }
}

/// The timed phase ends at the deadline once every target ran, or after
/// --max-jobs jobs.
bool Done(const Args& args, double deadline, size_t jobs) {
  if (args.max_jobs > 0) return jobs >= args.max_jobs;
  return jobs >= kTargets && Now() >= deadline;
}

/// Prepares `count` eu datasets (Table III setting: multiplicities
/// kept) from consecutive sub-seeds of `seed`.
bool PrepareEu(uint64_t seed, size_t count, Tracer* tracer,
               std::vector<PreparedDataset>* out, Result* result) {
  out->clear();
  for (size_t d = 0; d < count; ++d) {
    Tracer::Span span(tracer, "gen.prepare");
    marioh::api::StatusOr<PreparedDataset> prepared =
        marioh::eval::TryPrepareDataset("eu", /*multiplicity_reduced=*/false,
                                        SubSeed(seed, 100 + d));
    if (!prepared.ok()) {
      result->Fail("set-up: " + prepared.status().message());
      return false;
    }
    out->push_back(std::move(prepared).value());
  }
  return true;
}

}  // namespace

void RunReconstructEu(const Args& args, Tracer* tracer, Result* result) {
  const int nproc = Nproc();
  // Set-up = prepare the model draw and the run's targets (Table III
  // setting), then Train one session on the model draw's source half;
  // repeated, setup_s is their median. The model draw and its session seed
  // are fixed, so every run serves the same classifier and runs differ
  // only in the targets they reconstruct (a classifier trained on a
  // seed-driven draw made its quality dominate the run-to-run spread).
  // The set-ups train sessions with 1, nproc and the jobs' kernel
  // threads: training runs no kernel in parallel, so every set-up does
  // the same work, and the first two serve the thread-invariance gate.
  // The last one runs the timed jobs.
  const std::array<int, kSetups> threads = {1, nproc, KernelThreads()};
  std::array<Session, kSetups> sessions;
  Session& session = sessions.back();
  std::vector<double> setups, train_s;
  std::vector<PreparedDataset> model, data;
  for (int i = 0; i < kSetups; ++i) {
    Tracer::Span span(tracer, "setup");
    if (!PrepareEu(kModelSeed, 1, tracer, &model, result) ||
        !PrepareEu(args.seed, kTargets, tracer, &data, result)) {
      return;
    }
    Status status =
        sessions[i].Configure(MariohSession(kModelSessionSeed, threads[i]));
    if (status.ok()) {
      Tracer::Span train(tracer, "session.train");
      status = sessions[i].Train(model[0].train());
    }
    if (!status.ok()) {
      result->Fail("set-up: " + status.message());
      return;
    }
    setups.push_back(span.End());
    train_s.push_back(sessions[i].stage_timer().Get("train"));
  }

  // Thread-invariance gate, once per run and outside the timed phase:
  // the three sessions must reconstruct the first target identically;
  // the jobs' output anchors the determinism gate.
  Tracer untraced(false);
  std::vector<JobOutcome> gate;
  for (Session& s : sessions) gate.push_back(RunJob(&s, data[0], &untraced, 0));
  ++result->attempted;
  for (size_t i = 0; i < gate.size(); ++i) {
    if (!gate[i].status.ok() || gate[i].hash != gate.back().hash) {
      ++result->failed;
      result->Fail("thread-invariance gate: the " +
                   std::to_string(threads[i]) +
                   "-thread reconstruction differs from the " +
                   std::to_string(threads.back()) + "-thread one");
      break;
    }
  }
  std::map<size_t, uint64_t> first_hash = {{0, gate.back().hash}};
  // Only the jobs' session stays. With the gate sessions freed and
  // returned to the system, peak_rss_mb counts from here: the held
  // model and targets plus what the jobs themselves allocate.
  for (int i = 0; i + 1 < kSetups; ++i) sessions[i] = Session();
  ReleaseFreeMemory();
  if (!ResetPeakRss("self")) result->Note("peak_rss_reset", "unavailable");

  std::optional<marioh::core::CliqueClassifier> classifier;
  TrainSide side;
  if (tracer->enabled()) {
    classifier = TrainReplicaClassifier(model[0]);
    side = MeasureTrainSide(model[0], classifier->train_counts(), tracer);
  }

  std::vector<JobOutcome> jobs;
  std::vector<uint64_t> replica_jobs;
  bool replica_valid = true;
  const double start = Now();
  const double deadline = start + args.seconds;
  do {
    const uint64_t id = jobs.size() + 1;
    const size_t d = jobs.size() % data.size();
    jobs.push_back(RunJob(&session, data[d], tracer, id));
    jobs.back().target = d;
    Account(jobs.back(), &first_hash, result);
    if (tracer->enabled() && jobs.back().status.ok()) {
      Hypergraph replica = Replica(*data[d].g_target, *classifier, tracer, id);
      replica_valid &= ContentHash(replica) == jobs.back().hash;
      replica_jobs.push_back(id);
    }
  } while (!Done(args, deadline, jobs.size()));
  const double timed_s = Now() - start;

  result->Set("setup_s", Median(setups));
  if (tracer->enabled()) {
    LayerMetrics(*tracer, train_s, side, jobs, replica_jobs, replica_valid,
                 result);
  } else {
    EndToEnd(jobs, timed_s, result);
  }
}

}  // namespace perfbench
