#include "eval/harness.hpp"

#include <cmath>
#include <utility>

#include "gen/split.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace marioh::eval {

api::StatusOr<PreparedDataset> TryPrepareDataset(
    const std::string& profile_name, bool multiplicity_reduced,
    uint64_t seed, SplitMode split_mode) {
  api::StatusOr<gen::DomainProfile> profile =
      gen::TryProfileByName(profile_name);
  if (!profile.ok()) return profile.status();
  gen::GeneratedDataset data = gen::Generate(*profile, seed);
  Hypergraph h = multiplicity_reduced
                     ? data.hypergraph.MultiplicityReduced()
                     : data.hypergraph;
  util::Rng rng(seed ^ 0x5555aaaaULL);
  gen::SourceTargetSplit split;
  if (split_mode == SplitMode::kTemporal) {
    std::vector<gen::TimedHyperedge> events =
        gen::AttachTimestamps(h, &rng);
    split = gen::SplitByTime(events, 0.5, h.num_nodes());
  } else {
    split = gen::SplitHypergraph(h, &rng, 0.5);
  }
  PreparedDataset out;
  out.name = profile_name;
  out.g_source =
      std::make_shared<const ProjectedGraph>(split.source.Project());
  out.g_target =
      std::make_shared<const ProjectedGraph>(split.target.Project());
  out.source = std::make_shared<const Hypergraph>(std::move(split.source));
  out.target = std::make_shared<const Hypergraph>(std::move(split.target));
  out.labels = std::move(data.labels);
  out.num_classes = data.num_classes;
  return out;
}

PreparedDataset PrepareDataset(const std::string& profile_name,
                               bool multiplicity_reduced, uint64_t seed,
                               SplitMode split_mode) {
  return api::ValueOrDie(
      TryPrepareDataset(profile_name, multiplicity_reduced, seed,
                        split_mode),
      __FILE__, __LINE__);
}

bool OutOfTime(const api::Session& session, double budget_seconds) {
  return budget_seconds >= 0.0 &&
         session.stage_timer().Get("train") +
                 session.stage_timer().Get("reconstruct") >
             budget_seconds;
}

namespace {

using PrepFn = std::function<api::StatusOr<PreparedDataset>(uint64_t)>;

api::StatusOr<AccuracyResult> RunPair(const std::string& method_name,
                                      const std::string& dataset_label,
                                      const PrepFn& prep,
                                      const AccuracyOptions& options) {
  // Validate the method name before paying for dataset generation.
  api::StatusOr<api::MethodInfo> info =
      api::MethodRegistry::Global().Info(method_name);
  if (!info.ok()) return info.status();

  AccuracyResult result;
  result.method = method_name;
  result.dataset = dataset_label;
  util::RunningStats acc_stats;
  util::RunningStats time_stats;

  for (int s = 0; s < options.num_seeds; ++s) {
    uint64_t seed = options.base_seed + static_cast<uint64_t>(s) * 7919;
    api::StatusOr<PreparedDataset> data = prep(seed);
    if (!data.ok()) return data.status();

    api::SessionOptions session_options;
    session_options.method = method_name;
    session_options.seed = seed;
    session_options.marioh = options.marioh_base;
    api::Session session;
    MARIOH_RETURN_IF_ERROR(session.Configure(std::move(session_options)));

    MARIOH_RETURN_IF_ERROR(session.Train(data->train()));
    MARIOH_RETURN_IF_ERROR(session.Reconstruct(data->target_input()));
    time_stats.Add(session.stage_timer().Get("train") +
                   session.stage_timer().Get("reconstruct"));

    api::StatusOr<api::EvaluationResult> scores =
        session.Evaluate(*data->target);
    if (!scores.ok()) return scores.status();
    double score = options.multiplicity_reduced ? scores->jaccard
                                                : scores->multi_jaccard;
    acc_stats.Add(100.0 * score);

    if (OutOfTime(session, options.time_budget_seconds)) {
      result.out_of_time = true;
      break;  // OOT: the overrunning seed still scored, later seeds don't
    }
  }
  result.mean = acc_stats.Mean();
  result.std_dev = acc_stats.Std();
  result.mean_seconds = time_stats.Mean();
  result.seeds = static_cast<int>(acc_stats.count());
  return result;
}

}  // namespace

api::StatusOr<AccuracyResult> TryRunAccuracy(
    const std::string& method_name, const std::string& profile_name,
    const AccuracyOptions& options) {
  return RunPair(
      method_name, profile_name,
      [&](uint64_t seed) {
        return TryPrepareDataset(profile_name,
                                 options.multiplicity_reduced, seed);
      },
      options);
}

AccuracyResult RunAccuracy(const std::string& method_name,
                           const std::string& profile_name,
                           const AccuracyOptions& options) {
  return api::ValueOrDie(
      TryRunAccuracy(method_name, profile_name, options), __FILE__,
      __LINE__);
}

AccuracyResult RunTransfer(const std::string& method_name,
                           const std::string& source_profile,
                           const std::string& target_profile,
                           const AccuracyOptions& options) {
  api::StatusOr<AccuracyResult> result = RunPair(
      method_name, source_profile + "->" + target_profile,
      [&](uint64_t seed) -> api::StatusOr<PreparedDataset> {
        api::StatusOr<PreparedDataset> src = TryPrepareDataset(
            source_profile, options.multiplicity_reduced, seed);
        if (!src.ok()) return src.status();
        api::StatusOr<PreparedDataset> dst = TryPrepareDataset(
            target_profile, options.multiplicity_reduced,
            seed ^ 0xbeefULL);
        if (!dst.ok()) return dst.status();
        PreparedDataset out;
        out.name = source_profile + "->" + target_profile;
        out.source = std::move(src->source);
        out.g_source = std::move(src->g_source);
        out.target = std::move(dst->target);
        out.g_target = std::move(dst->g_target);
        return out;
      },
      options);
  return api::ValueOrDie(std::move(result), __FILE__, __LINE__);
}

}  // namespace marioh::eval
