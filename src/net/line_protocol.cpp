#include "net/line_protocol.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/request.hpp"
#include "eval/harness.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/parse.hpp"

namespace marioh::net {

namespace {

using api::DatasetHandle;
using api::JobId;
using api::JobSnapshot;
using api::ReconstructRequest;
using api::Status;
using api::StatusOr;

std::string FormatDataset(const DatasetHandle& dataset) {
  std::ostringstream out;
  out << "ok dataset " << dataset.name;
  if (dataset.has_hypergraph()) {
    out << " hypergraph_nodes=" << dataset.hypergraph->num_nodes()
        << " hyperedges=" << dataset.hypergraph->num_unique_edges();
  }
  if (dataset.has_graph()) {
    out << " graph_nodes=" << dataset.graph->num_nodes()
        << " graph_edges=" << dataset.graph->num_edges();
  }
  out << "\n";
  return out.str();
}

/// A verb with a fixed operand count: a line with fewer or more operands
/// gets `usage` back and has no effect. `submit` and `failpoints` read
/// the rest of the line instead and are not listed.
struct FixedArityVerb {
  const char* verb;
  size_t min_operands;
  size_t max_operands;
  const char* usage;
};

constexpr FixedArityVerb kFixedArityVerbs[] = {
    {"load", 3, 3, "load <hypergraph|graph> <name> <path>"},
    {"gen", 2, 3, "gen <name> <profile> [seed]"},
    {"datasets", 0, 0, "datasets"},
    {"methods", 0, 0, "methods"},
    {"poll", 1, 1, "poll <job-id>"},
    {"wait", 1, 1, "wait <job-id>"},
    {"cancel", 1, 1, "cancel <job-id>"},
    {"forget", 1, 1, "forget <job-id>"},
    {"metrics", 0, 1, "metrics [json]"},
    {"quit", 0, 0, "quit"},
};

}  // namespace

api::Status GenerateDataset(api::DatasetCache* cache,
                            const std::string& basename,
                            const std::string& profile, uint64_t seed) {
  // All three names must be free up front so a conflict cannot leave a
  // partially inserted triple behind.
  for (const char* suffix : {".train", ".target", ".truth"}) {
    if (cache->Contains(basename + suffix)) {
      return Status::AlreadyExists("dataset '" + basename + suffix +
                                   "' is already loaded");
    }
  }
  StatusOr<eval::PreparedDataset> data =
      eval::TryPrepareDataset(profile, /*multiplicity_reduced=*/true, seed);
  if (!data.ok()) return data.status();
  // The names were pre-checked and each front end serves its protocol
  // from one thread, so the inserts cannot conflict.
  StatusOr<DatasetHandle> train =
      cache->Insert(basename + ".train", data->source, data->g_source);
  StatusOr<DatasetHandle> target =
      cache->Insert(basename + ".target", nullptr, data->g_target);
  StatusOr<DatasetHandle> truth =
      cache->Insert(basename + ".truth", data->target, nullptr);
  for (const auto* inserted : {&train, &target, &truth}) {
    if (!inserted->ok()) return inserted->status();
  }
  // The triple is restorable from (profile, seed) alone — record the
  // recipe so a manifest-enabled cache can re-create it after a crash.
  cache->RecordGenerated(basename, profile, seed);
  return Status::Ok();
}

std::optional<Status> ParseServiceFlag(const std::string& flag,
                                       const std::string& value,
                                       api::ServiceOptions* options) {
  if (flag == "--workers") {
    std::optional<int> workers = util::ParseNonNegativeInt(value);
    if (!workers.has_value() || *workers > kMaxServiceWorkers) {
      return Status::InvalidArgument(
          "--workers needs a non-negative integer (0 = all cores) of at "
          "most " + std::to_string(kMaxServiceWorkers));
    }
    options->num_workers = *workers;
  } else if (flag == "--journal-dir") {
    options->journal_dir = value;
  } else if (flag == "--fsync") {
    if (!util::ParseJournalFsync(value, &options->journal_fsync)) {
      return Status::InvalidArgument("--fsync needs 'always' or 'never'");
    }
  } else {
    return std::nullopt;
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<api::Service>> StartService(
    const std::shared_ptr<api::DatasetCache>& cache,
    const api::ServiceOptions& options, std::ostream& warnings) {
  if (!options.journal_dir.empty()) {
    // The manifest writes into the directory before Journal::Open (in
    // the Service constructor) would create it.
    ::mkdir(options.journal_dir.c_str(), 0755);
    std::string manifest = options.journal_dir + "/datasets.manifest";
    Status restored = cache->RestoreFromManifest(
        manifest, [&cache](const std::string& basename,
                           const std::string& profile, uint64_t seed) {
          return GenerateDataset(cache.get(), basename, profile, seed);
        });
    if (!restored.ok()) warnings << "warning: " << restored.message() << "\n";
    MARIOH_RETURN_IF_ERROR(cache->EnableManifest(manifest));
  }
  auto service = std::make_unique<api::Service>(cache, options);
  if (!service->startup_status().ok()) return service->startup_status();
  return service;
}

LineProtocol::LineProtocol(api::DatasetCache* cache, api::Service* service)
    : cache_(cache), service_(service) {}

void LineProtocol::set_default_client(std::string client_id) {
  default_client_ = std::move(client_id);
}

std::string LineProtocol::FormatError(const Status& status) {
  return "error " + std::string(api::StatusCodeName(status.code())) + ": " +
         status.message() + "\n";
}

std::string LineProtocol::FormatJob(const JobSnapshot& job) const {
  std::ostringstream out;
  out << "ok job " << job.id << " state=" << api::JobStateName(job.state)
      << " method=" << job.method << " target=" << job.target_dataset;
  if (job.terminal()) {
    if (!job.status.ok()) {
      out << " status=" << api::StatusCodeName(job.status.code());
    }
    // Only jobs that actually retried report the field, so responses on
    // a no-retry server stay byte-identical to the pre-retry protocol.
    if (job.attempts > 1) out << " attempts=" << job.attempts;
    if (job.cancel_latency_seconds >= 0.0) {
      out << " cancel_latency=" << job.cancel_latency_seconds;
    }
    if (job.reconstruction != nullptr) {
      out << " unique_edges=" << job.reconstruction->num_unique_edges()
          << " total_edges=" << job.reconstruction->num_total_edges();
    }
    if (job.evaluation.has_value()) {
      out << " jaccard=" << job.evaluation->jaccard
          << " multi_jaccard=" << job.evaluation->multi_jaccard;
    }
    auto train = job.stage_stats.find("train");
    auto reconstruct = job.stage_stats.find("reconstruct");
    double seconds =
        (train != job.stage_stats.end() ? train->second : 0.0) +
        (reconstruct != job.stage_stats.end() ? reconstruct->second : 0.0);
    out << " seconds=" << seconds;
    if (!job.status.ok()) {
      out << " message=\"" << job.status.message() << "\"";
    }
  }
  out << "\n";
  return out.str();
}

std::string LineProtocol::FormatMetrics() {
  std::string text = obs::MetricRegistry::Global().PrometheusText();
  size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  return "ok metrics lines=" + std::to_string(lines) + "\n" + text;
}

/// `load <hypergraph|graph> <name> <path>`
std::string LineProtocol::HandleLoad(
    const std::vector<std::string>& operands) const {
  const std::string& kind = operands[0];
  const std::string& name = operands[1];
  const std::string& path = operands[2];
  StatusOr<DatasetHandle> dataset =
      kind == "hypergraph" ? cache_->LoadHypergraphFile(name, path)
      : kind == "graph"    ? cache_->LoadProjectedGraphFile(name, path)
                           : Status::InvalidArgument(
                                 "unknown dataset kind '" + kind +
                                 "' (expected hypergraph or graph)");
  if (!dataset.ok()) return FormatError(dataset.status());
  return FormatDataset(*dataset);
}

/// `gen <name> <profile> <seed>`: the multi-user benchmark workflow
/// without files — prepares a dataset exactly as the evaluation harness
/// does (generate, multiplicity-reduce, split, project) and shares the
/// halves through the cache as <name>.train / <name>.target /
/// <name>.truth.
std::string LineProtocol::HandleGen(
    const std::vector<std::string>& operands) const {
  const std::string& name = operands[0];
  const std::string& profile_name = operands[1];
  uint64_t seed = 1;
  if (operands.size() == 3) {
    std::optional<uint64_t> parsed = util::ParseUint64(operands[2]);
    if (!parsed.has_value()) {
      return FormatError(
          Status::InvalidArgument("bad seed '" + operands[2] + "'"));
    }
    seed = *parsed;
  }
  Status generated = GenerateDataset(cache_, name, profile_name, seed);
  if (!generated.ok()) return FormatError(generated);
  return "ok generated " + name + ".train " + name + ".target " + name +
         ".truth\n";
}

/// `submit key=value ...` — the grammar lives in
/// api::ParseReconstructRequest, shared with the write-ahead journal's
/// accept records so the two formats cannot drift.
LineProtocol::Result LineProtocol::HandleSubmit(std::istream& args) const {
  ReconstructRequest request;
  request.client_id = default_client_;
  std::string rest;
  std::getline(args, rest);
  Status parsed = api::ParseReconstructRequest(rest, &request);
  if (!parsed.ok()) return {FormatError(parsed), false, std::nullopt};
  StatusOr<JobId> id = service_->Submit(request);
  if (!id.ok()) return {FormatError(id.status()), false, std::nullopt};
  return {"ok job " + std::to_string(*id) + "\n", false, std::nullopt};
}

LineProtocol::Result LineProtocol::Handle(const std::string& line) {
  std::istringstream args(line);
  std::string verb;
  args >> verb;
  if (verb.empty() || verb[0] == '#') return {};  // blank / comment
  if (verb == "submit") return HandleSubmit(args);
  if (verb == "failpoints") {
    // Chaos administration: reconfigure the process-wide failpoint
    // registry mid-run so a soak can rotate fault schedules over one
    // long-lived daemon. Gated — see set_allow_failpoint_admin.
    if (!allow_failpoint_admin_) {
      return {FormatError(Status::FailedPrecondition(
                  "failpoint administration is disabled; start the "
                  "server with --allow-failpoint-admin")),
              false, std::nullopt};
    }
    std::string spec;
    std::getline(args, spec);
    size_t start = spec.find_first_not_of(" \t");
    spec = start == std::string::npos ? "" : spec.substr(start);
    if (spec.empty()) {
      // No argument: report the active configuration and hit counts.
      std::string response =
          "ok failpoints total_hits=" +
          std::to_string(util::FailPoints::TotalHits());
      for (const std::string& line : util::FailPoints::Describe()) {
        response += " " + line;
      }
      return {response + "\n", false, std::nullopt};
    }
    std::string error;
    if (!util::FailPoints::ConfigureList(spec, &error)) {
      return {FormatError(Status::InvalidArgument(error)), false,
              std::nullopt};
    }
    return {"ok failpoints " + spec + "\n", false, std::nullopt};
  }

  const FixedArityVerb* fixed = nullptr;
  for (const FixedArityVerb& candidate : kFixedArityVerbs) {
    if (verb == candidate.verb) fixed = &candidate;
  }
  if (fixed == nullptr) {
    return {FormatError(Status::InvalidArgument(
                "unknown request '" + verb +
                "' (load gen datasets methods submit poll wait cancel "
                "forget metrics failpoints quit)")),
            false, std::nullopt};
  }
  const std::vector<std::string> operands{
      std::istream_iterator<std::string>(args),
      std::istream_iterator<std::string>()};
  auto usage = [fixed]() -> Result {
    return {FormatError(Status::InvalidArgument(std::string("usage: ") +
                                                fixed->usage)),
            false, std::nullopt};
  };
  if (operands.size() < fixed->min_operands ||
      operands.size() > fixed->max_operands) {
    return usage();
  }

  if (verb == "quit") return {"ok bye\n", /*quit=*/true, std::nullopt};
  if (verb == "load") return {HandleLoad(operands), false, std::nullopt};
  if (verb == "gen") return {HandleGen(operands), false, std::nullopt};
  if (verb == "datasets") {
    std::string response = "ok datasets";
    for (const std::string& name : cache_->Names()) response += " " + name;
    return {response + "\n", false, std::nullopt};
  }
  if (verb == "methods") {
    std::string response = "ok methods";
    for (const std::string& name :
         api::MethodRegistry::Global().Names()) {
      response += " " + name;
    }
    return {response + "\n", false, std::nullopt};
  }
  if (verb == "metrics") {
    if (operands.empty()) return {FormatMetrics(), false, std::nullopt};
    if (operands[0] != "json") return usage();
    return {"ok metrics-json " +
                obs::MetricRegistry::Global().SnapshotJson() + "\n",
            false, std::nullopt};
  }

  // poll / wait / cancel / forget <job-id>
  std::optional<uint64_t> id = util::ParseUint64(operands[0]);
  if (!id.has_value()) return usage();
  if (verb == "poll") {
    StatusOr<JobSnapshot> job = service_->Poll(*id);
    if (!job.ok()) return {FormatError(job.status()), false, std::nullopt};
    return {FormatJob(*job), false, std::nullopt};
  }
  if (verb == "wait") {
    // Deferred: never block a serving loop here. A terminal job
    // resolves immediately; anything else is the caller's IOU.
    StatusOr<JobSnapshot> job = service_->Poll(*id);
    if (!job.ok()) return {FormatError(job.status()), false, std::nullopt};
    if (job->terminal()) return {FormatJob(*job), false, std::nullopt};
    return {"", false, *id};
  }
  Status status =
      verb == "cancel" ? service_->Cancel(*id) : service_->Forget(*id);
  if (!status.ok()) return {FormatError(status), false, std::nullopt};
  return {"ok " + verb + " " + std::to_string(*id) + "\n", false,
          std::nullopt};
}

}  // namespace marioh::net
