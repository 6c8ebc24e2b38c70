// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload reconstruct_eu|serve_light
//                    --seed N --seconds S --trace 0|1
//                    [--max-jobs N] [--served PATH] [--work-dir DIR]
//                    [--commit SHA]
//
// stdout ends with two lines: `perfbench-meta {...}` (machine metadata,
// the drift-control timing, sample counts and gate outcomes) and the
// result object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set; both sets are declared in BENCHMARK.json. Exits 1 when
// any correctness gate fails, 2 on bad arguments.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "gen/profiles.hpp"
#include "hypergraph/clique.hpp"
#include "trace.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; perfbench/selfcheck.py keeps the two in sync.
const std::vector<Declared> kEndToEnd = {
    {"setup_s", "s"},          {"job_s_p50", "s"},
    {"jobs_per_s", "1/s"},     {"cpu_s_per_job", "s"},
    {"peak_rss_mb", "MiB"},    {"jaccard", "ratio"},
    {"multi_jaccard", "ratio"},
};

const std::vector<Declared> kPerLayer = {
    {"gen.prepare_s", "s"},
    {"core.train_s", "s"},
    {"hypergraph.enumerate_source_s", "s"},
    {"hypergraph.source_cliques", "count"},
    {"core.train_features_s", "s"},
    {"ml.fit_s", "s"},
    {"ml.fit_rows_per_s", "1/s"},
    {"core.train_examples", "count"},
    {"core.train_other_s", "s"},
    {"core.reconstruct_s", "s"},
    {"eval.evaluate_s", "s"},
    {"core.filtering_s", "s"},
    {"core.filtering_edges", "count"},
    {"hypergraph.snapshot_build_s", "s"},
    {"hypergraph.snapshot_patch_s", "s"},
    {"hypergraph.snapshot_patch_ratio", "ratio"},
    {"hypergraph.enumerate_s", "s"},
    {"hypergraph.maximal_cliques", "count"},
    {"core.score_s", "s"},
    {"core.bidir_s", "s"},
    {"core.peel_explore_s", "s"},
    {"core.iterations", "count"},
    {"core.subcliques_scored", "count"},
    {"core.accept_ratio", "ratio"},
    {"hypergraph.enumerate_speedup", "ratio"},
    {"core.score_speedup", "ratio"},
    {"core.filtering_speedup", "ratio"},
    {"net.submit_rtt_s", "s"},
    {"net.poll_rtt_s", "s"},
    {"net.wait_overhang_s", "s"},
    {"api.queue_wait_s", "s"},
    {"api.run_s", "s"},
    {"util.journal_fsync_s", "s"},
    {"util.journal_fsyncs_per_job", "count"},
    {"net.lines_per_job", "count"},
    {"trace.job_s_p50", "s"},
    {"job_s_p95", "s"},
    {"trace.replica_valid", "count"},
    {"drift.reference_cliques_s", "s"},
};

int Usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem
            << "\nusage: perfbench_driver --workload "
               "reconstruct_eu|serve_light --seed N --seconds S "
               "--trace 0|1 [--max-jobs N] [--served PATH] [--work-dir DIR] "
               "[--commit SHA]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* problem) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *problem = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" || flag == "--max-jobs") {
      std::optional<uint64_t> n = marioh::util::ParseUint64(value);
      if (!n.has_value()) {
        *problem = "bad " + flag + " '" + value + "'";
        return false;
      }
      if (flag == "--seed") {
        args->seed = *n;
      } else {
        args->max_jobs = *n;
      }
    } else if (flag == "--seconds") {
      std::optional<double> s = marioh::util::ParseDouble(value);
      if (!s.has_value() || *s <= 0.0) {
        *problem = "bad --seconds '" + value + "'";
        return false;
      }
      args->seconds = *s;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *problem = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--served") {
      args->served = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      *problem = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *problem = "--workload is required";
    return false;
  }
  return true;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Drift control: the unchanged sequential hash-map reference
/// enumerator on a fixed graph that no workload seed touches. Its time
/// moves only when the machine does, so it flags cross-session
/// comparisons made on a machine in a different state.
double DriftControlSeconds() {
  marioh::ProjectedGraph g =
      marioh::gen::Generate(marioh::gen::ProfileByName("eu"), 20261016)
          .hypergraph.Project();
  std::vector<double> times;
  size_t cliques = 0;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = Now();
    cliques += marioh::MaximalCliquesHashMapReference(g).size();
    times.push_back(Now() - t0);
  }
  return cliques > 0 ? Median(times) : 0.0;
}

std::string MetaLine(const Args& args, const Result& result, double drift) {
  std::string out = "{\"workload\":\"" + JsonEscape(args.workload) +
                    "\",\"seed\":" + std::to_string(args.seed) +
                    ",\"seconds\":" + FormatNumber(args.seconds) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"nproc\":" + std::to_string(Nproc()) +
                    ",\"cpu_model\":\"" + JsonEscape(CpuModel()) +
                    "\",\"compiler\":\"" PERFBENCH_COMPILER
                    "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
                    "\",\"commit\":\"" + JsonEscape(args.commit) +
                    "\",\"drift_reference_cliques_s\":" + FormatNumber(drift);
  for (const auto& [key, value] : result.notes) {
    out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  out += ",\"failures\":[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(result.failures[i]) + "\"";
  }
  return out + "]}";
}

std::string ResultLine(const Args& args, Result* result) {
  const std::vector<Declared>& declared = args.trace ? kPerLayer : kEndToEnd;
  std::string not_crossed;
  std::string metrics;
  for (const Declared& d : declared) {
    auto it = result->metrics.find(d.name);
    double value = 0.0;
    if (it != result->metrics.end()) {
      value = it->second;
    } else if (args.trace) {
      // A layer this workload never crosses did no work in it.
      not_crossed += std::string(not_crossed.empty() ? "" : " ") + d.name;
    } else {
      result->Fail(std::string("end-to-end metric not measured: ") + d.name);
    }
    metrics += std::string(metrics.empty() ? "" : ",") + "\"" + d.name +
               "\":{\"value\":" + FormatNumber(value) + ",\"unit\":\"" +
               d.unit + "\"}";
  }
  if (!not_crossed.empty()) result->Note("not_crossed", not_crossed);
  size_t attempted = result->attempted == 0 ? 1 : result->attempted;
  size_t failed = result->failed;
  if (!result->failures.empty() && failed == 0) failed = 1;
  return std::string("{\"correct\":") +
         (result->failures.empty() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
         metrics + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string problem;
  if (!ParseArgs(argc, argv, &args, &problem)) return Usage(problem);

  Tracer tracer(args.trace);
  Result result;
  double drift = DriftControlSeconds();
  if (args.workload == "reconstruct_eu") {
    RunReconstructEu(args, &tracer, &result);
  } else if (args.workload == "serve_light") {
    RunServeLight(args, &tracer, &result);
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }
  if (args.trace) {
    result.Set("drift.reference_cliques_s", drift);
    std::string path = args.work_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    if (tracer.Write(path)) result.Note("trace_file", path);
    result.Note("spans", static_cast<double>(tracer.size()));
  }

  std::string line = ResultLine(args, &result);
  std::cout << "perfbench-meta " << MetaLine(args, result, drift) << "\n"
            << line << std::endl;
  for (const std::string& failure : result.failures) {
    std::cerr << "perfbench: FAIL: " << failure << "\n";
  }
  return result.failures.empty() ? 0 : 1;
}
