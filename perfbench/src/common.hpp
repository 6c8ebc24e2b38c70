// Shared plumbing of the benchmark driver: arguments, clocks, resource
// probes, order statistics, the content hash behind the determinism
// gates, and the result that main() prints as the final JSON line.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop the timed phase after this many jobs (0 = only the clock
  /// stops it); the self-check's short mode.
  size_t max_jobs = 0;
  /// marioh_served binary (serve_light only).
  std::string served;
  /// Scratch directory inside the checkout for journals and traces.
  std::string work_dir = ".";
  std::string commit = "unknown";
};

/// Seconds on the steady clock since an arbitrary epoch.
double Now();

/// User + system CPU seconds of this process.
double ProcessCpuSeconds();

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb();

/// Resets the peak resident set of process `pid` ("self" for this one)
/// to its current resident set, so a later peak covers only what runs
/// after the call. False when the kernel does not allow it.
bool ResetPeakRss(const std::string& pid);

/// Returns this process's free heap pages to the system (glibc), so the
/// resident set no longer counts memory already freed.
void ReleaseFreeMemory();

/// Hardware threads available to the process.
int Nproc();

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 if empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Order-independent content hash of a hypergraph: FNV-1a over its
/// (hyperedge, multiplicity) pairs in sorted order.
uint64_t ContentHash(const marioh::Hypergraph& h);

/// Derives an independent sub-seed from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Shortest round-trip decimal form of `v` (every digit measured).
std::string FormatNumber(double v);

/// What one run reports. `failures` lists every correctness gate that
/// failed; a non-empty list makes the run incorrect.
struct Result {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  /// Measured metrics by name; main() prints the declared ones.
  std::map<std::string, double> metrics;
  /// Run facts printed on the metadata line (sample counts, checks).
  std::map<std::string, std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Fail(const std::string& what) { failures.push_back(what); }
  void Note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }
  void Note(const std::string& key, double value) {
    notes[key] = FormatNumber(value);
  }
};

/// Escapes `s` for a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench
