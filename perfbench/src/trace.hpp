// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own files, around its calls into each layer: name,
// start, end, parent span and job id. They stay in memory until the run
// ends and are then written out as one JSON file; the per-layer metrics
// are computed from them.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t job = 0;     ///< 0 = not part of a job (setup, side runs)
  std::string name;
  double start = 0.0;  ///< steady-clock seconds
  double end = 0.0;
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span: times its scope on the steady clock and, when tracing is
  /// on, records itself as a child of the innermost open span of the
  /// calling thread. `End()` returns the duration with tracing off too.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, uint64_t job = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early (idempotent) and returns its duration.
    double End();

   private:
    Tracer* tracer_;
    SpanRecord record_;
    bool open_ = true;
  };

  /// Records an already-measured interval (e.g. a client-side round trip
  /// timed on another clock read) under the current thread's open span.
  void Add(const std::string& name, uint64_t job, double start, double end);

  /// Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Per-job sums of the spans called `name`, keyed by job id; spans
  /// outside any job are ignored.
  std::map<uint64_t, double> SumsByJob(const std::string& name) const;

  /// Writes every span as one JSON document; false on I/O failure.
  bool Write(const std::string& path) const;

  size_t size() const;

 private:
  void Push(SpanRecord record);

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench
