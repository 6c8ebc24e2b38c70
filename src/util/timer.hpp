/// \file timer.hpp
/// \brief Wall-clock timer and a named stage stopwatch used by the runtime
/// breakdown experiments (Fig. 6).

#pragma once

#include <chrono>
#include <map>
#include <string>

namespace marioh::util {

/// Simple monotonic wall-clock timer.
class Timer {
 public:
  Timer() { Reset(); }
  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }
  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates wall-clock time per named stage. api::Session keeps its
/// stage times and run counters in one (the Fig. 6 breakdown reads it).
class StageTimer {
 public:
  /// Adds `seconds` to the stage named `stage`.
  void Add(const std::string& stage, double seconds) {
    totals_[stage] += seconds;
  }
  /// Overwrites the stage's value — for point-in-time samples (e.g. the
  /// memory gauges in Session stage stats) where summing would be wrong.
  void Set(const std::string& stage, double value) {
    totals_[stage] = value;
  }
  /// Total seconds recorded for `stage` (0 if never recorded).
  double Get(const std::string& stage) const {
    auto it = totals_.find(stage);
    return it == totals_.end() ? 0.0 : it->second;
  }
  /// Sum over all stages.
  double Total() const {
    double t = 0.0;
    for (const auto& [k, v] : totals_) t += v;
    return t;
  }
  /// All recorded stages in name order.
  const std::map<std::string, double>& stages() const { return totals_; }
  /// Clears all recorded stages.
  void Clear() { totals_.clear(); }

 private:
  std::map<std::string, double> totals_;
};

}  // namespace marioh::util
