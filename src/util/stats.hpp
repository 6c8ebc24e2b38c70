/// \file stats.hpp
/// \brief Small statistics helpers: aggregation vectors, mean/std
/// accumulators, and the Kolmogorov-Smirnov D-statistic used by the
/// structural-preservation experiments.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace marioh::util {

/// Five-number aggregation {sum, mean, min, max, population std} of a value
/// list, written to out[0..5); this is the aggregation the MARIOH paper
/// applies to node-level and edge-level clique features (Sect. III-D).
/// Writes all zeros for an empty input. Writing into the caller's storage
/// lets feature extraction aggregate straight into a feature-matrix row.
void Aggregate5Into(std::span<const double> values, double* out);

/// Online mean / standard-deviation accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);
  /// Number of observations so far.
  size_t count() const { return count_; }
  /// Mean of the observations (0 when empty).
  double Mean() const;
  /// Sample standard deviation (0 with fewer than two observations).
  double Std() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Two-sample Kolmogorov-Smirnov D-statistic: the maximum distance between
/// the empirical CDFs of `a` and `b`. Inputs need not be sorted. Returns 0
/// if either sample is empty and the other is too, 1 if exactly one is
/// empty.
double KsStatistic(std::vector<double> a, std::vector<double> b);

/// Normalized difference |x - y| / max(x, y) used for scalar structural
/// properties (0 when both are 0).
double NormalizedDifference(double x, double y);

}  // namespace marioh::util
