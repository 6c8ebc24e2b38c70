#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace marioh::util {

void Aggregate5Into(std::span<const double> values, double* out) {
  if (values.empty()) {
    std::fill(out, out + 5, 0.0);
    return;
  }
  double sum = 0.0;
  double lo = values.front();
  double hi = values.front();
  for (double v : values) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  out[0] = sum;
  out[1] = mean;
  out[2] = lo;
  out[3] = hi;
  out[4] = std::sqrt(var);
}

void RunningStats::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::Std() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double KsStatistic(std::vector<double> a, std::vector<double> b) {
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  size_t i = 0, j = 0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  while (i < a.size() && j < b.size()) {
    // Advance past ties on both sides together so tied values contribute a
    // single CDF step per sample.
    double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  return d;
}

double NormalizedDifference(double x, double y) {
  double hi = std::max(std::fabs(x), std::fabs(y));
  if (hi == 0.0) return 0.0;
  return std::fabs(x - y) / hi;
}

}  // namespace marioh::util
