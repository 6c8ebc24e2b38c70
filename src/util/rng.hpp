/// \file rng.hpp
/// \brief Deterministic random number generation.
///
/// Every stochastic component in the library takes an explicit seed so that
/// experiments are reproducible. `Rng` wraps a 64-bit Mersenne twister with
/// the handful of draw helpers the reconstruction and generation code needs.

#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace marioh::util {

/// Deterministic pseudo-random generator used throughout the library.
class Rng {
 public:
  /// Creates a generator from an explicit 64-bit seed.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in the closed range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    MARIOH_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). `n` must be positive.
  size_t UniformIndex(size_t n) {
    MARIOH_CHECK_GT(n, 0u);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Uniform real in the half-open range [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal draw scaled to (mean, stddev).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Geometric draw (number of failures before first success), success
  /// probability `p` in (0, 1].
  int64_t Geometric(double p) {
    MARIOH_CHECK_GT(p, 0.0);
    if (p >= 1.0) return 0;
    return std::geometric_distribution<int64_t>(p)(engine_);
  }

  /// Poisson draw with rate `lambda`.
  int64_t Poisson(double lambda) {
    MARIOH_CHECK_GT(lambda, 0.0);
    return std::poisson_distribution<int64_t>(lambda)(engine_);
  }

  /// Draws an index in [0, weights.size()) proportionally to `weights`.
  size_t Discrete(const std::vector<double>& weights) {
    MARIOH_CHECK(!weights.empty());
    return std::discrete_distribution<size_t>(weights.begin(),
                                              weights.end())(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[UniformIndex(i)]);
    }
  }

  /// Samples `k` distinct elements from `items` (reservoir sampling) into
  /// `*out`, replacing its contents; a buffer reused across calls
  /// allocates only when it grows.
  template <typename T>
  void SampleWithoutReplacement(std::span<const T> items, size_t k,
                                std::vector<T>* out) {
    MARIOH_CHECK_LE(k, items.size());
    out->assign(items.begin(), items.begin() + k);
    for (size_t i = k; i < items.size(); ++i) {
      size_t j = UniformIndex(i + 1);
      if (j < k) (*out)[j] = items[i];
    }
  }

  /// Returning form of the buffer overload above (same draws).
  template <typename T>
  std::vector<T> SampleWithoutReplacement(std::span<const T> items,
                                          size_t k) {
    std::vector<T> out;
    SampleWithoutReplacement(items, k, &out);
    return out;
  }

  /// Vector convenience for the span overload above.
  template <typename T>
  std::vector<T> SampleWithoutReplacement(const std::vector<T>& items,
                                          size_t k) {
    return SampleWithoutReplacement(std::span<const T>(items), k);
  }

  /// Access to the raw engine for std distributions not wrapped above.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace marioh::util
