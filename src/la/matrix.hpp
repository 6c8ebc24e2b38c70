/// \file matrix.hpp
/// \brief Dense row-major matrix and vector helpers — the numerical
/// substrate for the MLP classifier, GCN, spectral clustering, and singular
/// value analysis.

#pragma once

#include <cstddef>
#include <vector>

namespace marioh::la {

/// Dense column vector.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows = 0, size_t cols = 0, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Element access.
  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  /// Raw contiguous storage (row-major).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row i.
  double* Row(size_t i) { return data_.data() + i * cols_; }
  const double* Row(size_t i) const { return data_.data() + i * cols_; }

  /// Matrix product this * other.
  Matrix Multiply(const Matrix& other) const;

  /// Transposed copy.
  Matrix Transposed() const;

  /// In-place scalar multiply.
  void Scale(double s);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Squared Euclidean distance between equal-length vectors.
double SquaredDistance(const Vector& a, const Vector& b);

}  // namespace marioh::la
