#include "la/matrix.hpp"


#include "util/check.hpp"

namespace marioh::la {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  MARIOH_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* brow = other.Row(k);
      double* orow = out.Row(i);
      for (size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

double SquaredDistance(const Vector& a, const Vector& b) {
  MARIOH_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace marioh::la
