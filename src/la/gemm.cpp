#include "la/gemm.hpp"

#include <cstring>

namespace marioh::la {
namespace {

/// One R×C tile of C = A · B; `a`, `b` and `c` point at the tile's
/// origin. Each of the R·C accumulators sums its own terms in ascending
/// k across the whole k loop.
template <size_t R, size_t C>
void Tile(size_t depth, const double* a, size_t a_row_stride,
          size_t a_k_stride, const double* b, size_t b_row_stride,
          double* c, size_t c_row_stride) {
  double acc[R][C] = {};
  for (size_t k = 0; k < depth; ++k) {
    const double* bk = b + k * b_row_stride;
    for (size_t i = 0; i < R; ++i) {
      const double ai = a[i * a_row_stride + k * a_k_stride];
      for (size_t j = 0; j < C; ++j) acc[i][j] += ai * bk[j];
    }
  }
  for (size_t i = 0; i < R; ++i) {
    for (size_t j = 0; j < C; ++j) c[i * c_row_stride + j] = acc[i][j];
  }
}

#if defined(__GNUC__)
/// Two doubles as one GCC/Clang vector (an SSE2 register): lane-wise IEEE
/// multiply and add, so each lane keeps its own element's summation order.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

/// The full 4×4 tile, vectorized across the tile's columns: per k, one
/// row of B is loaded once as two pairs and scaled by each row's A
/// element. The eight pair accumulators stay in registers.
template <>
void Tile<4, 4>(size_t depth, const double* a, size_t a_row_stride,
                size_t a_k_stride, const double* b, size_t b_row_stride,
                double* c, size_t c_row_stride) {
  Pair lo0 = {}, hi0 = {}, lo1 = {}, hi1 = {};
  Pair lo2 = {}, hi2 = {}, lo3 = {}, hi3 = {};
  for (size_t k = 0; k < depth; ++k) {
    Pair blo, bhi;
    std::memcpy(&blo, b + k * b_row_stride, sizeof(blo));
    std::memcpy(&bhi, b + k * b_row_stride + 2, sizeof(bhi));
    const double* ak = a + k * a_k_stride;
    const double a0 = ak[0];
    const double a1 = ak[a_row_stride];
    const double a2 = ak[2 * a_row_stride];
    const double a3 = ak[3 * a_row_stride];
    lo0 += a0 * blo;
    hi0 += a0 * bhi;
    lo1 += a1 * blo;
    hi1 += a1 * bhi;
    lo2 += a2 * blo;
    hi2 += a2 * bhi;
    lo3 += a3 * blo;
    hi3 += a3 * bhi;
  }
  const Pair out[4][2] = {{lo0, hi0}, {lo1, hi1}, {lo2, hi2}, {lo3, hi3}};
  for (size_t i = 0; i < 4; ++i) {
    std::memcpy(c + i * c_row_stride, out[i], sizeof(out[i]));
  }
}
#endif

/// Sweeps one band of R rows across all n columns: C-wide tiles, then
/// single columns for the remainder.
template <size_t R, size_t C>
void Band(size_t n, size_t depth, const double* a, size_t a_row_stride,
          size_t a_k_stride, const double* b, size_t b_row_stride,
          double* c, size_t c_row_stride) {
  size_t col = 0;
  for (; col + C <= n; col += C) {
    Tile<R, C>(depth, a, a_row_stride, a_k_stride, b + col, b_row_stride,
               c + col, c_row_stride);
  }
  for (; col < n; ++col) {
    Tile<R, 1>(depth, a, a_row_stride, a_k_stride, b + col, b_row_stride,
               c + col, c_row_stride);
  }
}

}  // namespace

void Gemm(size_t m, size_t n, size_t depth, const double* a,
          size_t a_row_stride, size_t a_k_stride, const double* b,
          size_t b_row_stride, double* c, size_t c_row_stride) {
  constexpr size_t kRows = 4;
  constexpr size_t kCols = 4;
  size_t row = 0;
  for (; row + kRows <= m; row += kRows) {
    Band<kRows, kCols>(n, depth, a + row * a_row_stride, a_row_stride,
                       a_k_stride, b, b_row_stride, c + row * c_row_stride,
                       c_row_stride);
  }
  for (; row < m; ++row) {
    Band<1, kCols>(n, depth, a + row * a_row_stride, a_row_stride,
                   a_k_stride, b, b_row_stride, c + row * c_row_stride,
                   c_row_stride);
  }
}

}  // namespace marioh::la
