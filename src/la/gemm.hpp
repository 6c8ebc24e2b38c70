/// \file gemm.hpp
/// \brief Small register-blocked matrix product with a fixed summation
/// order — the batched kernel under the MLP's training and inference.
///
/// Ordering contract: every output element is summed from 0.0 in
/// ascending k, one multiply then one add per term, exactly like a naive
/// `s = 0.0; for k: s += a[r][k] * b[k][c]` loop. Register blocking runs
/// across rows and columns only, never across k, so the result is
/// bit-identical to that loop for any shape (given no FMA contraction,
/// which the library's build flags forbid). The contract holds on both
/// vector-width paths (SSE2, AVX2): a wider register only holds more
/// columns, each lane summing its own element in the same order. Gemm
/// takes AVX2 when the host has it, chosen once per process.

#pragma once

#include <cstddef>

namespace marioh::la {

/// Computes C = A · B, overwriting C, for an m×n C, m×depth A and
/// depth×n B. A is strided both ways: element (r, k) lives at
/// `a[r * a_row_stride + k * a_k_stride]`, so a row-major matrix passes
/// (cols, 1) and the transpose of a row-major matrix passes (1, cols)
/// without a copy. B and C are row-major with the given row strides.
void Gemm(size_t m, size_t n, size_t depth, const double* a,
          size_t a_row_stride, size_t a_k_stride, const double* b,
          size_t b_row_stride, double* c, size_t c_row_stride);

namespace detail {

/// Gemm's vector-width paths. kSse2 is two doubles per register: SSE2 on
/// x86-64, the portable path everywhere else. kAvx2 is four.
enum class GemmPath { kSse2, kAvx2 };

/// Test seam: computes Gemm on `path` and returns true, or returns false
/// and leaves C untouched when this build or host lacks the path.
bool GemmOn(GemmPath path, size_t m, size_t n, size_t depth,
            const double* a, size_t a_row_stride, size_t a_k_stride,
            const double* b, size_t b_row_stride, double* c,
            size_t c_row_stride);

}  // namespace detail
}  // namespace marioh::la
