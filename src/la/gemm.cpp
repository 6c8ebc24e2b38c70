#include "la/gemm.hpp"

// The tiles are GCC/Clang vector types, and the build's flags are GNU
// flags too.
#if !defined(__GNUC__)
#error "la/gemm.cpp needs GCC or Clang"
#endif

// The kernel's building blocks inline into each entry point, at every
// optimization level, so the whole kernel is compiled for that entry's
// ISA (the AVX2 entry's target attribute does not reach out-of-line
// callees).
#define MARIOH_GEMM_INLINE inline __attribute__((always_inline))

namespace marioh::la {
namespace {

using detail::GemmPath;

/// The operands of one block of C = A · B, at the block's origin: A
/// strided both ways, B and C row-major.
struct Block {
  const double* a;
  size_t a_row_stride;
  size_t a_k_stride;
  const double* b;
  size_t b_row_stride;
  double* c;
  size_t c_row_stride;

  /// The block whose origin is at (row, col) of this one.
  Block At(size_t row, size_t col) const {
    return {a + row * a_row_stride, a_row_stride, a_k_stride, b + col,
            b_row_stride, c + row * c_row_stride + col, c_row_stride};
  }
};

using GemmFn = void (*)(size_t m, size_t n, size_t depth, const Block& x);

/// One R×C tile. Each of the R·C accumulators sums its own terms in
/// ascending k across the whole k loop.
template <size_t R, size_t C>
MARIOH_GEMM_INLINE void Tile(size_t depth, const Block& x) {
  double acc[R][C] = {};
  for (size_t k = 0; k < depth; ++k) {
    const double* bk = x.b + k * x.b_row_stride;
    for (size_t i = 0; i < R; ++i) {
      const double ai = x.a[i * x.a_row_stride + k * x.a_k_stride];
      for (size_t j = 0; j < C; ++j) acc[i][j] += ai * bk[j];
    }
  }
  for (size_t i = 0; i < R; ++i) {
    for (size_t j = 0; j < C; ++j) x.c[i * x.c_row_stride + j] = acc[i][j];
  }
}

/// L doubles as one GCC/Clang vector: lane-wise IEEE multiply and add, so
/// each lane keeps its own element's summation order. `Unaligned` is the
/// same vector at double alignment and may alias doubles, for loads from
/// B and stores to C (the x86 intrinsics' `__m256d_u` is declared alike).
template <size_t L>
struct Lanes {
  typedef double Vec __attribute__((vector_size(L * sizeof(double))));
  typedef Vec Unaligned __attribute__((aligned(sizeof(double)), may_alias));
};

/// One R-row × NV-vector tile of L-lane vectors, vectorized across the
/// tile's columns: per k, one row of B is loaded once as NV vectors and
/// scaled by each row's A element. The R·NV accumulators stay in
/// registers.
template <size_t L, size_t R, size_t NV>
MARIOH_GEMM_INLINE void VecTile(size_t depth, const Block& x) {
  using Unaligned = typename Lanes<L>::Unaligned;
  typename Lanes<L>::Vec acc[R][NV] = {};
  for (size_t k = 0; k < depth; ++k) {
    const Unaligned* bk =
        reinterpret_cast<const Unaligned*>(x.b + k * x.b_row_stride);
    const double* ak = x.a + k * x.a_k_stride;
    for (size_t i = 0; i < R; ++i) {
      const double ai = ak[i * x.a_row_stride];
      for (size_t j = 0; j < NV; ++j) acc[i][j] += ai * bk[j];
    }
  }
  for (size_t i = 0; i < R; ++i) {
    Unaligned* ci = reinterpret_cast<Unaligned*>(x.c + i * x.c_row_stride);
    for (size_t j = 0; j < NV; ++j) ci[j] = acc[i][j];
  }
}

/// Columns [col, n) of one band of R rows, fewer than 2·L of them: at
/// most one L-lane vector, then likewise at each narrower width, then
/// single columns.
template <size_t L, size_t R>
MARIOH_GEMM_INLINE void Tail(size_t col, size_t n, size_t depth,
                             const Block& x) {
  if constexpr (L > 1) {
    if (col + L <= n) {
      VecTile<L, R, 1>(depth, x.At(0, col));
      col += L;
    }
    Tail<L / 2, R>(col, n, depth, x);
  } else {
    for (; col < n; ++col) Tile<R, 1>(depth, x.At(0, col));
  }
}

/// Sweeps one band of R rows across all n columns: two-vector tiles of
/// L lanes, then the narrowing tail.
template <size_t L, size_t R>
MARIOH_GEMM_INLINE void Band(size_t n, size_t depth, const Block& x) {
  size_t col = 0;
  for (; col + 2 * L <= n; col += 2 * L) {
    VecTile<L, R, 2>(depth, x.At(0, col));
  }
  Tail<L, R>(col, n, depth, x);
}

/// The whole product with L-lane vectors: bands of four rows, then
/// single-row bands for the remainder.
template <size_t L>
MARIOH_GEMM_INLINE void GemmLanes(size_t m, size_t n, size_t depth,
                                  const Block& x) {
  constexpr size_t kRows = 4;
  size_t row = 0;
  for (; row + kRows <= m; row += kRows) {
    Band<L, kRows>(n, depth, x.At(row, 0));
  }
  for (; row < m; ++row) Band<L, 1>(n, depth, x.At(row, 0));
}

#if defined(__x86_64__)
// The AVX2 entry ends with an explicit vzeroupper: GCC does not always
// emit one for vector-extension code under a target attribute (GCC 12
// emits none at -O0), and without it the caller's SSE code runs about 2x
// slower after every call.
__attribute__((target("avx2"))) void GemmAvx2(size_t m, size_t n,
                                              size_t depth, const Block& x) {
  GemmLanes<4>(m, n, depth, x);
  __builtin_ia32_vzeroupper();
}
#endif

/// The kernel of `path`, or nullptr when this build or host lacks it.
GemmFn KernelFor(GemmPath path) {
  switch (path) {
    case GemmPath::kSse2:
      return GemmLanes<2>;
    case GemmPath::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") ? GemmAvx2 : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace

void Gemm(size_t m, size_t n, size_t depth, const double* a,
          size_t a_row_stride, size_t a_k_stride, const double* b,
          size_t b_row_stride, double* c, size_t c_row_stride) {
  static const GemmFn kernel = KernelFor(GemmPath::kAvx2) != nullptr
                                   ? KernelFor(GemmPath::kAvx2)
                                   : KernelFor(GemmPath::kSse2);
  kernel(m, n, depth,
         {a, a_row_stride, a_k_stride, b, b_row_stride, c, c_row_stride});
}

namespace detail {

bool GemmOn(GemmPath path, size_t m, size_t n, size_t depth,
            const double* a, size_t a_row_stride, size_t a_k_stride,
            const double* b, size_t b_row_stride, double* c,
            size_t c_row_stride) {
  GemmFn kernel = KernelFor(path);
  if (kernel == nullptr) return false;
  kernel(m, n, depth,
         {a, a_row_stride, a_k_stride, b, b_row_stride, c, c_row_stride});
  return true;
}

}  // namespace detail
}  // namespace marioh::la
