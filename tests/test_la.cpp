// Unit tests for the linear-algebra substrate: dense matrix ops, the
// ordering-exact blocked GEMM, Jacobi symmetric eigendecomposition,
// singular values, and k-means.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "la/eigen.hpp"
#include "la/gemm.hpp"
#include "la/kmeans.hpp"
#include "la/matrix.hpp"
#include "la/svd.hpp"
#include "util/rng.hpp"

namespace marioh::la {
namespace {

TEST(Matrix, IdentityAndAccess) {
  Matrix m = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(0, 1) = 5.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 5.0);
}

TEST(Matrix, MultiplyKnown) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  Matrix c = a.Multiply(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a(2, 3);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) a(i, j) = static_cast<double>(i * 3 + j);
  }
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  Matrix tt = t.Transposed();
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(tt(i, j), a(i, j));
  }
}

// Reference product: one element at a time, summed from 0.0 in ascending
// k — the order la::Gemm promises to reproduce bit for bit.
std::vector<double> NaiveProduct(size_t m, size_t n, size_t depth,
                                 const double* a, size_t a_row_stride,
                                 size_t a_k_stride, const double* b) {
  std::vector<double> c(m * n);
  for (size_t r = 0; r < m; ++r) {
    for (size_t col = 0; col < n; ++col) {
      double s = 0.0;
      for (size_t k = 0; k < depth; ++k) {
        s += a[r * a_row_stride + k * a_k_stride] * b[k * n + col];
      }
      c[r * n + col] = s;
    }
  }
  return c;
}

std::vector<double> RandomValues(size_t count, util::Rng* rng) {
  std::vector<double> v(count);
  for (double& x : v) x = rng->Normal(0.0, 3.0);
  return v;
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

using detail::GemmPath;

constexpr GemmPath kEveryGemmPath[] = {GemmPath::kSse2, GemmPath::kAvx2};

/// Whether this build and host have `path`: an empty product runs on it.
bool HostHas(GemmPath path) {
  return detail::GemmOn(path, 0, 0, 0, nullptr, 0, 0, nullptr, 0, nullptr,
                        0);
}

/// The Gemm tests, run on every vector-width path; paths the host lacks
/// are skipped.
class GemmOnPath : public testing::TestWithParam<GemmPath> {
 protected:
  void SetUp() override {
    if (!HostHas(GetParam())) GTEST_SKIP() << "host lacks this GEMM path";
  }

  void Gemm(size_t m, size_t n, size_t depth, const double* a,
            size_t a_row_stride, size_t a_k_stride, const double* b,
            size_t b_row_stride, double* c, size_t c_row_stride) {
    ASSERT_TRUE(detail::GemmOn(GetParam(), m, n, depth, a, a_row_stride,
                               a_k_stride, b, b_row_stride, c,
                               c_row_stride));
  }
};

std::string PathName(const testing::TestParamInfo<GemmPath>& info) {
  const char* const names[] = {"Sse2", "Avx2"};
  return names[static_cast<size_t>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(EveryPath, GemmOnPath,
                         testing::ValuesIn(kEveryGemmPath), PathName);

TEST_P(GemmOnPath, MatchesNaiveLoopBitwiseOnAwkwardShapes) {
  util::Rng rng(13);
  auto check = [this, &rng](size_t m, size_t n, size_t depth) {
    SCOPED_TRACE(testing::Message() << m << "x" << n << " depth " << depth);
    std::vector<double> a = RandomValues(m * depth, &rng);
    std::vector<double> b = RandomValues(depth * n, &rng);
    std::vector<double> c(m * n, -1.0);
    const std::vector<double> naive =
        NaiveProduct(m, n, depth, a.data(), depth, 1, b.data());
    Gemm(m, n, depth, a.data(), depth, 1, b.data(), n, c.data(), n);
    ExpectBitwiseEqual(c, naive);
    // The public entry, on whichever path it picked, agrees too.
    std::fill(c.begin(), c.end(), -1.0);
    la::Gemm(m, n, depth, a.data(), depth, 1, b.data(), n, c.data(), n);
    ExpectBitwiseEqual(c, naive);
  };
  // (m, n, depth): 1x1, remainder rows and columns on both sides of the
  // register tiles, the MLP's eu training shapes, and depth 0.
  const size_t shapes[][3] = {{1, 1, 1},  {3, 17, 5},  {65, 23, 64},
                              {4, 4, 1},  {5, 3, 7},   {64, 64, 23},
                              {64, 1, 32}, {2, 9, 0},  {17, 65, 33}};
  for (const auto& shape : shapes) check(shape[0], shape[1], shape[2]);
  // n from 1 to 19 walks every column remainder of the widest
  // (2 x 4-lane) tile, after zero, one and two full tiles, through each
  // narrower width; m in {1, 3, 4, 5} covers single-row bands, a full
  // 4-row band and both together.
  for (size_t m : {1, 3, 4, 5}) {
    for (size_t n = 1; n <= 19; ++n) check(m, n, 7);
  }
}

TEST_P(GemmOnPath, NeverFusesMultiplyAndAdd) {
  // a0*b0 = -1 and a1 = b1 = 1 + 2^-30: the rounded product a1*b1 is
  // 1 + 2^-29, so multiply-then-add gives 2^-29, while a fused
  // multiply-add would keep the 2^-60 term. Every row and column of a
  // 5x19 C holds the same sum, so every tile kind is checked.
  const size_t m = 5, n = 19;
  const double x = 1.0 + std::ldexp(1.0, -30);
  std::vector<double> a(m * 2), b(2 * n), c(m * n);
  for (size_t r = 0; r < m; ++r) {
    a[r * 2] = -1.0;
    a[r * 2 + 1] = x;
  }
  for (size_t j = 0; j < n; ++j) {
    b[j] = 1.0;
    b[n + j] = x;
  }
  Gemm(m, n, 2, a.data(), 2, 1, b.data(), n, c.data(), n);
  for (double got : c) EXPECT_EQ(got, std::ldexp(1.0, -29));
}

TEST_P(GemmOnPath, StridedAReadsTheTransposeWithoutACopy) {
  // C = Dᵀ · X with D stored row-major as depth x m: A-strides (1, m).
  util::Rng rng(14);
  const size_t m = 23, n = 10, depth = 65;
  std::vector<double> d = RandomValues(depth * m, &rng);
  std::vector<double> x = RandomValues(depth * n, &rng);
  std::vector<double> c(m * n);
  Gemm(m, n, depth, d.data(), 1, m, x.data(), n, c.data(), n);
  ExpectBitwiseEqual(c, NaiveProduct(m, n, depth, d.data(), 1, m, x.data()));

  // Same product through an explicit transpose copy.
  Matrix dt(m, depth);
  for (size_t k = 0; k < depth; ++k) {
    for (size_t r = 0; r < m; ++r) dt(r, k) = d[k * m + r];
  }
  std::vector<double> via_copy(m * n);
  Gemm(m, n, depth, dt.data(), depth, 1, x.data(), n, via_copy.data(), n);
  ExpectBitwiseEqual(c, via_copy);
}

TEST_P(GemmOnPath, HonorsRowStridesOfBAndC) {
  // B and C embedded in wider buffers: only their first n columns are
  // read and written. n = 15 = 8 + 4 + 2 + 1 reaches a full tile and
  // every narrower remainder on the widest path.
  util::Rng rng(15);
  const size_t m = 6, n = 15, depth = 4, ldb = 16, ldc = 17;
  std::vector<double> a = RandomValues(m * depth, &rng);
  std::vector<double> b = RandomValues(depth * ldb, &rng);
  std::vector<double> c(m * ldc, 42.0);
  Gemm(m, n, depth, a.data(), depth, 1, b.data(), ldb, c.data(), ldc);
  std::vector<double> packed_b(depth * n);
  for (size_t k = 0; k < depth; ++k) {
    for (size_t j = 0; j < n; ++j) packed_b[k * n + j] = b[k * ldb + j];
  }
  std::vector<double> want =
      NaiveProduct(m, n, depth, a.data(), depth, 1, packed_b.data());
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < ldc; ++j) {
      double got = c[r * ldc + j];
      if (j < n) {
        EXPECT_EQ(std::memcmp(&got, &want[r * n + j], sizeof(double)), 0);
      } else {
        EXPECT_EQ(got, 42.0);
      }
    }
  }
}

TEST(Matrix, Scale) {
  Matrix a(1, 2);
  a(0, 0) = 3; a(0, 1) = 4;
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 8.0);
}

TEST(VectorOps, SquaredDistance) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 27.0);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3; a(1, 1) = 1; a(2, 2) = 2;
  EigenResult eig = SymmetricEigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 2;
  EigenResult eig = SymmetricEigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  double v0 = eig.vectors(0, 0);
  double v1 = eig.vectors(1, 0);
  EXPECT_NEAR(std::fabs(v0), 1.0 / std::sqrt(2.0), 1e-8);
  EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(SymmetricEigen, ReconstructsMatrix) {
  // A = V diag(values) V^T must reproduce the input.
  util::Rng rng(5);
  const size_t n = 8;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = rng.Normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  EigenResult eig = SymmetricEigen(a);
  Matrix d(n, n);
  for (size_t i = 0; i < n; ++i) d(i, i) = eig.values[i];
  Matrix rec = eig.vectors.Multiply(d).Multiply(eig.vectors.Transposed());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
    }
  }
}

TEST(SymmetricEigen, OrthonormalEigenvectors) {
  util::Rng rng(11);
  const size_t n = 6;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = rng.Uniform(-1, 1);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  EigenResult eig = SymmetricEigen(a);
  for (size_t c1 = 0; c1 < n; ++c1) {
    for (size_t c2 = 0; c2 < n; ++c2) {
      double dot = 0;
      for (size_t r = 0; r < n; ++r) {
        dot += eig.vectors(r, c1) * eig.vectors(r, c2);
      }
      EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(SmallestEigenvectors, PicksBottomOfSpectrum) {
  Matrix a(3, 3);
  a(0, 0) = 5; a(1, 1) = 1; a(2, 2) = 3;
  Matrix v = SmallestEigenvectors(a, 1);
  ASSERT_EQ(v.cols(), 1u);
  // Smallest eigenvalue 1 -> eigenvector e1.
  EXPECT_NEAR(std::fabs(v(1, 0)), 1.0, 1e-8);
}

TEST(SingularValues, KnownDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 3; a(1, 1) = 4;
  Vector sv = SingularValues(a);
  EXPECT_NEAR(sv[0], 4.0, 1e-8);
  EXPECT_NEAR(sv[1], 3.0, 1e-8);
}

TEST(SingularValues, RectangularMatchesGram) {
  // A = [[1,0],[0,1],[1,1]]: A^T A = [[2,1],[1,2]] -> eigen 3,1 ->
  // singular values sqrt(3), 1.
  Matrix a(3, 2);
  a(0, 0) = 1; a(1, 1) = 1; a(2, 0) = 1; a(2, 1) = 1;
  Vector sv = SingularValues(a);
  ASSERT_EQ(sv.size(), 2u);
  EXPECT_NEAR(sv[0], std::sqrt(3.0), 1e-8);
  EXPECT_NEAR(sv[1], 1.0, 1e-8);
}

TEST(TopSingularValues, PadsWithZeros) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  Vector sv = TopSingularValues(a, 4);
  ASSERT_EQ(sv.size(), 4u);
  EXPECT_NEAR(sv[0], 2.0, 1e-8);
  EXPECT_NEAR(sv[3], 0.0, 1e-12);
}

TEST(KMeans, SeparatesObviousClusters) {
  // Two tight blobs on a line.
  Matrix points(8, 1);
  for (size_t i = 0; i < 4; ++i) points(i, 0) = 0.0 + 0.01 * i;
  for (size_t i = 4; i < 8; ++i) points(i, 0) = 10.0 + 0.01 * i;
  util::Rng rng(3);
  KMeansResult result = KMeans(points, 2, &rng);
  EXPECT_EQ(result.assignments[0], result.assignments[3]);
  EXPECT_EQ(result.assignments[4], result.assignments[7]);
  EXPECT_NE(result.assignments[0], result.assignments[4]);
  EXPECT_LT(result.inertia, 0.01);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  Matrix points(3, 2);
  points(0, 0) = 1; points(1, 0) = 5; points(2, 1) = 9;
  util::Rng rng(4);
  KMeansResult result = KMeans(points, 3, &rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, DeterministicGivenSeed) {
  util::Rng fill(9);
  Matrix points(20, 2);
  for (size_t i = 0; i < 20; ++i) {
    points(i, 0) = fill.Normal();
    points(i, 1) = fill.Normal();
  }
  util::Rng r1(77), r2(77);
  KMeansResult a = KMeans(points, 3, &r1);
  KMeansResult b = KMeans(points, 3, &r2);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

}  // namespace
}  // namespace marioh::la
