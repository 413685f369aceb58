// LAPACK-subset tests: POTF2/POTRF correctness, failure behaviour on
// non-SPD input, solves, norms and residual helpers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/reference.hpp"
#include "common/error.hpp"
#include "test_util.hpp"

namespace ftla::blas {
namespace {

using test::random_matrix;
using test::random_spd;

class PotrfSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PotrfSizes, MatchesUnblockedReference) {
  const auto [n, nb] = GetParam();
  auto a = random_spd(n, n);
  auto l_ref = a;
  ref::potrf(l_ref.view());
  auto l = a;
  potrf(l.view(), nb);
  EXPECT_LE(test::lower_max_diff(l, l_ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, PotrfSizes,
    ::testing::Combine(::testing::Values(1, 2, 7, 64, 130),
                       ::testing::Values(1, 8, 64)));

TEST(Potf2, SmallResidual) {
  const int n = 96;
  auto a = random_spd(n, 1);
  auto l = a;
  potf2(l.view());
  EXPECT_LT(cholesky_residual(a.view(), l.view()), 1e-13);
}

TEST(Potf2, ThrowsOnIndefiniteMatrix) {
  Matrix<double> a(3, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // indefinite
  a(2, 2) = 1.0;
  try {
    potf2(a.view());
    FAIL() << "expected NotPositiveDefiniteError";
  } catch (const NotPositiveDefiniteError& e) {
    EXPECT_EQ(e.column(), 1);
  }
}

TEST(Potf2, ThrowsOnNanInput) {
  auto a = random_spd(8, 2);
  a(4, 4) = std::nan("");
  EXPECT_THROW(potf2(a.view()), NotPositiveDefiniteError);
}

TEST(Potrf, ThrowsOnSemidefinite) {
  // Rank-1 matrix: PSD but singular.
  Matrix<double> a(4, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) a(i, j) = (i + 1.0) * (j + 1.0);
  EXPECT_THROW(potrf(a.view(), 2), NotPositiveDefiniteError);
}

TEST(Potrs, SolvesLinearSystem) {
  const int n = 40;
  auto a = random_spd(n, 3);
  auto x_true = random_matrix(n, 3, 4);
  // b = A x
  Matrix<double> b(n, 3, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());
  auto l = a;
  potrf(l.view(), 8);
  potrs(ConstMatrixView<double>(l.view()), b.view());
  EXPECT_MATRIX_NEAR(b, x_true, 1e-8);
}

TEST(Lange, KnownValues) {
  Matrix<double> a(2, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 0) = -2.0;
  a(0, 1) = 3.0;
  a(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(lange(Norm::Max, a.view()), 4.0);
  EXPECT_DOUBLE_EQ(lange(Norm::One, a.view()), 4.0);   // max col sum
  EXPECT_DOUBLE_EQ(lange(Norm::Inf, a.view()), 6.0);   // max row sum
  EXPECT_NEAR(lange(Norm::Fro, a.view()), std::sqrt(1 + 4 + 9 + 16), 1e-14);
}

TEST(Lange, FroOverflowSafe) {
  Matrix<double> a(2, 2, 1e200);
  EXPECT_NEAR(lange(Norm::Fro, a.view()) / 2e200, 1.0, 1e-12);
}

TEST(CholeskyResidual, ZeroForExactFactor) {
  Matrix<double> l(3, 3, 0.0);
  l(0, 0) = 2.0;
  l(1, 0) = 1.0;
  l(1, 1) = 3.0;
  l(2, 0) = 0.5;
  l(2, 1) = -1.0;
  l(2, 2) = 1.5;
  // A = L L^T, computed exactly.
  Matrix<double> a(3, 3, 0.0);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j <= i; ++j) {
      double s = 0.0;
      for (int k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
      a(i, j) = s;
      a(j, i) = s;
    }
  EXPECT_LT(cholesky_residual(a.view(), l.view()), 1e-15);
}

TEST(CholeskyResidual, DetectsCorruptedFactor) {
  const int n = 24;
  auto a = random_spd(n, 5);
  auto l = a;
  potrf(l.view());
  l(10, 3) += 1.0;
  EXPECT_GT(cholesky_residual(a.view(), l.view()), 1e-4);
}

/// cholesky_residual as it read L in place, with stride ld: the
/// reference the packed-row version must match bit for bit.
double strided_cholesky_residual(ConstMatrixView<double> a,
                                 ConstMatrixView<double> l) {
  const int n = a.rows();
  double num_scale = 0.0, num_ssq = 1.0;
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      double s = 0.0;
      for (int k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
      const double r = std::abs(a(i, j) - s);
      if (r != 0.0) {
        if (num_scale < r) {
          const double q = num_scale / r;
          num_ssq = 1.0 + num_ssq * q * q;
          num_scale = r;
        } else {
          const double q = r / num_scale;
          num_ssq += q * q;
        }
      }
    }
  }
  const double num = num_scale * std::sqrt(num_ssq);
  const double den = lange(Norm::Fro, a);
  return den > 0.0 ? num / den : num;
}

TEST(CholeskyResidual, BitIdenticalToStridedLoop) {
  for (const int n : {1, 2, 7, 64, 130, 257}) {
    auto a = random_spd(n, static_cast<std::uint64_t>(n));
    auto l = a;
    potrf(l.view());
    l(n / 2, n / 3) *= 1.0 + 1e-9;  // a residual well above rounding
    const double got = cholesky_residual(a.view(), l.view());
    const double want = strided_cholesky_residual(a.view(), l.view());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "n " << n << ": " << got << " vs " << want;

    // The same factor and input seen through views with ld > n.
    Matrix<double> big_l(n + 5, n + 2, -7.0);
    Matrix<double> big_a(n + 3, n, 11.0);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        big_l(i + 4, j + 1) = l(i, j);
        big_a(i + 1, j) = a(i, j);
      }
    }
    const auto lv = std::as_const(big_l).block(4, 1, n, n);
    const auto av = std::as_const(big_a).block(1, 0, n, n);
    ASSERT_GT(lv.ld(), n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cholesky_residual(av, lv)),
              std::bit_cast<std::uint64_t>(want))
        << "n " << n << " (strided views)";
  }
}

TEST(MaxAbsDiff, Basics) {
  auto a = random_matrix(4, 4, 6);
  auto b = a;
  EXPECT_EQ(max_abs_diff(a.view(), b.view()), 0.0);
  b(2, 2) += 0.25;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 0.25);
}

TEST(Potrf, AgreesWithGramConstruction) {
  // Factor G G^T + nI and check L L^T reproduces it.
  const int n = 48;
  Matrix<double> a(n, n);
  make_spd(a, 7);
  auto l = a;
  potrf(l.view(), 16);
  EXPECT_LT(cholesky_residual(a.view(), l.view()), 1e-12);
}

}  // namespace
}  // namespace ftla::blas
