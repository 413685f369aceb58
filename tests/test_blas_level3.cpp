// BLAS Level-3 tests: optimized routines against the naive reference
// oracle across the full parameter space (transposes, sides, triangles,
// alpha/beta, including empty and degenerate shapes).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "blas/level3.hpp"
#include "blas/reference.hpp"
#include "test_util.hpp"

namespace ftla::blas {
namespace {

using test::random_matrix;

class GemmParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, Trans, Trans, double, double>> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [m, n, k, ta, tb, alpha, beta] = GetParam();
  auto a = ta == Trans::No ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  auto b = tb == Trans::No ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  auto c = random_matrix(m, n, 3);
  auto c_ref = c;
  gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
  ref::gemm(ta, tb, alpha, a.view(), b.view(), beta, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Combine(
        ::testing::Values(1, 8, 21), ::testing::Values(1, 5, 17),
        ::testing::Values(1, 9, 30),
        ::testing::Values(Trans::No, Trans::Yes),
        ::testing::Values(Trans::No, Trans::Yes),
        ::testing::Values(1.0, -0.7), ::testing::Values(0.0, 1.0, 0.5)));

TEST(Gemm, EmptyInnerDimensionScalesOnly) {
  auto a = random_matrix(4, 0, 4);
  auto b = random_matrix(0, 3, 5);
  auto c = random_matrix(4, 3, 6);
  auto expect = c;
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 4; ++i) expect(i, j) *= 0.5;
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.5, c.view());
  EXPECT_MATRIX_NEAR(c, expect, 0.0);
}

TEST(Gemm, SubBlockViewsWithLargeLd) {
  auto big_a = random_matrix(10, 10, 7);
  auto big_b = random_matrix(10, 10, 8);
  auto big_c = random_matrix(10, 10, 9);
  auto c_ref = big_c;
  gemm(Trans::No, Trans::Yes, 2.0, big_a.block(2, 1, 4, 5),
       big_b.block(3, 2, 3, 5), 1.0, big_c.block(1, 1, 4, 3));
  ref::gemm(Trans::No, Trans::Yes, 2.0,
            ConstMatrixView<double>(big_a.block(2, 1, 4, 5)),
            ConstMatrixView<double>(big_b.block(3, 2, 3, 5)), 1.0,
            c_ref.block(1, 1, 4, 3));
  EXPECT_MATRIX_NEAR(big_c, c_ref, 1e-12);
}

class SyrkParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Uplo, Trans, double, double>> {};

TEST_P(SyrkParam, MatchesReference) {
  const auto [n, k, uplo, trans, alpha, beta] = GetParam();
  auto a =
      trans == Trans::No ? random_matrix(n, k, 10) : random_matrix(k, n, 10);
  auto c = random_matrix(n, n, 11);
  auto c_ref = c;
  syrk(uplo, trans, alpha, a.view(), beta, c.view());
  ref::syrk(uplo, trans, alpha, a.view(), beta, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkParam,
    ::testing::Combine(::testing::Values(1, 6, 19), ::testing::Values(1, 8, 25),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(1.0, -1.0),
                       ::testing::Values(0.0, 1.0)));

TEST(Syrk, LeavesOppositeTriangleUntouched) {
  auto a = random_matrix(5, 7, 12);
  Matrix<double> c(5, 5, 99.0);
  syrk(Uplo::Lower, Trans::No, 1.0, a.view(), 0.0, c.view());
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < j; ++i) EXPECT_EQ(c(i, j), 99.0);
}

class TrsmParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Side, Uplo, Trans, Diag, double>> {};

TEST_P(TrsmParam, MatchesReference) {
  const auto [m, n, side, uplo, trans, diag, alpha] = GetParam();
  const int ka = side == Side::Left ? m : n;
  auto a = random_matrix(ka, ka, 13);
  for (int i = 0; i < ka; ++i) a(i, i) = 3.0 + 0.5 * i;
  auto b = random_matrix(m, n, 14);
  auto b_ref = b;
  trsm(side, uplo, trans, diag, alpha, a.view(), b.view());
  ref::trsm(side, uplo, trans, diag, alpha, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, TrsmParam,
    ::testing::Combine(::testing::Values(1, 6, 14), ::testing::Values(1, 5, 11),
                       ::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit),
                       ::testing::Values(1.0, 2.0)));

TEST(Trsm, InverseOfTrmmRoundTrip) {
  const int m = 9, n = 7;
  auto a = random_matrix(n, n, 15);
  for (int i = 0; i < n; ++i) a(i, i) = 4.0 + i;
  auto b0 = random_matrix(m, n, 16);
  auto b = b0;
  trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, a.view(),
       b.view());
  trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, a.view(),
       b.view());
  EXPECT_MATRIX_NEAR(b, b0, 1e-10);
}

class TrmmParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Side, Uplo, Trans, Diag>> {};

TEST_P(TrmmParam, MatchesReference) {
  const auto [m, n, side, uplo, trans, diag] = GetParam();
  const int ka = side == Side::Left ? m : n;
  auto a = random_matrix(ka, ka, 17);
  auto b = random_matrix(m, n, 18);
  auto b_ref = b;
  trmm(side, uplo, trans, diag, 1.5, a.view(), b.view());
  ref::trmm(side, uplo, trans, diag, 1.5, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, TrmmParam,
    ::testing::Combine(::testing::Values(2, 8), ::testing::Values(3, 9),
                       ::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

TEST(Symmetrize, MirrorsLowerToUpper) {
  auto a = random_matrix(6, 6, 19);
  symmetrize(Uplo::Lower, a.view());
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) EXPECT_EQ(a(i, j), a(j, i));
}

TEST(Symmetrize, MirrorsUpperToLower) {
  auto a = random_matrix(5, 5, 20);
  auto orig = a;
  symmetrize(Uplo::Upper, a.view());
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i <= j; ++i) EXPECT_EQ(a(i, j), orig(i, j));
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 5; ++i) EXPECT_EQ(a(i, j), a(j, i));
}

// --------------------------------------------------------------------
// Cache-blocked path: sizes straddling the packing-panel boundaries.
// --------------------------------------------------------------------

class GemmBoundaryParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Trans, Trans, double, double>> {};

TEST_P(GemmBoundaryParam, MatchesReferenceAroundPanelEdges) {
  const auto [m, k, ta, tb, alpha, beta] = GetParam();
  const int n = kGemmNR + 1;  // forces a partial NR strip as well
  auto a = ta == Trans::No ? random_matrix(m, k, 21) : random_matrix(k, m, 21);
  auto b = tb == Trans::No ? random_matrix(k, n, 22) : random_matrix(n, k, 22);
  auto c = random_matrix(m, n, 23);
  auto c_ref = c;
  gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
  ref::gemm(ta, tb, alpha, a.view(), b.view(), beta, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PanelEdges, GemmBoundaryParam,
    ::testing::Combine(::testing::Values(kGemmMC - 1, kGemmMC + 1),
                       ::testing::Values(kGemmKC - 1, kGemmKC + 1),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(-1.0, 0.3),
                       ::testing::Values(0.0, 0.3)));

TEST(GemmBlocked, FullAlphaBetaGridOnBlockedPath) {
  // Big enough for the packed core, awkward enough (primes) to leave
  // partial MR/NR/KC tiles everywhere.
  const int m = 37, n = 29, k = 41;
  for (const double alpha : {0.0, 1.0, -1.0, 0.3}) {
    for (const double beta : {0.0, 1.0, -1.0, 0.3}) {
      auto a = random_matrix(m, k, 24);
      auto b = random_matrix(k, n, 25);
      auto c = random_matrix(m, n, 26);
      auto c_ref = c;
      gemm(Trans::No, Trans::No, alpha, a.view(), b.view(), beta, c.view());
      ref::gemm(Trans::No, Trans::No, alpha, a.view(), b.view(), beta,
                c_ref.view());
      EXPECT_MATRIX_NEAR(c, c_ref, 1e-10);
    }
  }
}

TEST(GemmBlocked, NonContiguousViewsAtPanelBoundary) {
  // ld > rows on every operand, with the operation size right at the
  // MC/KC packing edges.
  const int m = kGemmMC + 1, n = kGemmNR + 2, k = kGemmKC + 1;
  auto big_a = random_matrix(m + 9, k + 5, 27);
  auto big_b = random_matrix(k + 7, n + 3, 28);
  auto big_c = random_matrix(m + 4, n + 6, 29);
  auto c_ref = big_c;
  gemm(Trans::No, Trans::No, 1.0, big_a.block(3, 2, m, k),
       big_b.block(5, 1, k, n), -0.5, big_c.block(2, 4, m, n));
  ref::gemm(Trans::No, Trans::No, 1.0,
            ConstMatrixView<double>(big_a.block(3, 2, m, k)),
            ConstMatrixView<double>(big_b.block(5, 1, k, n)), -0.5,
            c_ref.block(2, 4, m, n));
  EXPECT_MATRIX_NEAR(big_c, c_ref, 1e-9);
}

class SyrkBoundaryParam
    : public ::testing::TestWithParam<std::tuple<int, Uplo, Trans>> {};

TEST_P(SyrkBoundaryParam, MatchesReferenceAroundTriBlockEdges) {
  const auto [n, uplo, trans] = GetParam();
  const int k = kGemmKC + 1;
  auto a =
      trans == Trans::No ? random_matrix(n, k, 30) : random_matrix(k, n, 30);
  auto c = random_matrix(n, n, 31);
  auto c_ref = c;
  syrk(uplo, trans, -1.0, a.view(), 0.3, c.view());
  ref::syrk(uplo, trans, -1.0, a.view(), 0.3, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PanelEdges, SyrkBoundaryParam,
    ::testing::Combine(::testing::Values(kTriBlock - 1, kTriBlock + 1,
                                         2 * kTriBlock + 1),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes)));

class TriBoundaryParam
    : public ::testing::TestWithParam<
          std::tuple<int, Side, Uplo, Trans, Diag>> {};

/// Triangular factor that stays well-conditioned at depth 2*kTriBlock+1
/// even with a unit diagonal: small centered off-diagonals keep the
/// substitution from amplifying exponentially (which would drown the
/// blocked-vs-reference comparison in conditioning noise).
Matrix<double> boundary_tri(int ka, std::uint64_t seed) {
  auto a = random_matrix(ka, ka, seed);
  for (int j = 0; j < ka; ++j) {
    for (int i = 0; i < ka; ++i) a(i, j) = 0.2 * (a(i, j) - 0.5);
  }
  for (int i = 0; i < ka; ++i) a(i, i) = 3.0 + 0.5 * i;
  return a;
}

TEST_P(TriBoundaryParam, TrsmMatchesReferenceAroundTriBlockEdges) {
  const auto [sz, side, uplo, trans, diag] = GetParam();
  const int m = side == Side::Left ? sz : 33;
  const int n = side == Side::Left ? 33 : sz;
  const int ka = side == Side::Left ? m : n;
  auto a = boundary_tri(ka, 32);
  auto b = random_matrix(m, n, 33);
  auto b_ref = b;
  trsm(side, uplo, trans, diag, -0.7, a.view(), b.view());
  ref::trsm(side, uplo, trans, diag, -0.7, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-9);
}

TEST_P(TriBoundaryParam, TrmmMatchesReferenceAroundTriBlockEdges) {
  const auto [sz, side, uplo, trans, diag] = GetParam();
  const int m = side == Side::Left ? sz : 33;
  const int n = side == Side::Left ? 33 : sz;
  const int ka = side == Side::Left ? m : n;
  auto a = boundary_tri(ka, 34);
  auto b = random_matrix(m, n, 35);
  auto b_ref = b;
  trmm(side, uplo, trans, diag, 0.3, a.view(), b.view());
  ref::trmm(side, uplo, trans, diag, 0.3, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PanelEdges, TriBoundaryParam,
    ::testing::Combine(::testing::Values(kTriBlock - 1, kTriBlock + 1,
                                         2 * kTriBlock + 1),
                       ::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

// --------------------------------------------------------------------
// Thread-count invariance: the parallel GEMM core partitions C into
// disjoint tiles with a barrier per KC step, so results must be
// BIT-identical for every thread count, not merely close.
// --------------------------------------------------------------------

class ThreadedBlas : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_threads(1); }
};

TEST_F(ThreadedBlas, ResultsAreBitIdenticalAcrossThreadCounts) {
  const int n = 2 * kGemmMC + 7;  // several MC panels => real fan-out
  auto a = random_matrix(n, n, 36);
  auto b = random_matrix(n, n, 37);
  auto tri = random_matrix(n, n, 38);
  for (int i = 0; i < n; ++i) tri(i, i) = 4.0 + 0.25 * i;

  common::set_global_threads(1);
  auto c1 = random_matrix(n, n, 39);
  auto s1 = random_matrix(n, n, 40);
  auto t1 = random_matrix(n, n, 41);
  auto w1 = random_matrix(n, n, 42);
  gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c1.view());
  syrk(Uplo::Lower, Trans::No, -1.0, a.view(), 1.0, s1.view());
  trsm(Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, tri.view(),
       t1.view());
  trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, tri.view(),
       w1.view());

  for (const int threads : {2, 4}) {
    common::set_global_threads(threads);
    auto c = random_matrix(n, n, 39);
    auto s = random_matrix(n, n, 40);
    auto t = random_matrix(n, n, 41);
    auto w = random_matrix(n, n, 42);
    gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c.view());
    syrk(Uplo::Lower, Trans::No, -1.0, a.view(), 1.0, s.view());
    trsm(Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, tri.view(),
         t.view());
    trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, tri.view(),
         w.view());
    EXPECT_TRUE(c == c1) << "gemm differs at threads=" << threads;
    EXPECT_TRUE(s == s1) << "syrk differs at threads=" << threads;
    EXPECT_TRUE(t == t1) << "trsm differs at threads=" << threads;
    EXPECT_TRUE(w == w1) << "trmm differs at threads=" << threads;
  }
}

TEST_F(ThreadedBlas, ParallelGemmMatchesReference) {
  const int m = kGemmMC * 2 + 3, n = 65, k = kGemmKC + 9;
  common::set_global_threads(4);
  auto a = random_matrix(m, k, 43);
  auto b = random_matrix(k, n, 44);
  auto c = random_matrix(m, n, 45);
  auto c_ref = c;
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.3, c.view());
  ref::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.3,
            c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-9);
}

// --------------------------------------------------------------------
// Numeric contract of the packed GEMM core. After beta scales C, each
// KC-deep block of the k loop gives every C element a sum that starts
// at +0 and adds the rounded products (alpha * op(A)(i,p)) * op(B)(p,j)
// in p order, then one add into C. So KC (256) is part of the results
// and MR, NR, MC, NC and the thread count are not. The model below is
// that contract as scalar code; gemm must match it bit for bit.
// --------------------------------------------------------------------

constexpr int kContractKC = 256;

void contract_gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
                   ConstMatrixView<double> b, double beta,
                   MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      if (beta == 0.0) {
        c(i, j) = 0.0;
      } else if (beta != 1.0) {
        c(i, j) *= beta;
      }
    }
  }
  for (int pc = 0; pc < k; pc += kContractKC) {
    const int pe = std::min(k, pc + kContractKC);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double s = 0.0;
        for (int p = pc; p < pe; ++p) {
          const double ap = alpha * (ta == Trans::No ? a(i, p) : a(p, i));
          // Rounded on its own even where the build contracts a*b+c.
          const volatile double prod =
              ap * (tb == Trans::No ? b(p, j) : b(j, p));
          s += prod;
        }
        c(i, j) += s;
      }
    }
  }
}

class GemmContractParam
    : public ::testing::TestWithParam<std::tuple<Trans, Trans, int, int>> {
 protected:
  void TearDown() override { common::set_global_threads(1); }
};

TEST_P(GemmContractParam, PackedPathIsBitIdenticalToTheContract) {
  const auto [ta, tb, k, threads] = GetParam();
  common::set_global_threads(threads);
  // Neither m nor n is a multiple of the register tile; m spans three
  // MC panels and m*n*k is above the pool's engagement threshold, so
  // 4 threads really fan out. Every operand is a view with ld > rows.
  const int m = 2 * kGemmMC + 3;
  const int n = 5 * kGemmNR + 5;
  const int ar = ta == Trans::No ? m : k;
  const int ac = ta == Trans::No ? k : m;
  const int br = tb == Trans::No ? k : n;
  const int bc = tb == Trans::No ? n : k;
  auto big_a = random_matrix(ar + 5, ac + 2, 51);
  auto big_b = random_matrix(br + 3, bc + 1, 52);
  MatrixView<double> av = big_a.block(2, 1, ar, ac);
  MatrixView<double> bv = big_b.block(1, 0, br, bc);
  // op(A) row 0 is zero and op(B) column 0 negative, so for alpha > 0
  // every product into C(0,0) is -0: a sum started at +0 stays +0 and
  // turns the -0 seeded in C(0,0) into +0 when beta = 1.
  for (int p = 0; p < k; ++p) {
    (ta == Trans::No ? av(0, p) : av(p, 0)) = 0.0;
    double& b0 = tb == Trans::No ? bv(p, 0) : bv(0, p);
    b0 = -std::abs(b0) - 0.5;
  }
  for (const double alpha : {1.0, -1.0, 0.37}) {
    for (const double beta : {0.0, 1.0, -0.5}) {
      auto big_c = random_matrix(m + 4, n + 3, 53);
      big_c(3, 2) = -0.0;
      auto model = big_c;
      gemm(ta, tb, alpha, av, bv, beta, big_c.block(3, 2, m, n));
      contract_gemm(ta, tb, alpha, av, bv, beta, model.block(3, 2, m, n));
      int mismatches = 0;
      for (int j = 0; j < big_c.cols(); ++j) {
        for (int i = 0; i < big_c.rows(); ++i) {
          if (std::bit_cast<std::uint64_t>(big_c(i, j)) !=
              std::bit_cast<std::uint64_t>(model(i, j))) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << "alpha=" << alpha << " beta=" << beta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransKThreads, GemmContractParam,
    ::testing::Combine(::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(kContractKC - 1, kContractKC + 1,
                                         2 * kContractKC + 3),
                       ::testing::Values(1, 4)));

TEST(FlopCounts, MatchClosedForms) {
  EXPECT_EQ(gemm_flops(3, 4, 5), 120);
  EXPECT_EQ(syrk_flops(4, 6), 4 * 5 * 6);
  EXPECT_EQ(trsm_flops(Side::Left, 5, 7), 25 * 7);
  EXPECT_EQ(trsm_flops(Side::Right, 5, 7), 49 * 5);
  EXPECT_EQ(gemv_flops(6, 7), 84);
  EXPECT_EQ(potrf_flops(10), 1000 / 3);
}

}  // namespace
}  // namespace ftla::blas
