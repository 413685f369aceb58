// Checksum codec tests: the mathematical heart of the ABFT scheme.
//
// Covers encoding, detection/location/correction of single errors,
// checksum self-repair, uncorrectable patterns, the row decoder as the
// column decoder's exact transpose, and — crucially — the invariance of
// the checksum relation under each of the four update rules the paper
// derives (SYRK, GEMM, POTF2/Algorithm 2, TRSM).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "abft/checksum.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "common/fp.hpp"
#include "common/thread_pool.hpp"
#include "test_util.hpp"

namespace ftla::abft {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;
using test::random_matrix;

Matrix<double> encode(const Matrix<double>& a,
                      int redundancy = kChecksumRows) {
  Matrix<double> chk(redundancy, a.cols());
  encode_block(a.view(), chk.view());
  return chk;
}

double recalc_mismatch(const Matrix<double>& a, const Matrix<double>& chk) {
  Matrix<double> r(kChecksumRows, a.cols());
  encode_block(a.view(), r.view());
  double worst = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    const double scale = std::max(1.0, std::abs(chk(1, j)));
    worst = std::max(worst, std::abs(r(0, j) - chk(0, j)) / scale);
    worst = std::max(worst, std::abs(r(1, j) - chk(1, j)) / scale);
  }
  return worst;
}

TEST(Encode, WeightsAreOneAndRowIndex) {
  Matrix<double> a(4, 2, 0.0);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;
  a(2, 0) = 3.0;
  a(3, 0) = 4.0;
  a(2, 1) = 5.0;
  auto chk = encode(a);
  EXPECT_DOUBLE_EQ(chk(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(chk(1, 0), 1 + 4 + 9 + 16);
  EXPECT_DOUBLE_EQ(chk(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(chk(1, 1), 15.0);
}

/// encode_block's contract as scalar code: column c's sum k adds the
/// rounded products w * A(i,c), w = (i+1)^k formed by repeated
/// multiplication, in row order from +0.
void encode_model(ConstMatrixView<double> a, MatrixView<double> chk) {
  const int redundancy = chk.rows();
  for (int c = 0; c < a.cols(); ++c) {
    double s[kMaxChecksumRows] = {};
    for (int i = 0; i < a.rows(); ++i) {
      const double v = a(i, c);
      const double r = i + 1.0;
      double w = r;
      s[0] += v;
      for (int k = 1; k < redundancy; ++k) {
        // Rounded on its own even where the build contracts a*b+c.
        const volatile double prod = w * v;
        s[k] += prod;
        w *= r;
      }
    }
    for (int k = 0; k < redundancy; ++k) chk(k, c) = s[k];
  }
}

class EncodeContract : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_threads(1); }

  /// Encodes a rows x cols view (ld > rows) into an R x cols view (ld >
  /// R) and counts the bits that differ from the model anywhere in the
  /// checksum matrix, the cells around the view included.
  static int mismatches(int redundancy, int rows, int cols) {
    auto big_a = random_matrix(rows + 3, cols + 2, 71);
    auto big_chk = random_matrix(redundancy + 2, cols + 3, 72);
    auto model = big_chk;
    const auto av = std::as_const(big_a).block(2, 1, rows, cols);
    encode_block(av, big_chk.block(1, 2, redundancy, cols));
    encode_model(av, model.block(1, 2, redundancy, cols));
    int bad = 0;
    for (int j = 0; j < big_chk.cols(); ++j) {
      for (int i = 0; i < big_chk.rows(); ++i) {
        bad += std::bit_cast<std::uint64_t>(big_chk(i, j)) !=
               std::bit_cast<std::uint64_t>(model(i, j));
      }
    }
    return bad;
  }
};

TEST_F(EncodeContract, BitIdenticalToScalarLaneSums) {
  // Column counts around the four-column sweep, at every redundancy.
  for (int r = 2; r <= kMaxChecksumRows; ++r) {
    for (const int cols : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
      EXPECT_EQ(mismatches(r, 13, cols), 0) << "R " << r << ", " << cols
                                            << " columns";
    }
  }
  // The pool path: 130 x 131 elements pass the 16384-element cutoff, and
  // four lanes split 131 columns at 33, 66 and 99, not multiples of four.
  common::set_global_threads(4);
  for (int r = 2; r <= kMaxChecksumRows; ++r) {
    EXPECT_EQ(mismatches(r, 130, 131), 0) << "R " << r << ", pool";
  }
}

TEST(Verify, CleanBlockHasNoFindings) {
  auto a = random_matrix(16, 16, 1);
  auto chk = encode(a);
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(out.errors_detected, 0);
}

// (block size, row, col) of the corrupted element.
constexpr std::tuple<int, int, int> kSingleErrorPositions[] = {
    {8, 0, 0},   {8, 7, 7},   {8, 0, 7}, {8, 7, 0},
    {16, 5, 11}, {32, 31, 0}, {1, 0, 0}, {3, 1, 2}};

class SingleErrorParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SingleErrorParam, LocatedAndCorrected) {
  const auto [size, row, col] = GetParam();
  auto a = random_matrix(size, size, 7);
  auto chk = encode(a);
  const double original = a(row, col);
  a(row, col) += 1234.5;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_detected, 1);
  EXPECT_EQ(out.errors_corrected, 1);
  ASSERT_EQ(out.corrections.size(), 1u);
  EXPECT_EQ(out.corrections[0].row, row);
  EXPECT_EQ(out.corrections[0].col, col);
  EXPECT_NEAR(a(row, col), original, 1e-9 * std::abs(original) + 1e-9);
  EXPECT_FALSE(out.uncorrectable);
}

INSTANTIATE_TEST_SUITE_P(Positions, SingleErrorParam,
                         ::testing::ValuesIn(kSingleErrorPositions));

TEST(Verify, BitFlipStorageErrorCorrected) {
  auto a = random_matrix(12, 12, 9);
  auto chk = encode(a);
  const double original = a(4, 6);
  a(4, 6) = flip_bit(flip_bit(a(4, 6), 20), 54);  // multi-bit flip
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 1);
  EXPECT_NEAR(a(4, 6), original, 1e-8 * std::max(1.0, std::abs(original)));
}

TEST(Verify, ErrorsInDistinctColumnsAllCorrected) {
  auto a = random_matrix(10, 10, 11);
  auto chk = encode(a);
  Matrix<double> orig = a;
  a(2, 1) += 100.0;
  a(7, 4) -= 55.0;
  a(9, 9) += 3e4;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 3);
  EXPECT_FALSE(out.uncorrectable);
  EXPECT_LE(test::lower_max_diff(a, orig), 1e-7);
}

TEST(Verify, TwoErrorsInOneColumnAreUncorrectable) {
  auto a = random_matrix(10, 10, 13);
  auto chk = encode(a);
  a(2, 5) += 100.0;
  a(8, 5) += 77.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_TRUE(out.uncorrectable);
}

TEST(Verify, CorruptedChecksumRow1IsRepaired) {
  auto a = random_matrix(8, 8, 15);
  auto chk = encode(a);
  chk(0, 3) += 500.0;  // damage the unweighted checksum itself
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.checksum_repairs, 1);
  EXPECT_EQ(out.errors_corrected, 0);
  EXPECT_FALSE(out.uncorrectable);
  // chk must now be consistent again.
  EXPECT_LT(recalc_mismatch(a, chk), 1e-12);
}

TEST(Verify, CorruptedChecksumRow2IsRepaired) {
  auto a = random_matrix(8, 8, 17);
  auto chk = encode(a);
  chk(1, 6) = flip_bit(chk(1, 6), 55);
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.checksum_repairs, 1);
  EXPECT_LT(recalc_mismatch(a, chk), 1e-12);
}

TEST(Verify, RowOneErrorNotMistakenForChecksumDamage) {
  // delta1 == delta2 when the corrupt element sits in row 1; the decoder
  // must correct the data, not "repair" the checksum.
  auto a = random_matrix(8, 8, 19);
  auto chk = encode(a);
  const double original = a(0, 2);
  a(0, 2) += 250.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 1);
  EXPECT_EQ(out.checksum_repairs, 0);
  EXPECT_NEAR(a(0, 2), original, 1e-9);
}

TEST(Verify, RectangularBlock) {
  auto a = random_matrix(12, 5, 21);
  auto chk = encode(a);
  const double original = a(11, 4);
  a(11, 4) -= 42.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 1);
  EXPECT_NEAR(a(11, 4), original, 1e-10);
}

TEST(Verify, ExponentScaleErrorResolvedFromChecksum) {
  // An error far above the clean checksum scale: subtracting the
  // syndrome would leave |d1|*eps of residue, so the decoder re-solves
  // the element from the checksum and its clean neighbors instead.
  auto a = random_matrix(16, 16, 25);
  auto chk = encode(a);
  const double original = a(9, 3);
  a(9, 3) *= 0x1p60;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 1);
  EXPECT_FALSE(out.uncorrectable);
  EXPECT_NEAR(a(9, 3), original, 1e-12);
}

TEST(Verify, ToleranceRejectsRoundoffNoise) {
  // Accumulate legitimate rounding by updating both data and checksums
  // through a long chain of consistent operations.
  const int n = 24;
  auto a = random_matrix(n, n, 23);
  auto chk = encode(a);
  auto u = random_matrix(n, n, 24);
  auto chk_u = encode(u);
  for (int rep = 0; rep < 20; ++rep) {
    // a += u * 0.01 (consistent on data and checksums)
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) a(i, j) += 0.01 * u(i, j);
      chk(0, j) += 0.01 * chk_u(0, j);
      chk(1, j) += 0.01 * chk_u(1, j);
    }
  }
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_TRUE(out.clean());
}

// ---------------------------------------------------------------------
// The row decoder is the column decoder transposed
// ---------------------------------------------------------------------

Matrix<double> transposed(const Matrix<double>& m) {
  Matrix<double> t(m.cols(), m.rows());
  for (int j = 0; j < m.cols(); ++j)
    for (int i = 0; i < m.rows(); ++i) t(j, i) = m(i, j);
  return t;
}

void expect_same_bits(const Matrix<double>& x, const Matrix<double>& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i)
      ASSERT_EQ(x(i, j), y(i, j)) << "at (" << i << ", " << j << ")";
}

/// One column-decoder setup: a random rows x cols block (seed) and its
/// R column checksums, then `corrupt` damages the data and/or checksums.
struct DecoderCase {
  std::string name;
  int rows;
  int cols;
  std::uint64_t seed;
  std::function<void(Matrix<double>&, Matrix<double>&)> corrupt;
};

// The column-decoder cases of this file, each with its damage.
std::vector<DecoderCase> column_decoder_cases() {
  using M = Matrix<double>;
  std::vector<DecoderCase> cases = {
      {"clean", 16, 16, 1, [](M&, M&) {}},
      {"bit_flip", 12, 12, 9,
       [](M& a, M&) { a(4, 6) = flip_bit(flip_bit(a(4, 6), 20), 54); }},
      {"distinct_columns", 10, 10, 11,
       [](M& a, M&) {
         a(2, 1) += 100.0;
         a(7, 4) -= 55.0;
         a(9, 9) += 3e4;
       }},
      {"two_in_one_column", 10, 10, 13,
       [](M& a, M&) {
         a(2, 5) += 100.0;
         a(8, 5) += 77.0;
       }},
      {"checksum_1_damage", 8, 8, 15, [](M&, M& chk) { chk(0, 3) += 500.0; }},
      {"checksum_2_damage", 8, 8, 17,
       [](M&, M& chk) { chk(1, 6) = flip_bit(chk(1, 6), 55); }},
      {"two_checksum_rows_damage", 8, 8, 27,
       [](M&, M& chk) {
         chk(0, 4) += 500.0;
         chk(1, 4) -= 300.0;
       }},
      {"first_row_error", 8, 8, 19, [](M& a, M&) { a(0, 2) += 250.0; }},
      {"rectangular", 12, 5, 21, [](M& a, M&) { a(11, 4) -= 42.0; }},
      {"exponent_scale", 16, 16, 25, [](M& a, M&) { a(9, 3) *= 0x1p60; }},
      {"roundoff_noise", 24, 24, 23,
       [](M& a, M& chk) {
         const auto u = random_matrix(24, 24, 24);
         const auto chk_u = encode(u, chk.rows());
         for (int rep = 0; rep < 20; ++rep) {
           for (int j = 0; j < 24; ++j) {
             for (int i = 0; i < 24; ++i) a(i, j) += 0.01 * u(i, j);
             for (int k = 0; k < chk.rows(); ++k) {
               chk(k, j) += 0.01 * chk_u(k, j);
             }
           }
         }
       }},
  };
  for (const auto& [size, row, col] : kSingleErrorPositions) {
    cases.push_back({"single_" + std::to_string(size) + "_" +
                         std::to_string(row) + "_" + std::to_string(col),
                     size, size, 7,
                     [row = row, col = col](M& a, M&) {
                       a(row, col) += 1234.5;
                     }});
  }
  return cases;
}

// Above R = 2 the row view also covers the subset-flagged rule and
// Prony decoding (the two-error column at R = 4).
TEST(RowDecoder, MirrorsColumnDecoderBitForBit) {
  for (int r : {2, 3, 4}) {
    for (const DecoderCase& dc : column_decoder_cases()) {
      SCOPED_TRACE(dc.name + " R=" + std::to_string(r));
      auto a = random_matrix(dc.rows, dc.cols, dc.seed);
      auto chk = encode(a, r);
      dc.corrupt(a, chk);
      auto at = transposed(a);
      auto chk_t = transposed(chk);

      const auto recalc = encode(a, r);
      Matrix<double> recalc_t(at.rows(), r);
      encode_block_rows(at.view(), recalc_t.view());
      expect_same_bits(recalc_t, transposed(recalc));

      const VerifyOutcome col =
          verify_block(a.view(), chk.view(), recalc.view(), Tolerance{});
      const VerifyOutcome row = verify_block_rows(at.view(), chk_t.view(),
                                                  recalc_t.view(), Tolerance{});
      EXPECT_EQ(row.errors_detected, col.errors_detected);
      EXPECT_EQ(row.errors_corrected, col.errors_corrected);
      EXPECT_EQ(row.checksum_repairs, col.checksum_repairs);
      EXPECT_EQ(row.uncorrectable, col.uncorrectable);
      ASSERT_EQ(row.corrections.size(), col.corrections.size());
      for (std::size_t k = 0; k < col.corrections.size(); ++k) {
        EXPECT_EQ(row.corrections[k].row, col.corrections[k].col);
        EXPECT_EQ(row.corrections[k].col, col.corrections[k].row);
        EXPECT_EQ(row.corrections[k].old_value, col.corrections[k].old_value);
        EXPECT_EQ(row.corrections[k].new_value, col.corrections[k].new_value);
      }
      expect_same_bits(at, transposed(a));
      expect_same_bits(chk_t, transposed(chk));
    }
  }
}

// ---------------------------------------------------------------------
// Checksum invariance under the paper's four update rules (§IV-B)
// ---------------------------------------------------------------------

TEST(UpdateRules, SyrkRule) {
  // A' = A - LC LC^T with chk(A') = chk(A) - chk(LC) LC^T.
  const int b = 16, w = 24;
  auto a = random_matrix(b, b, 31);
  auto lc = random_matrix(b, w, 32);
  auto chk_a = encode(a);
  auto chk_lc = encode(lc);
  blas::gemm(Trans::No, Trans::Yes, -1.0, lc.view(), lc.view(), 1.0,
             a.view());
  blas::gemm(Trans::No, Trans::Yes, -1.0, chk_lc.view(), lc.view(), 1.0,
             chk_a.view());
  EXPECT_LT(recalc_mismatch(a, chk_a), 1e-11);
}

TEST(UpdateRules, GemmRule) {
  // B' = B - LD LC^T with chk(B') = chk(B) - chk(LD) LC^T.
  const int b = 16, w = 24;
  auto bm = random_matrix(b, b, 33);
  auto ld = random_matrix(b, w, 34);
  auto lc = random_matrix(b, w, 35);
  auto chk_b = encode(bm);
  auto chk_ld = encode(ld);
  blas::gemm(Trans::No, Trans::Yes, -1.0, ld.view(), lc.view(), 1.0,
             bm.view());
  blas::gemm(Trans::No, Trans::Yes, -1.0, chk_ld.view(), lc.view(), 1.0,
             chk_b.view());
  EXPECT_LT(recalc_mismatch(bm, chk_b), 1e-11);
}

class Potf2RuleParam : public ::testing::TestWithParam<int> {};

TEST_P(Potf2RuleParam, Algorithm2YieldsChecksumOfL) {
  const int n = GetParam();
  auto a = test::random_spd(n, 37);
  auto chk = encode(a);
  blas::potf2(a.view());
  // Zero the strict upper triangle: the stored block is exactly L.
  for (int c = 1; c < n; ++c)
    for (int r = 0; r < c; ++r) a(r, c) = 0.0;
  potf2_update_checksum(a.view(), chk.view());
  EXPECT_LT(recalc_mismatch(a, chk), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Potf2RuleParam,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

TEST(UpdateRules, TrsmRule) {
  // LB = B' (LA^T)^{-1} with chk(LB) = chk(B') (LA^T)^{-1}.
  const int b = 16;
  auto la = test::random_spd(b, 41);
  blas::potf2(la.view());
  auto bm = random_matrix(b, b, 42);
  auto chk_b = encode(bm);
  blas::trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
             la.view(), bm.view());
  blas::trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
             la.view(), chk_b.view());
  EXPECT_LT(recalc_mismatch(bm, chk_b), 1e-10);
}

TEST(UpdateRules, FullFactorizationKeepsEveryBlockConsistent) {
  // Drive a miniature blocked factorization by hand, maintaining
  // checksums with the four rules, and check consistency block by block.
  const int b = 8, nb = 4, n = b * nb;
  auto a = test::random_spd(n, 43);
  Matrix<double> chk(kChecksumRows * nb, n);
  auto chk_block = [&](int i, int k) {
    return chk.block(kChecksumRows * i, k * b, kChecksumRows, b);
  };
  for (int k = 0; k < nb; ++k)
    for (int i = k; i < nb; ++i)
      encode_block(a.block(i * b, k * b, b, b), chk_block(i, k));

  for (int j = 0; j < nb; ++j) {
    const int w = j * b;
    // SYRK + rule
    if (j > 0) {
      blas::gemm(Trans::No, Trans::Yes, -1.0,
                 ConstMatrixView<double>(a.block(w, 0, b, w)),
                 a.block(w, 0, b, w), 1.0, a.block(w, w, b, b));
      blas::gemm(Trans::No, Trans::Yes, -1.0,
                 ConstMatrixView<double>(
                     chk.block(kChecksumRows * j, 0, kChecksumRows, w)),
                 a.block(w, 0, b, w), 1.0, chk_block(j, j));
      // GEMM + rule
      const int below = n - w - b;
      if (below > 0) {
        blas::gemm(Trans::No, Trans::Yes, -1.0,
                   ConstMatrixView<double>(a.block(w + b, 0, below, w)),
                   a.block(w, 0, b, w), 1.0, a.block(w + b, w, below, b));
        blas::gemm(
            Trans::No, Trans::Yes, -1.0,
            ConstMatrixView<double>(chk.block(kChecksumRows * (j + 1), 0,
                                              kChecksumRows * (nb - j - 1),
                                              w)),
            a.block(w, 0, b, w), 1.0,
            chk.block(kChecksumRows * (j + 1), w,
                      kChecksumRows * (nb - j - 1), b));
      }
    }
    // POTF2 + Algorithm 2
    auto diag = a.block(w, w, b, b);
    blas::potf2(diag);
    for (int c = 1; c < b; ++c)
      for (int r = 0; r < c; ++r) diag(r, c) = 0.0;
    potf2_update_checksum(ConstMatrixView<double>(diag), chk_block(j, j));
    // TRSM + rule
    const int below = n - w - b;
    if (below > 0) {
      blas::trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
                 ConstMatrixView<double>(diag), a.block(w + b, w, below, b));
      blas::trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
                 ConstMatrixView<double>(diag),
                 chk.block(kChecksumRows * (j + 1), w,
                           kChecksumRows * (nb - j - 1), b));
    }
  }

  for (int k = 0; k < nb; ++k) {
    for (int i = k; i < nb; ++i) {
      Matrix<double> blk(b, b);
      copy(ConstMatrixView<double>(a.block(i * b, k * b, b, b)),
           blk.view());
      Matrix<double> cb(kChecksumRows, b);
      copy(ConstMatrixView<double>(chk_block(i, k)), cb.view());
      EXPECT_LT(recalc_mismatch(blk, cb), 1e-9)
          << "block (" << i << ", " << k << ")";
    }
  }
}

TEST(Tolerance, ThresholdScalesWithMagnitude) {
  Tolerance tol{1e-8, 1e-6};
  EXPECT_DOUBLE_EQ(tol.threshold(1e6), 1e-2);
  EXPECT_DOUBLE_EQ(tol.threshold(0.0), 1e-14);  // floor applies
}

}  // namespace
}  // namespace ftla::abft
