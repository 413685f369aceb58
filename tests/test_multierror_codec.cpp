// Tests for the checksum codec above the paper's two checksums: with R
// Vandermonde-weighted checksum rows it is a real-field Reed-Solomon
// code that corrects floor(R/2) errors per block column (extension of
// paper §IV-A), and odd R detects one error beyond that.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "abft/checksum.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "common/fp.hpp"
#include "test_util.hpp"

namespace ftla::abft {
namespace {

using test::random_matrix;

Matrix<double> encode(const Matrix<double>& a, int redundancy) {
  Matrix<double> chk(redundancy, a.cols());
  encode_block(a.view(), chk.view());
  return chk;
}

double mismatch(const Matrix<double>& a, const Matrix<double>& chk) {
  const int r = chk.rows();
  const auto fresh = encode(a, r);
  double worst = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int k = 0; k < r; ++k) {
      const double scale = std::max(1.0, std::abs(chk(r - 1, j)));
      worst = std::max(worst, std::abs(fresh(k, j) - chk(k, j)) / scale);
    }
  }
  return worst;
}

TEST(MultiErrorCodec, CleanBlockVerifiesClean) {
  for (int r : {2, 3, 4, 6, 8}) {
    auto a = random_matrix(16, 16, 2);
    auto chk = encode(a, r);
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    EXPECT_TRUE(out.clean()) << "R=" << r;
  }
}

class MultiErrorCodecSingleError
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MultiErrorCodecSingleError, CorrectedAtEveryRedundancy) {
  const auto [redundancy, row, col] = GetParam();
  auto a = random_matrix(24, 24, 3);
  auto chk = encode(a, redundancy);
  const double orig = a(row, col);
  a(row, col) += 4321.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 1);
  EXPECT_FALSE(out.uncorrectable);
  EXPECT_NEAR(a(row, col), orig, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MultiErrorCodecSingleError,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(0, 11, 23),
                       ::testing::Values(0, 7, 23)));

TEST(MultiErrorCodec, TwoErrorsSameColumnCorrectedWithRedundancyFour) {
  auto a = random_matrix(32, 32, 4);
  auto chk = encode(a, 4);
  const double o1 = a(5, 9);
  const double o2 = a(20, 9);
  a(5, 9) += 1000.0;
  a(20, 9) -= 777.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 2);
  EXPECT_FALSE(out.uncorrectable);
  EXPECT_NEAR(a(5, 9), o1, 1e-7);
  EXPECT_NEAR(a(20, 9), o2, 1e-7);
}

TEST(MultiErrorCodec, TwoErrorsSameColumnUncorrectableWithRedundancyTwo) {
  auto a = random_matrix(32, 32, 5);
  auto chk = encode(a, 2);
  a(5, 9) += 1000.0;
  a(20, 9) -= 777.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_TRUE(out.uncorrectable);
}

TEST(MultiErrorCodec, AdjacentRowPairCorrected) {
  // Adjacent error rows give the worst-conditioned locator.
  auto a = random_matrix(64, 8, 6);
  auto chk = encode(a, 4);
  const double o1 = a(30, 3), o2 = a(31, 3);
  a(30, 3) += 2e4;
  a(31, 3) += 3e4;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 2);
  EXPECT_NEAR(a(30, 3), o1, 1e-5);
  EXPECT_NEAR(a(31, 3), o2, 1e-5);
}

TEST(MultiErrorCodec, ThreeErrorsCorrectedWithRedundancySix) {
  auto a = random_matrix(24, 6, 7);
  auto chk = encode(a, 6);
  const double o[3] = {a(2, 1), a(10, 1), a(17, 1)};
  a(2, 1) += 900.0;
  a(10, 1) -= 4e3;
  a(17, 1) += 2.5e3;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.errors_corrected, 3);
  EXPECT_NEAR(a(2, 1), o[0], 1e-4);
  EXPECT_NEAR(a(10, 1), o[1], 1e-4);
  EXPECT_NEAR(a(17, 1), o[2], 1e-4);
}

TEST(MultiErrorCodec, BeyondCapacityDetectedNotMiscorrected) {
  auto a = random_matrix(32, 4, 8);
  auto chk = encode(a, 4);
  a(1, 2) += 1e3;
  a(9, 2) -= 2e3;
  a(25, 2) += 3e3;  // three errors, capacity two
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_TRUE(out.uncorrectable || out.errors_corrected == 0)
      << "must not silently mis-correct";
}

TEST(MultiErrorCodec, CorruptedChecksumRowRepaired) {
  for (int r : {2, 4}) {
    auto a = random_matrix(16, 16, 9);
    auto chk = encode(a, r);
    chk(r - 1, 5) = flip_bit(chk(r - 1, 5), 55);
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    EXPECT_EQ(out.checksum_repairs, 1) << "R=" << r;
    EXPECT_EQ(out.errors_corrected, 0) << "R=" << r;
    EXPECT_LT(mismatch(a, chk), 1e-9) << "R=" << r;
  }
}

TEST(MultiErrorCodec, MultipleChecksumRowsRepaired) {
  auto a = random_matrix(16, 16, 10);
  auto chk = encode(a, 4);
  chk(0, 5) += 999.0;
  chk(2, 5) -= 123.0;
  auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
  EXPECT_EQ(out.checksum_repairs, 2);
  EXPECT_LT(mismatch(a, chk), 1e-9);
}

/// Flips mantissa bit `bit` in two same-sign, same-binade values of
/// column `col` whose bit is in opposite states: one moves by +delta,
/// the other by -delta, so the unweighted column sum cannot see the
/// pair. Values below 2^-4 are skipped so the weighted syndromes stand
/// well above their thresholds. False when the column has no such pair.
bool plant_cancelling_pair(Matrix<double>& a, int col, int bit) {
  const auto state = [bit](double x) { return (double_to_bits(x) >> bit) & 1; };
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = i + 1; j < a.rows(); ++j) {
      const double x = a(i, col);
      const double y = a(j, col);
      if (std::abs(x) < 0x1p-4 || std::signbit(x) != std::signbit(y) ||
          std::ilogb(x) != std::ilogb(y) || state(x) == state(y)) {
        continue;
      }
      a(i, col) = flip_bit(x, bit);
      a(j, col) = flip_bit(y, bit);
      return true;
    }
  }
  return false;
}

TEST(MultiErrorCodec, CancellingPairUncorrectableWithRedundancyThree) {
  // The pair leaves d0 clean and flags d1 and d2: two checksum rows
  // cannot both be damaged within the one error R = 3 corrects, so the
  // column must escalate rather than have its checksums "repaired".
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_matrix(16, 16, 4000 + trial);
    auto chk = encode(a, 3);
    const int bit = rng.uniform_int(46, 51);
    int col = rng.uniform_int(0, 15);
    bool planted = plant_cancelling_pair(a, col, bit);
    for (int tries = 1; tries < 16 && !planted; ++tries) {
      col = (col + 1) % 16;
      planted = plant_cancelling_pair(a, col, bit);
    }
    ASSERT_TRUE(planted) << "trial " << trial;
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    EXPECT_TRUE(out.uncorrectable) << "trial " << trial << " col " << col;
  }
}

TEST(MultiErrorCodec, DataPlusChecksumRowZeroNeverSilentWithRedundancyThree) {
  // A data flip plus damage to checksum row 0 of the same column: either
  // exactly opposite (d0 clean, the pair hides from the plain sum) or an
  // independent flip (all syndromes flag and d1/d0 may alias to a valid
  // row). Either way the column must end up repaired or escalated. Data
  // values below 2^-4 are skipped, as for the cancelling pair.
  Rng rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_matrix(16, 16, 6000 + trial);
    const Matrix<double> orig = a;
    auto chk = encode(a, 3);
    const int col = rng.uniform_int(0, 15);
    int row = rng.uniform_int(0, 15);
    while (std::abs(a(row, col)) < 0x1p-4) row = (row + 1) % 16;
    a(row, col) = flip_bit(a(row, col), rng.uniform_int(46, 51));
    if (trial % 2 == 0) {
      chk(0, col) += a(row, col) - orig(row, col);
    } else {
      chk(0, col) = flip_bit(chk(0, col), rng.uniform_int(46, 51));
    }
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    if (out.uncorrectable) continue;
    for (int i = 0; i < 16; ++i) {
      EXPECT_NEAR(a(i, col), orig(i, col), 1e-12)
          << "trial " << trial << " silently wrong at row " << i;
    }
  }
}

TEST(MultiErrorCodec, Potf2TransformInvariantAtHigherRedundancy) {
  const int n = 32;
  for (int r : {2, 3, 4}) {
    auto a = test::random_spd(n, 11);
    auto chk = encode(a, r);
    blas::potf2(a.view());
    for (int c = 1; c < n; ++c)
      for (int row = 0; row < c; ++row) a(row, c) = 0.0;
    potf2_update_checksum(a.view(), chk.view());
    EXPECT_LT(mismatch(a, chk), 1e-8) << "R=" << r;
  }
}

TEST(MultiErrorCodec, UpdateRulesRemainLinearAtHigherRedundancy) {
  // chk(A - LD LC^T) = chk(A) - chk(LD) LC^T holds for any R.
  const int b = 16, w = 24;
  auto a = random_matrix(b, b, 12);
  auto ld = random_matrix(b, w, 13);
  auto lc = random_matrix(b, w, 14);
  auto chk_a = encode(a, 4);
  auto chk_ld = encode(ld, 4);
  blas::gemm(blas::Trans::No, blas::Trans::Yes, -1.0, ld.view(), lc.view(),
             1.0, a.view());
  blas::gemm(blas::Trans::No, blas::Trans::Yes, -1.0, chk_ld.view(),
             lc.view(), 1.0, chk_a.view());
  EXPECT_LT(mismatch(a, chk_a), 1e-9);
}

TEST(MultiErrorCodecProperty, RandomizedMultiErrorSweep) {
  Rng rng(77);
  int corrected_runs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int redundancy = 2 * rng.uniform_int(1, 3);  // 2, 4, 6
    const int rows = rng.uniform_int(8, 48);
    auto a = random_matrix(rows, 6, 1000 + trial);
    const Matrix<double> orig = a;
    auto chk = encode(a, redundancy);
    const int col = rng.uniform_int(0, 5);
    const int nerr = rng.uniform_int(1, redundancy / 2);
    std::vector<int> used;
    for (int e = 0; e < nerr; ++e) {
      int row;
      do {
        row = rng.uniform_int(0, rows - 1);
      } while (std::find(used.begin(), used.end(), row) != used.end());
      used.push_back(row);
      a(row, col) += rng.uniform(500.0, 5e4) * (rng.next_double() < 0.5 ? -1 : 1);
    }
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    ASSERT_FALSE(out.uncorrectable)
        << "trial " << trial << " R=" << redundancy << " nerr=" << nerr;
    ASSERT_EQ(out.errors_corrected, nerr) << "trial " << trial;
    ++corrected_runs;
    for (int r = 0; r < rows; ++r) {
      EXPECT_NEAR(a(r, col), orig(r, col),
                  1e-5 * std::max(1.0, std::abs(orig(r, col))))
          << "trial " << trial << " row " << r;
    }
  }
  EXPECT_EQ(corrected_runs, 60);
}

}  // namespace
}  // namespace ftla::abft
