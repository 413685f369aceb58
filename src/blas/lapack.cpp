#include "blas/lapack.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "blas/level1.hpp"
#include "blas/level3.hpp"
#include "blas/pair.hpp"
#include "common/error.hpp"

namespace ftla::blas {

void potf2(MatrixView<double> a) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n);
  for (int j = 0; j < n; ++j) {
    // a(j,j) -= dot(row j left of diagonal with itself)
    double d = a(j, j) - dot(j, &a(j, 0), a.ld(), &a(j, 0), a.ld());
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw NotPositiveDefiniteError(j);
    }
    d = std::sqrt(d);
    a(j, j) = d;
    if (j + 1 < n) {
      // Column below the diagonal:
      // a(j+1:, j) = (a(j+1:, j) - A21 * a(j,0:j)^T) / d.
      // Up to gemm's small-path threshold this is that path's own strip
      // sweep, without a gemm call's shape checks and dispatch.
      const int m = n - j - 1;
      if (static_cast<long long>(m) * j <= kSmallWork) {
        const auto t = [&](int l) { return -1.0 * a(j, l); };
        strip_update(m, j, t, &a(j + 1, 0), a.ld(), &a(j + 1, j));
      } else {
        gemm(Trans::No, Trans::Yes, -1.0, a.block(j + 1, 0, m, j),
             a.block(j, 0, 1, j), 1.0, a.block(j + 1, j, m, 1));
      }
      scal(m, 1.0 / d, &a(j + 1, j), 1);
    }
  }
}

void potrf(MatrixView<double> a, int nb) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n && nb > 0);
  for (int j = 0; j < n; j += nb) {
    const int jb = std::min(nb, n - j);
    // Update diagonal block with the panel to its left, factor it, then
    // update and solve the panel below (right-looking).
    syrk(Uplo::Lower, Trans::No, -1.0, a.block(j, 0, jb, j), 1.0,
         a.block(j, j, jb, jb));
    potf2(a.block(j, j, jb, jb));
    const int rem = n - j - jb;
    if (rem > 0) {
      gemm(Trans::No, Trans::Yes, -1.0, a.block(j + jb, 0, rem, j),
           a.block(j, 0, jb, j), 1.0, a.block(j + jb, j, rem, jb));
      trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
           a.block(j, j, jb, jb), a.block(j + jb, j, rem, jb));
    }
  }
}

void getf2_nopiv(MatrixView<double> a) {
  const int m = a.rows();
  const int n = a.cols();
  const int k = std::min(m, n);
  for (int j = 0; j < k; ++j) {
    const double p = a(j, j);
    if (p == 0.0 || !std::isfinite(p)) throw NotPositiveDefiniteError(j);
    if (j + 1 < m) {
      scal(m - j - 1, 1.0 / p, &a(j + 1, j), 1);
      if (j + 1 < n) {
        // Trailing rank-1 update: A22 -= l21 * u12^T.
        gemm(Trans::No, Trans::No, -1.0,
             a.block(j + 1, j, m - j - 1, 1), a.block(j, j + 1, 1, n - j - 1),
             1.0, a.block(j + 1, j + 1, m - j - 1, n - j - 1));
      }
    }
  }
}

void getrf_nopiv(MatrixView<double> a, int nb) {
  const int m = a.rows();
  const int n = a.cols();
  FTLA_CHECK(nb > 0);
  const int k = std::min(m, n);
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    // Factor the panel, solve the U row block, update the trailing part.
    getf2_nopiv(a.block(j, j, m - j, jb));
    const int right = n - j - jb;
    const int below = m - j - jb;
    if (right > 0) {
      trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
           a.block(j, j, jb, jb), a.block(j, j + jb, jb, right));
      if (below > 0) {
        gemm(Trans::No, Trans::No, -1.0, a.block(j + jb, j, below, jb),
             a.block(j, j + jb, jb, right), 1.0,
             a.block(j + jb, j + jb, below, right));
      }
    }
  }
}

double lu_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> lu) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && lu.rows() == n && lu.cols() == n);
  double scale = 0.0, ssq = 1.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      // (L U)(i,j) = sum_k L(i,k) U(k,j), k <= min(i, j); L unit-lower.
      const int kmax = std::min(i, j);
      double s = 0.0;
      for (int k = 0; k < kmax; ++k) s += lu(i, k) * lu(k, j);
      s += i <= j ? lu(i, j) : lu(i, j) * lu(j, j);
      const double r = std::abs(a_original(i, j) - s);
      if (r != 0.0) {
        if (scale < r) {
          const double q = scale / r;
          ssq = 1.0 + ssq * q * q;
          scale = r;
        } else {
          const double q = r / scale;
          ssq += q * q;
        }
      }
    }
  }
  const double num = scale * std::sqrt(ssq);
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num / den : num;
}

void potrs(ConstMatrixView<double> l, MatrixView<double> b) {
  FTLA_CHECK(l.rows() == l.cols() && l.rows() == b.rows());
  // A = L L^T, so x = L^{-T} (L^{-1} b).
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, l, b);
  trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, l, b);
}

double lange(Norm norm, ConstMatrixView<double> a) {
  const int m = a.rows();
  const int n = a.cols();
  switch (norm) {
    case Norm::Max: {
      double v = 0.0;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) v = std::max(v, std::abs(a(i, j)));
      return v;
    }
    case Norm::One: {
      double v = 0.0;
      for (int j = 0; j < n; ++j) {
        double col = 0.0;
        for (int i = 0; i < m; ++i) col += std::abs(a(i, j));
        v = std::max(v, col);
      }
      return v;
    }
    case Norm::Inf: {
      std::vector<double> row(static_cast<std::size_t>(m), 0.0);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) row[i] += std::abs(a(i, j));
      return m ? *std::max_element(row.begin(), row.end()) : 0.0;
    }
    case Norm::Fro: {
      // Scaled accumulation, same idea as nrm2.
      double scale = 0.0;
      double ssq = 1.0;
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i) {
          const double x = std::abs(a(i, j));
          if (x == 0.0) continue;
          if (scale < x) {
            const double r = scale / x;
            ssq = 1.0 + ssq * r * r;
            scale = x;
          } else {
            const double r = x / scale;
            ssq += r * r;
          }
        }
      }
      return scale * std::sqrt(ssq);
    }
  }
  return 0.0;
}

namespace {

// Register tile of the residual oracle: kResRows rows of L L^T in two
// Pairs by a panel of kResCols columns, the GEMM microkernel's 4 x 6.
constexpr int kResRows = 4;
constexpr int kResCols = 6;

/// Rows i0 + r (r < kResRows) of one column of L, `col` pointing at row
/// i0, as two Pairs. A row is 0 instead of read when r >= mr (past the
/// last row) or i0 + r < lo (above L's diagonal), so no load reaches
/// past a column's end or into L's upper triangle.
void load_rows(const double* col, int i0, int mr, int lo, Pair& a0,
               Pair& a1) {
  double v[kResRows] = {};
  for (int r = 0; r < mr; ++r) {
    if (i0 + r >= lo) v[r] = col[r];
  }
  a0 = load_pair(v);
  a1 = load_pair(v + 2);
}

/// The tile of L L^T at rows i0..i0+mr-1 and panel columns j0..j0+5:
/// element (i, j) sums the products L(i,k) L(j,k) for k = 0..j from +0
/// in k order, each lane one element. Steps k <= j0 feed every column,
/// the tail steps k = j0 + t only columns t..5. The elements with
/// i >= j are stored to `panel` (laid out as in cholesky_residual, `len`
/// = n - j0); the others are dropped, and their tail rows load as 0.
/// kFull (mr == kResRows) gets its own copy of the k loop with plain
/// loads; kept out of line so its twelve accumulators, two A pairs, a
/// broadcast and a product have the sixteen SSE2 registers to
/// themselves.
template <bool kFull>
[[gnu::noinline]] void residual_tile(ConstMatrixView<double> l, int i0,
                                     int mr, int j0, int len,
                                     double* panel) {
  static_assert(kResRows == 4 && kResCols == 6, "written out for 4 x 6");
  Pair c00{}, c01{}, c02{}, c03{}, c04{}, c05{};
  Pair c10{}, c11{}, c12{}, c13{}, c14{}, c15{};
  const auto column = [](Pair& lo, Pair& hi, Pair a0, Pair a1, double bv) {
    const Pair b = {bv, bv};
    lo += a0 * b;
    hi += a1 * b;
  };
  for (int k = 0; k <= j0; ++k) {
    const double* lk = &l(0, k);
    Pair a0, a1;
    if constexpr (kFull) {
      a0 = load_pair(lk + i0);
      a1 = load_pair(lk + i0 + 2);
    } else {
      load_rows(lk + i0, i0, mr, 0, a0, a1);
    }
    const double* b = lk + j0;
    column(c00, c10, a0, a1, b[0]);
    column(c01, c11, a0, a1, b[1]);
    column(c02, c12, a0, a1, b[2]);
    column(c03, c13, a0, a1, b[3]);
    column(c04, c14, a0, a1, b[4]);
    column(c05, c15, a0, a1, b[5]);
  }
  // A tile below the panel's diagonal block reads only L's lower
  // triangle in the tail too, and keeps every element.
  const bool below = kFull && i0 >= j0 + kResCols - 1;
  for (int t = 1; t < kResCols; ++t) {
    const int k = j0 + t;
    const double* lk = &l(0, k);
    Pair a0, a1;
    if (below) {
      a0 = load_pair(lk + i0);
      a1 = load_pair(lk + i0 + 2);
    } else {
      load_rows(lk + i0, i0, mr, k, a0, a1);
    }
    const double* b = lk + j0;
    if (t <= 1) column(c01, c11, a0, a1, b[1]);
    if (t <= 2) column(c02, c12, a0, a1, b[2]);
    if (t <= 3) column(c03, c13, a0, a1, b[3]);
    if (t <= 4) column(c04, c14, a0, a1, b[4]);
    column(c05, c15, a0, a1, b[5]);
  }
  const Pair tile[] = {c00, c10, c01, c11, c02, c12,
                       c03, c13, c04, c14, c05, c15};
  for (int c = 0; c < kResCols; ++c) {
    // Column c of the panel holds rows j0 + c..n-1.
    double* col = panel + static_cast<std::ptrdiff_t>(c) * len -
                  c * (c - 1) / 2 + (i0 - j0 - c);
    if (below) {
      store_pair(col, tile[2 * c]);
      store_pair(col + 2, tile[2 * c + 1]);
      continue;
    }
    double acc[kResRows] = {};
    std::memcpy(acc, &tile[2 * c], sizeof acc);
    for (int r = 0; r < mr; ++r) {
      if (i0 + r >= j0 + c) col[r] = acc[r];
    }
  }
}

}  // namespace

double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && l.rows() == n && l.cols() == n);
  // (L L^T)(i,j) for i >= j is the dot of L(i, 0:j+1) and L(j, 0:j+1),
  // summed from +0 in k order, and |A(i,j) - (L L^T)(i,j)| feeds the
  // scaled sum of squares in (j, i) order. Panels of kResCols columns
  // are formed in register tiles into `panel`, whose column c holds
  // rows j0 + c..n-1 (never more than L's packed lower triangle), then
  // fed in order; a last panel narrower than a tile takes the scalar
  // dot. L's upper triangle is never read.
  const int w0 = std::min(kResCols, n);
  std::vector<double> panel(static_cast<std::size_t>(w0) * n -
                            static_cast<std::size_t>(w0 * (w0 - 1) / 2));
  double num_scale = 0.0, num_ssq = 1.0;
  for (int j0 = 0; j0 < n; j0 += kResCols) {
    const int w = std::min(kResCols, n - j0);
    const int len = n - j0;
    // panel_col(j)[i - j] is the element (i, j), i >= j.
    const auto panel_col = [&](int j) {
      const int c = j - j0;
      return panel.data() + static_cast<std::ptrdiff_t>(c) * len -
             c * (c - 1) / 2;
    };
    if (w == kResCols) {
      int i0 = j0;
      for (; i0 + kResRows <= n; i0 += kResRows) {
        residual_tile<true>(l, i0, kResRows, j0, len, panel.data());
      }
      if (i0 < n) residual_tile<false>(l, i0, n - i0, j0, len, panel.data());
    } else {
      for (int j = j0; j < n; ++j) {
        double* pj = panel_col(j);
        for (int i = j; i < n; ++i) {
          double s = 0.0;
          for (int k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
          pj[i - j] = s;
        }
      }
    }
    for (int j = j0; j < j0 + w; ++j) {
      const double* pj = panel_col(j);
      for (int i = j; i < n; ++i) {
        const double r = std::abs(a_original(i, j) - pj[i - j]);
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
  }
  const double num = num_scale * std::sqrt(num_ssq);
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num / den : num;
}

double max_abs_diff(ConstMatrixView<double> a, ConstMatrixView<double> b) {
  FTLA_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double v = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      v = std::max(v, std::abs(a(i, j) - b(i, j)));
  return v;
}

}  // namespace ftla::blas
