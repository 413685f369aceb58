#include "blas/lapack.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "blas/level1.hpp"
#include "blas/level3.hpp"
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
      // Column below the diagonal: a(j+1:, j) = (a(j+1:, j) - A21 * a(j,0:j)^T) / d
      gemm(Trans::No, Trans::Yes, -1.0, a.block(j + 1, 0, n - j - 1, j),
           a.block(j, 0, 1, j), 1.0, a.block(j + 1, j, n - j - 1, 1));
      scal(n - j - 1, 1.0 / d, &a(j + 1, j), 1);
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

double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && l.rows() == n && l.cols() == n);
  // L's lower triangle packed row by row (row i at offset i(i+1)/2), so
  // both operands of the dot below are read with unit stride instead of
  // stride ld. The dot itself is unchanged: same operands, same k order,
  // so the result is bit-identical to reading L in place.
  const auto row_at = [](int i) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(i + 1) / 2;
  };
  std::vector<double> rows(row_at(n));
  for (int k = 0; k < n; ++k) {
    for (int i = k; i < n; ++i) {
      rows[row_at(i) + static_cast<std::size_t>(k)] = l(i, k);
    }
  }
  // Reconstruct the lower triangle of L L^T and compare with A.
  double num_scale = 0.0, num_ssq = 1.0;
  for (int j = 0; j < n; ++j) {
    const double* lj = rows.data() + row_at(j);
    for (int i = j; i < n; ++i) {
      // (L L^T)(i,j) = dot(L(i, 0:min(i,j)), L(j, 0:min(i,j))); with
      // i >= j the shared prefix length is j+1.
      const double* li = rows.data() + row_at(i);
      double s = 0.0;
      for (int k = 0; k <= j; ++k) s += li[k] * lj[k];
      const double r = std::abs(a_original(i, j) - s);
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
