#include "abft/checksum.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "blas/pair.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ftla::abft {

namespace {

// Elements below which checksum recalculation is not worth a pool
// round-trip (the fan-out costs a couple of microseconds).
constexpr long long kParallelEncodeElems = 16384;

bool use_pool_for(long long elems) {
  if (elems < kParallelEncodeElems) return false;
  if (common::ThreadPool::in_parallel_region()) return false;
  return common::global_pool().threads() > 1;
}

/// Calls f(std::integral_constant<int, R>{}) for redundancy R = r. Each
/// R gets its own instantiation, so the loops over the R checksums
/// unroll and R = 2 compiles to the paper's two running sums.
template <class F>
decltype(auto) with_redundancy(int r, F&& f) {
  static_assert(kMaxChecksumRows == 8);
  FTLA_CHECK_MSG(r >= 2 && r <= kMaxChecksumRows,
                 "checksum redundancy must be in [2, 8]");
  switch (r) {
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 5: return f(std::integral_constant<int, 5>{});
    case 6: return f(std::integral_constant<int, 6>{});
    case 7: return f(std::integral_constant<int, 7>{});
    default: return f(std::integral_constant<int, 8>{});
  }
}

/// Four lanes side by side in two Pairs, one column each: lane_sums
/// over Quad rounds every column exactly as lane_sums over double does.
struct Quad {
  blas::Pair lo, hi;
  Quad& operator+=(const Quad& v) {
    lo += v.lo;
    hi += v.hi;
    return *this;
  }
  friend Quad operator*(double w, const Quad& v) {
    const blas::Pair ww = {w, w};
    return {ww * v.lo, ww * v.hi};
  }
};

/// The R weighted sums of one lane of `len` elements x(0..len): sum k
/// weighs element i by (i+1)^k. Every sum accumulates in element order,
/// so encoding and the decoder's recheck round alike. V = Quad runs four
/// lanes at once.
template <int R, class V = double, class X>
std::array<V, R> lane_sums(int len, const X& x) {
  std::array<V, R> s{};
  for (int i = 0; i < len; ++i) {
    const V v = x(i);
    const double r = i + 1.0;
    double w = r;
    s[0] += v;
    for (int k = 1; k < R; ++k) {
      s[k] += w * v;
      w *= r;
    }
  }
  return s;
}

// Solves the k x k system M x = b by Gaussian elimination with partial
// pivoting. k <= 4. Returns false when M is numerically singular.
bool solve_small(int k, double* m, double* b, double* x) {
  int piv[4] = {0, 1, 2, 3};
  for (int col = 0; col < k; ++col) {
    int best = col;
    for (int r = col + 1; r < k; ++r) {
      if (std::abs(m[piv[r] * k + col]) > std::abs(m[piv[best] * k + col]))
        best = r;
    }
    std::swap(piv[col], piv[best]);
    const double p = m[piv[col] * k + col];
    if (std::abs(p) < 1e-300) return false;
    for (int r = col + 1; r < k; ++r) {
      const double f = m[piv[r] * k + col] / p;
      if (f == 0.0) continue;
      for (int c = col; c < k; ++c) {
        m[piv[r] * k + c] -= f * m[piv[col] * k + c];
      }
      b[piv[r]] -= f * b[piv[col]];
    }
  }
  for (int row = k - 1; row >= 0; --row) {
    double s = b[piv[row]];
    for (int c = row + 1; c < k; ++c) s -= m[piv[row] * k + c] * x[c];
    x[row] = s / m[piv[row] * k + row];
  }
  return true;
}

double ipow(double base, int e) {
  double r = 1.0;
  for (int i = 0; i < e; ++i) r *= base;
  return r;
}

/// Prony's method for nu data errors in a lane of `len` elements
/// (2 <= nu <= r/2): from the syndromes s[0..r) with thresholds t[0..r),
/// finds the 1-based rows (ascending) and values e of a nu-error pattern
/// that reproduces every syndrome. False when none does.
bool locate_errors(const double* s, const double* t, int r, int len, int nu,
                   int* rows, double* e) {
  if (len < nu) return false;
  // Error locator x^nu + c_{nu-1} x^{nu-1} + ... + c_0 from the Hankel
  // system sum_i c_i S_{k+i} = -S_{k+nu}, k = 0..nu-1.
  double m[16] = {};
  double b[4] = {};
  double c[4] = {};
  for (int k = 0; k < nu; ++k) {
    for (int i = 0; i < nu; ++i) m[k * nu + i] = s[k + i];
    b[k] = -s[k + nu];
  }
  if (!solve_small(nu, m, b, c)) return false;
  // Its roots must be integer rows in [1, len]: keep the nu rows where
  // the locator, scaled by its magnitude there, is smallest (ties to the
  // lower row).
  double best[4] = {};
  int found = 0;
  for (int row = 1; row <= len; ++row) {
    double p = ipow(row, nu);
    for (int i = 0; i < nu; ++i) p += c[i] * ipow(row, i);
    const double v = std::abs(p) / (ipow(row, nu) + 1.0);
    if (found == nu && !(v < best[nu - 1])) continue;
    int j = found < nu ? found++ : nu - 1;
    for (; j > 0 && v < best[j - 1]; --j) {
      best[j] = best[j - 1];
      rows[j] = rows[j - 1];
    }
    best[j] = v;
    rows[j] = row;
  }
  for (int i = 0; i < nu; ++i) {
    if (!(best[i] <= 1e-3)) return false;
  }
  std::sort(rows, rows + nu);
  // Values from the Vandermonde system S_k = sum_t e_t r_t^k.
  for (int k = 0; k < nu; ++k) {
    for (int i = 0; i < nu; ++i) m[k * nu + i] = ipow(rows[i], k);
    b[k] = s[k];
  }
  if (!solve_small(nu, m, b, e)) return false;
  // Accept only a pattern that reproduces every syndrome.
  for (int k = 0; k < r; ++k) {
    double fit = 0.0;
    for (int i = 0; i < nu; ++i) fit += e[i] * ipow(rows[i], k);
    const double scale = std::max(std::abs(s[k]), std::abs(fit));
    if (std::abs(s[k] - fit) > std::max(t[k], 1e-6 * scale)) return false;
  }
  return true;
}

// One decoder for both checksum sides and every R. A *lane* is what one
// set of R checksums covers: a block column for column checksums (chk
// is R x cols; element i of lane l is a(i, l)) or a block row for row
// checksums (chk is rows x R; element i of lane l is a(l, i)). The row
// decoder is the column decoder on the transposed block, step for step,
// so both sides round identically.
template <int R, bool kRowLanes>
VerifyOutcome decode_lanes(MatrixView<double> a, MatrixView<double> chk,
                           ConstMatrixView<double> recalc,
                           const Tolerance& tol) {
  const auto elem = [&a](int l, int i) -> double& {
    return kRowLanes ? a(l, i) : a(i, l);
  };
  const auto stored = [&chk](int l, int k) -> double& {
    return kRowLanes ? chk(l, k) : chk(k, l);
  };
  const auto fresh = [&recalc](int l, int k) {
    return kRowLanes ? recalc(l, k) : recalc(k, l);
  };
  const int lanes = kRowLanes ? a.rows() : a.cols();
  const int len = kRowLanes ? a.cols() : a.rows();

  VerifyOutcome out;
  const auto record = [&](int l, int i, double old_value, double new_value) {
    ++out.errors_corrected;
    out.corrections.push_back(
        kRowLanes ? Correction{l, i, old_value, new_value}
                  : Correction{i, l, old_value, new_value});
  };
  // One data error in lane l from its syndromes d; false (element
  // restored) when they do not fit one.
  const auto correct_one = [&](int l, const double* d) {
    // Single-data-error hypothesis: d1/d0 must be an integral position.
    const double q = d[1] / d[0];
    const int pos1 = static_cast<int>(std::lround(q));
    if (!(pos1 >= 1 && pos1 <= len &&
          std::abs(q - pos1) <= 0.01 * std::max(1.0, std::abs(q)))) {
      return false;
    }
    const double old_value = elem(l, pos1 - 1);
    double corrected = old_value - d[0];
    // Size the syndrome against the *clean* scale (the stored
    // checksums) — the detection threshold t is inflated by the
    // corrupted recalc. Syndrome subtraction is only exact to
    // |d0|*eps; for exponent-scale corruption that rounding residue
    // alone is a visible error, so re-solve the checksum equation from
    // the clean neighbors in that regime.
    const double t_clean = tol.threshold(
        std::max(std::abs(stored(l, 0)), std::abs(stored(l, 1))));
    if (std::abs(d[0]) * 1e-13 > t_clean) {
      double rest = 0.0;
      for (int i = 0; i < len; ++i) {
        if (i != pos1 - 1) rest += elem(l, i);
      }
      corrected = stored(l, 0) - rest;
    }
    elem(l, pos1 - 1) = corrected;
    // Re-encode and recheck all R sums: a correlated double error can
    // alias to a valid single-error syndrome, and the miscorrection
    // leaves a sum-consistent error pair that the next verification
    // would misread as checksum damage and "repair" — silent
    // corruption. Escalate here instead. Post-correction scale, so a
    // huge pre-correction value cannot blunt the recheck; 2x tolerates
    // drift plus correction rounding.
    const auto s = lane_sums<R>(len, [&](int i) { return elem(l, i); });
    double scale = std::abs(stored(l, 0));
    for (int k = 1; k < R; ++k) {
      scale = std::max(scale, std::abs(stored(l, k)));
    }
    for (int k = 0; k < R; ++k) scale = std::max(scale, std::abs(s[k]));
    const double t2 = tol.threshold(scale);
    for (int k = 0; k < R; ++k) {
      if (std::abs(s[k] - stored(l, k)) > 2.0 * t2) {
        elem(l, pos1 - 1) = old_value;
        return false;
      }
    }
    record(l, pos1 - 1, old_value, corrected);
    return true;
  };
  // Several data errors (R >= 4): Prony's method for nu = 2..R/2.
  const auto correct_many = [&](int l, const double* d, const double* t) {
    for (int nu = 2; nu <= R / 2; ++nu) {
      int rows[kMaxChecksumRows / 2] = {};
      double e[kMaxChecksumRows / 2] = {};
      if (!locate_errors(d, t, R, len, nu, rows, e)) continue;
      for (int j = 0; j < nu; ++j) {
        double& x = elem(l, rows[j] - 1);
        const double old_value = x;
        x -= e[j];
        record(l, rows[j] - 1, old_value, x);
      }
      return true;
    }
    return false;
  };

  for (int l = 0; l < lanes; ++l) {
    // Per-checksum thresholds: judging the checksums against one shared
    // scale lets a huge corrupted checksum inflate the threshold until
    // another one's deviation reads as "clean" — a coincident data
    // error then classifies as checksum damage and the repair
    // re-encodes the checksum from the corrupted data (unbounded
    // laundering). With per-checksum scales the worst a threshold-band
    // straddle can launder is an error below that checksum's own
    // detection floor.
    double d[R] = {};
    double t[R] = {};
    bool bad[R] = {};
    int flagged = 0;
    for (int k = 0; k < R; ++k) {
      d[k] = fresh(l, k) - stored(l, k);
      t[k] = tol.threshold(
          std::max(std::abs(stored(l, k)), std::abs(fresh(l, k))));
      bad[k] = std::abs(d[k]) > t[k];
      flagged += bad[k];
    }
    if (flagged == 0) continue;

    if (flagged < R) {
      // A data error moves every syndrome, so a partial pattern is
      // checksum damage — repairable while at most R/2 rows are hit
      // (at R = 2: one checksum is corrupted). More is beyond capacity.
      if (flagged > R / 2) {
        ++out.errors_detected;
        out.uncorrectable = true;
        continue;
      }
      for (int k = 0; k < R; ++k) {
        if (!bad[k]) continue;
        stored(l, k) = fresh(l, k);
        ++out.checksum_repairs;
      }
      continue;
    }

    ++out.errors_detected;
    if (!correct_one(l, d) && !correct_many(l, d, t)) {
      out.uncorrectable = true;
    }
  }
  return out;
}

}  // namespace

void encode_block(ConstMatrixView<double> a, MatrixView<double> chk) {
  FTLA_CHECK(chk.cols() == a.cols());
  with_redundancy(chk.rows(), [&](auto r) {
    constexpr int R = decltype(r)::value;
    // Each column's sums are computed start-to-finish by one lane, so
    // the result is bit-identical for every thread count / partition.
    // Four columns share a sweep, one per lane.
    const auto encode_cols = [&](std::int64_t c0, std::int64_t c1) {
      int c = static_cast<int>(c0);
      for (; c + 4 <= c1; c += 4) {
        const double* x0 = &a(0, c);
        const double* x1 = &a(0, c + 1);
        const double* x2 = &a(0, c + 2);
        const double* x3 = &a(0, c + 3);
        const auto s = lane_sums<R, Quad>(a.rows(), [&](int i) {
          return Quad{{x0[i], x1[i]}, {x2[i], x3[i]}};
        });
        for (int k = 0; k < R; ++k) {
          chk(k, c) = s[k].lo[0];
          chk(k, c + 1) = s[k].lo[1];
          chk(k, c + 2) = s[k].hi[0];
          chk(k, c + 3) = s[k].hi[1];
        }
      }
      for (; c < c1; ++c) {
        const double* col = &a(0, c);
        const auto s = lane_sums<R>(a.rows(), [col](int i) { return col[i]; });
        for (int k = 0; k < R; ++k) chk(k, c) = s[k];
      }
    };
    if (use_pool_for(static_cast<long long>(a.rows()) * a.cols())) {
      common::global_pool().parallel_for_chunks(0, a.cols(), encode_cols);
    } else {
      encode_cols(0, a.cols());
    }
  });
}

void potf2_update_checksum(ConstMatrixView<double> l,
                           MatrixView<double> chk) {
  const int n = l.rows();
  FTLA_CHECK(l.cols() == n && chk.cols() == n);
  with_redundancy(chk.rows(), [&](auto r) {
    constexpr int R = decltype(r)::value;
    // The checksum rows transform exactly like extra rows appended below
    // the block: scale by the pivot, then eliminate along the column.
    for (int j = 0; j < n; ++j) {
      const double d = l(j, j);
      for (int k = 0; k < R; ++k) chk(k, j) /= d;
      for (int c = j + 1; c < n; ++c) {
        for (int k = 0; k < R; ++k) chk(k, c) -= chk(k, j) * l(c, j);
      }
    }
  });
}

VerifyOutcome verify_block(MatrixView<double> a, MatrixView<double> chk,
                           ConstMatrixView<double> recalc,
                           const Tolerance& tol) {
  FTLA_CHECK(chk.cols() == a.cols() && recalc.rows() == chk.rows() &&
             recalc.cols() == a.cols());
  return with_redundancy(chk.rows(), [&](auto r) {
    return decode_lanes<decltype(r)::value, false>(a, chk, recalc, tol);
  });
}

VerifyOutcome verify_block_host(MatrixView<double> a, MatrixView<double> chk,
                                const Tolerance& tol) {
  Matrix<double> recalc(chk.rows(), a.cols());
  encode_block(a, recalc.view());
  return verify_block(a, chk, recalc.view(), tol);
}

void encode_block_rows(ConstMatrixView<double> a, MatrixView<double> chk) {
  FTLA_CHECK(chk.rows() == a.rows());
  with_redundancy(chk.cols(), [&](auto r) {
    constexpr int R = decltype(r)::value;
    // Partitioned over row ranges: every row's accumulators sweep the
    // columns in the same order on one lane, so partitioning never
    // changes the floating-point result.
    const auto encode_rows = [&](std::int64_t r0, std::int64_t r1) {
      const int lo = static_cast<int>(r0);
      const int hi = static_cast<int>(r1);
      for (int i = lo; i < hi; ++i) {
        for (int k = 0; k < R; ++k) chk(i, k) = 0.0;
      }
      for (int c = 0; c < a.cols(); ++c) {
        const double* col = &a(0, c);
        // The weights (c+1)^k, formed as lane_sums forms them.
        double w[R] = {1.0, c + 1.0};
        for (int k = 2; k < R; ++k) w[k] = w[k - 1] * w[1];
        for (int i = lo; i < hi; ++i) {
          chk(i, 0) += col[i];
          for (int k = 1; k < R; ++k) chk(i, k) += w[k] * col[i];
        }
      }
    };
    if (use_pool_for(static_cast<long long>(a.rows()) * a.cols())) {
      common::global_pool().parallel_for_chunks(0, a.rows(), encode_rows);
    } else {
      encode_rows(0, a.rows());
    }
  });
}

VerifyOutcome verify_block_rows(MatrixView<double> a, MatrixView<double> chk,
                                ConstMatrixView<double> recalc,
                                const Tolerance& tol) {
  FTLA_CHECK(chk.rows() == a.rows() && recalc.cols() == chk.cols() &&
             recalc.rows() == a.rows());
  return with_redundancy(chk.cols(), [&](auto r) {
    return decode_lanes<decltype(r)::value, true>(a, chk, recalc, tol);
  });
}

VerifyOutcome verify_block_rows_host(MatrixView<double> a,
                                     MatrixView<double> chk,
                                     const Tolerance& tol) {
  Matrix<double> recalc(a.rows(), chk.cols());
  encode_block_rows(a, recalc.view());
  return verify_block_rows(a, chk, recalc.view(), tol);
}

}  // namespace ftla::abft
