#include "abft/checksum.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

void encode_block(ConstMatrixView<double> a, MatrixView<double> chk) {
  FTLA_CHECK(chk.rows() == kChecksumRows && chk.cols() == a.cols());
  // Each column's sums are computed start-to-finish by one lane, so the
  // result is bit-identical for every thread count / partition.
  const auto encode_cols = [&](std::int64_t c0, std::int64_t c1) {
    for (int c = static_cast<int>(c0); c < c1; ++c) {
      const double* col = &a(0, c);
      double s1 = 0.0;
      double s2 = 0.0;
      for (int i = 0; i < a.rows(); ++i) {
        s1 += col[i];
        s2 += (i + 1.0) * col[i];
      }
      chk(0, c) = s1;
      chk(1, c) = s2;
    }
  };
  if (use_pool_for(static_cast<long long>(a.rows()) * a.cols())) {
    common::global_pool().parallel_for_chunks(0, a.cols(), encode_cols);
  } else {
    encode_cols(0, a.cols());
  }
}

void potf2_update_checksum(ConstMatrixView<double> l,
                           MatrixView<double> chk) {
  const int n = l.rows();
  FTLA_CHECK(l.cols() == n && chk.rows() == kChecksumRows &&
             chk.cols() == n);
  // The checksum rows transform exactly like extra rows appended below
  // the block: scale by the pivot, then eliminate along the column.
  for (int j = 0; j < n; ++j) {
    const double d = l(j, j);
    chk(0, j) /= d;
    chk(1, j) /= d;
    for (int k = j + 1; k < n; ++k) {
      chk(0, k) -= chk(0, j) * l(k, j);
      chk(1, k) -= chk(1, j) * l(k, j);
    }
  }
}

namespace {

// One R = 2 decoder for both checksum sides. A *lane* is what one
// checksum pair covers: a block column for column checksums (chk is
// 2 x cols; element i of lane l is a(i, l)) or a block row for row
// checksums (chk is rows x 2; element i of lane l is a(l, i)). The row
// decoder is the column decoder on the transposed block, step for step,
// so both sides round identically.
template <bool kRowLanes>
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
  for (int l = 0; l < lanes; ++l) {
    const double d1 = fresh(l, 0) - stored(l, 0);
    const double d2 = fresh(l, 1) - stored(l, 1);
    // Per-checksum thresholds: judging both checksums against one
    // shared scale lets a huge corrupted checksum inflate the threshold
    // until the other one's deviation reads as "clean" — a coincident
    // data error then classifies as checksum damage and the repair
    // re-encodes the checksum from the corrupted data (unbounded
    // laundering). With per-checksum scales the worst a threshold-band
    // straddle can launder is an error below that checksum's own
    // detection floor.
    const double t1 = tol.threshold(
        std::max(std::abs(stored(l, 0)), std::abs(fresh(l, 0))));
    const double t2w = tol.threshold(
        std::max(std::abs(stored(l, 1)), std::abs(fresh(l, 1))));
    const bool e1 = std::abs(d1) > t1;
    const bool e2 = std::abs(d2) > t2w;
    if (!e1 && !e2) continue;

    if (e1 && e2) {
      // Single-data-error hypothesis: d2/d1 must be an integral position.
      const double q = d2 / d1;
      const int pos1 = static_cast<int>(std::lround(q));
      if (pos1 >= 1 && pos1 <= len &&
          std::abs(q - pos1) <= 0.01 * std::max(1.0, std::abs(q))) {
        ++out.errors_detected;
        const double old_value = elem(l, pos1 - 1);
        double corrected = old_value - d1;
        // Size the syndrome against the *clean* scale (the stored
        // checksums) — the detection threshold t is inflated by the
        // corrupted recalc. Syndrome subtraction is only exact to
        // |d1|*eps; for exponent-scale corruption that rounding
        // residue alone is a visible error, so re-solve the checksum
        // equation from the clean neighbors in that regime.
        const double t_clean = tol.threshold(
            std::max(std::abs(stored(l, 0)), std::abs(stored(l, 1))));
        if (std::abs(d1) * 1e-13 > t_clean) {
          double rest = 0.0;
          for (int i = 0; i < len; ++i) {
            if (i != pos1 - 1) rest += elem(l, i);
          }
          corrected = stored(l, 0) - rest;
        }
        elem(l, pos1 - 1) = corrected;
        // Re-encode and recheck: a correlated double error can alias
        // to a valid single-error syndrome, and the miscorrection
        // leaves a sum-consistent error pair that the next
        // verification would misread as checksum damage and "repair"
        // — silent corruption. Escalate here instead. Post-correction
        // scale, so a huge pre-correction value cannot blunt the
        // recheck; 2x tolerates drift plus correction rounding.
        double s1 = 0.0;
        double s2 = 0.0;
        for (int i = 0; i < len; ++i) {
          s1 += elem(l, i);
          s2 += (i + 1.0) * elem(l, i);
        }
        const double t2 = tol.threshold(
            std::max({std::abs(stored(l, 0)), std::abs(stored(l, 1)),
                      std::abs(s1), std::abs(s2)}));
        if (std::abs(s1 - stored(l, 0)) > 2.0 * t2 ||
            std::abs(s2 - stored(l, 1)) > 2.0 * t2) {
          out.uncorrectable = true;
        } else {
          ++out.errors_corrected;
          out.corrections.push_back(
              kRowLanes ? Correction{l, pos1 - 1, old_value, corrected}
                        : Correction{pos1 - 1, l, old_value, corrected});
        }
      } else {
        ++out.errors_detected;
        out.uncorrectable = true;
      }
    } else if (e1) {
      // d2 clean: no data error can do this — checksum 1 is corrupted.
      stored(l, 0) = fresh(l, 0);
      ++out.checksum_repairs;
    } else {
      stored(l, 1) = fresh(l, 1);
      ++out.checksum_repairs;
    }
  }
  return out;
}

}  // namespace

VerifyOutcome verify_block(MatrixView<double> a, MatrixView<double> chk,
                           ConstMatrixView<double> recalc,
                           const Tolerance& tol) {
  FTLA_CHECK(chk.rows() == kChecksumRows && chk.cols() == a.cols());
  FTLA_CHECK(recalc.rows() == kChecksumRows && recalc.cols() == a.cols());
  return decode_lanes<false>(a, chk, recalc, tol);
}

VerifyOutcome verify_block_host(MatrixView<double> a, MatrixView<double> chk,
                                const Tolerance& tol) {
  Matrix<double> recalc(kChecksumRows, a.cols());
  encode_block(a, recalc.view());
  return verify_block(a, chk, recalc.view(), tol);
}

void encode_block_rows(ConstMatrixView<double> a, MatrixView<double> chk) {
  FTLA_CHECK(chk.cols() == kChecksumRows && chk.rows() == a.rows());
  // Partitioned over row ranges: every row's accumulators sweep the
  // columns in the same order on one lane, so partitioning never
  // changes the floating-point result.
  const auto encode_rows = [&](std::int64_t r0, std::int64_t r1) {
    const int lo = static_cast<int>(r0);
    const int hi = static_cast<int>(r1);
    for (int i = lo; i < hi; ++i) {
      chk(i, 0) = 0.0;
      chk(i, 1) = 0.0;
    }
    for (int c = 0; c < a.cols(); ++c) {
      const double* col = &a(0, c);
      const double w = c + 1.0;
      for (int i = lo; i < hi; ++i) {
        chk(i, 0) += col[i];
        chk(i, 1) += w * col[i];
      }
    }
  };
  if (use_pool_for(static_cast<long long>(a.rows()) * a.cols())) {
    common::global_pool().parallel_for_chunks(0, a.rows(), encode_rows);
  } else {
    encode_rows(0, a.rows());
  }
}

VerifyOutcome verify_block_rows(MatrixView<double> a, MatrixView<double> chk,
                                ConstMatrixView<double> recalc,
                                const Tolerance& tol) {
  FTLA_CHECK(chk.cols() == kChecksumRows && chk.rows() == a.rows());
  FTLA_CHECK(recalc.cols() == kChecksumRows && recalc.rows() == a.rows());
  return decode_lanes<true>(a, chk, recalc, tol);
}

VerifyOutcome verify_block_rows_host(MatrixView<double> a,
                                     MatrixView<double> chk,
                                     const Tolerance& tol) {
  Matrix<double> recalc(a.rows(), kChecksumRows);
  encode_block_rows(a, recalc.view());
  return verify_block_rows(a, chk, recalc.view(), tol);
}

}  // namespace ftla::abft
