#include "blas/level3.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "blas/level2.hpp"
#include "blas/pair.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ftla::blas {

namespace {

// Work above which a GEMM fans out over the global thread pool.
constexpr long long kParallelWork = 1LL << 21;

void scale_inplace(MatrixView<double> c, double beta) {
  if (beta == 1.0) return;
  for (int j = 0; j < c.cols(); ++j) {
    double* col = &c(0, j);
    if (beta == 0.0) {
      for (int i = 0; i < c.rows(); ++i) col[i] = 0.0;
    } else {
      for (int i = 0; i < c.rows(); ++i) col[i] *= beta;
    }
  }
}

/// Unblocked fallback for small problems: C += alpha * op(A) op(B) with
/// the scaling by beta already applied by the caller.
void gemm_small(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
                ConstMatrixView<double> b, MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  if (ta == Trans::No) {
    // C(:,j) += t * A(:,l) with t = alpha * op(B)(l,j), in l order,
    // skipping t == 0 (so a zero of op(B) keeps a NaN or Inf of A out of
    // C), one column at a time in register strips.
    for (int j = 0; j < n; ++j) {
      const auto t_at = [&](int l) {
        return alpha * (tb == Trans::No ? b(l, j) : b(j, l));
      };
      strip_update(m, k, t_at, a.data(), a.ld(), &c(0, j));
    }
  } else if (tb == Trans::No) {
    // C(i,j) += alpha * dot(A(:,i), B(:,j)) — both operands columnwise.
    for (int j = 0; j < n; ++j) {
      const double* bj = &b(0, j);
      double* cj = &c(0, j);
      for (int i = 0; i < m; ++i) {
        const double* ai = &a(0, i);
        double s = 0.0;
        for (int l = 0; l < k; ++l) s += ai[l] * bj[l];
        cj[i] += alpha * s;
      }
    }
  } else {
    // A^T B^T: accumulate per (i, j) with strided access to B's rows.
    for (int j = 0; j < n; ++j) {
      double* cj = &c(0, j);
      for (int i = 0; i < m; ++i) {
        const double* ai = &a(0, i);
        double s = 0.0;
        for (int l = 0; l < k; ++l) s += ai[l] * b(j, l);
        cj[i] += alpha * s;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Packed GEMM core (BLIS-style MC/KC/NC blocking, MR x NR microkernel)
// ----------------------------------------------------------------------

/// Packs op(A)[ic:ic+mc, pc:pc+kc] (alpha folded in) into MR-row strips;
/// partial strips are zero-padded so the microkernel always runs full
/// width. `a` is the storage view: m x k when ta == No, k x m otherwise.
void pack_a_panel(Trans ta, ConstMatrixView<double> a, double alpha,
                  int ic, int pc, int mc, int kc, double* buf) {
  for (int is = 0; is < mc; is += kGemmMR) {
    const int mr = std::min(kGemmMR, mc - is);
    double* dst = buf + static_cast<std::size_t>(is) * kc;
    for (int p = 0; p < kc; ++p) {
      double* d = dst + static_cast<std::size_t>(p) * kGemmMR;
      if (ta == Trans::No) {
        const double* col = &a(ic + is, pc + p);
        for (int i = 0; i < mr; ++i) d[i] = alpha * col[i];
      } else {
        for (int i = 0; i < mr; ++i) d[i] = alpha * a(pc + p, ic + is + i);
      }
      for (int i = mr; i < kGemmMR; ++i) d[i] = 0.0;
    }
  }
}

/// Packs op(B)[pc:pc+kc, jc:jc+nc] into NR-column strips (zero-padded).
void pack_b_panel(Trans tb, ConstMatrixView<double> b, int pc, int jc,
                  int kc, int nc, double* buf) {
  for (int js = 0; js < nc; js += kGemmNR) {
    const int nr = std::min(kGemmNR, nc - js);
    double* dst = buf + static_cast<std::size_t>(js) * kc;
    for (int p = 0; p < kc; ++p) {
      double* d = dst + static_cast<std::size_t>(p) * kGemmNR;
      if (tb == Trans::No) {
        for (int j = 0; j < nr; ++j) d[j] = b(pc + p, jc + js + j);
      } else {
        for (int j = 0; j < nr; ++j) d[j] = b(jc + js + j, pc + p);
      }
      for (int j = nr; j < kGemmNR; ++j) d[j] = 0.0;
    }
  }
}

/// C[0:mr, 0:nr] += ap * bp over kc. The 4 x 6 tile lives in twelve
/// two-lane accumulators, c<row pair><column>; with the two A pairs, a
/// broadcast B value and one product they fill the sixteen registers of
/// the SSE2 baseline. Each lane starts at +0 and adds one rounded
/// product per p, in p order; the writeback clips to the live mr x nr
/// corner.
void micro_kernel(int kc, const double* ap, const double* bp, double* c,
                  int ldc, int mr, int nr) {
  static_assert(kGemmMR == 4 && kGemmNR == 6, "written out for 4 x 6");
  Pair c00{}, c01{}, c02{}, c03{}, c04{}, c05{};
  Pair c10{}, c11{}, c12{}, c13{}, c14{}, c15{};
  for (int p = 0; p < kc; ++p, ap += kGemmMR, bp += kGemmNR) {
    Pair a0{}, a1{};
    std::memcpy(&a0, ap, sizeof a0);
    std::memcpy(&a1, ap + 2, sizeof a1);
    const auto column = [&](Pair& lo, Pair& hi, double bv) {
      const Pair b = {bv, bv};
      lo += a0 * b;
      hi += a1 * b;
    };
    column(c00, c10, bp[0]);
    column(c01, c11, bp[1]);
    column(c02, c12, bp[2]);
    column(c03, c13, bp[3]);
    column(c04, c14, bp[4]);
    column(c05, c15, bp[5]);
  }
  const Pair tile[] = {c00, c10, c01, c11, c02, c12,
                       c03, c13, c04, c14, c05, c15};
  double acc[kGemmMR * kGemmNR] = {};
  std::memcpy(acc, tile, sizeof acc);
  if (mr == kGemmMR && nr == kGemmNR) {
    for (int j = 0; j < kGemmNR; ++j) {
      double* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      const double* accj = acc + j * kGemmMR;
      for (int i = 0; i < kGemmMR; ++i) cj[i] += accj[i];
    }
  } else {
    for (int j = 0; j < nr; ++j) {
      double* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      const double* accj = acc + j * kGemmMR;
      for (int i = 0; i < mr; ++i) cj[i] += accj[i];
    }
  }
}

[[nodiscard]] constexpr int round_up(int v, int to) {
  return (v + to - 1) / to * to;
}

/// C += alpha * op(A) op(B) (beta already applied). Parallelizes over MC
/// row panels: every C tile is written by exactly one lane and the KC
/// loop is a barrier between accumulation steps, so the result is
/// bit-identical for every thread count.
void gemm_core(Trans ta, ConstMatrixView<double> a, Trans tb,
               ConstMatrixView<double> b, double alpha, int k,
               MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  if (m == 0 || n == 0 || k == 0) return;

  common::ThreadPool* pool = nullptr;
  if (static_cast<long long>(m) * n * k >= kParallelWork &&
      !common::ThreadPool::in_parallel_region()) {
    common::ThreadPool& g = common::global_pool();
    if (g.threads() > 1) pool = &g;
  }

  const int kc_max = std::min(k, kGemmKC);
  const int nc_max = std::min(n, kGemmNC);
  const int mblocks = (m + kGemmMC - 1) / kGemmMC;
  const bool use_pool = pool != nullptr && mblocks > 1;
  const std::size_t apack_elems =
      static_cast<std::size_t>(round_up(std::min(m, kGemmMC), kGemmMR)) *
      kc_max;
  std::vector<double> bpack(
      static_cast<std::size_t>(round_up(nc_max, kGemmNR)) * kc_max);
  std::vector<double> apack_serial;
  if (!use_pool) apack_serial.resize(apack_elems);
  for (int jc = 0; jc < n; jc += kGemmNC) {
    const int nc = std::min(kGemmNC, n - jc);
    for (int pc = 0; pc < k; pc += kGemmKC) {
      const int kc = std::min(kGemmKC, k - pc);
      pack_b_panel(tb, b, pc, jc, kc, nc, bpack.data());

      auto run_block = [&, jc, pc, nc, kc](int ib, double* apack) {
        const int ic = ib * kGemmMC;
        const int mc = std::min(kGemmMC, m - ic);
        pack_a_panel(ta, a, alpha, ic, pc, mc, kc, apack);
        for (int js = 0; js < nc; js += kGemmNR) {
          const int nr = std::min(kGemmNR, nc - js);
          const double* bp = bpack.data() + static_cast<std::size_t>(js) * kc;
          for (int is = 0; is < mc; is += kGemmMR) {
            const int mr = std::min(kGemmMR, mc - is);
            micro_kernel(kc, apack + static_cast<std::size_t>(is) * kc, bp,
                         &c(ic + is, jc + js), c.ld(), mr, nr);
          }
        }
      };

      if (use_pool) {
        pool->parallel_for_chunks(
            0, mblocks, [&](std::int64_t lo, std::int64_t hi) {
              std::vector<double> apack(apack_elems);
              for (std::int64_t ib = lo; ib < hi; ++ib) {
                run_block(static_cast<int>(ib), apack.data());
              }
            });
      } else {
        for (int ib = 0; ib < mblocks; ++ib) {
          run_block(ib, apack_serial.data());
        }
      }
    }
  }
}

}  // namespace

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
          ConstMatrixView<double> b, double beta, MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  FTLA_CHECK((ta == Trans::No ? a.rows() : a.cols()) == m);
  FTLA_CHECK((tb == Trans::No ? b.rows() : b.cols()) == k);
  FTLA_CHECK((tb == Trans::No ? b.cols() : b.rows()) == n);

  scale_inplace(c, beta);
  if (alpha == 0.0 || k == 0 || m == 0 || n == 0) return;

  if (static_cast<long long>(m) * n * k <= kSmallWork) {
    gemm_small(ta, tb, alpha, a, b, c);
    return;
  }
  gemm_core(ta, a, tb, b, alpha, k, c);
}

void syrk(Uplo uplo, Trans trans, double alpha, ConstMatrixView<double> a,
          double beta, MatrixView<double> c) {
  const int n = c.rows();
  FTLA_CHECK(c.cols() == n);
  const int k = trans == Trans::No ? a.cols() : a.rows();
  FTLA_CHECK((trans == Trans::No ? a.rows() : a.cols()) == n);

  // Scale only the referenced triangle.
  for (int j = 0; j < n; ++j) {
    const int lo = uplo == Uplo::Lower ? j : 0;
    const int hi = uplo == Uplo::Lower ? n : j + 1;
    double* col = &c(0, j);
    if (beta == 0.0) {
      for (int i = lo; i < hi; ++i) col[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = lo; i < hi; ++i) col[i] *= beta;
    }
  }
  if (alpha == 0.0 || k == 0 || n == 0) return;

  if (static_cast<long long>(n) * n * k <= kSmallWork) {
    if (trans == Trans::No) {
      // C += alpha * A A^T on the triangle: rank-1 updates per column.
      for (int l = 0; l < k; ++l) {
        const double* al = &a(0, l);
        for (int j = 0; j < n; ++j) {
          const double t = alpha * al[j];
          if (t == 0.0) continue;
          double* cj = &c(0, j);
          const int lo = uplo == Uplo::Lower ? j : 0;
          const int hi = uplo == Uplo::Lower ? n : j + 1;
          for (int i = lo; i < hi; ++i) cj[i] += t * al[i];
        }
      }
    } else {
      // C += alpha * A^T A: dot products of A's columns.
      for (int j = 0; j < n; ++j) {
        const double* aj = &a(0, j);
        double* cj = &c(0, j);
        const int lo = uplo == Uplo::Lower ? j : 0;
        const int hi = uplo == Uplo::Lower ? n : j + 1;
        for (int i = lo; i < hi; ++i) {
          const double* ai = &a(0, i);
          double s = 0.0;
          for (int l = 0; l < k; ++l) s += ai[l] * aj[l];
          cj[i] += alpha * s;
        }
      }
    }
    return;
  }

  // Blocked: with X = op(A) (n x k), each width-w column panel of the
  // triangle splits into a rectangle (a plain GEMM against X's other
  // rows) and a w x w diagonal block computed square into scratch, of
  // which only the referenced triangle is accumulated.
  const auto xrows = [&](int r0, int rr) {
    return trans == Trans::No ? a.block(r0, 0, rr, k)
                              : a.block(0, r0, k, rr);
  };
  const Trans tx = trans;
  const Trans txt = trans == Trans::No ? Trans::Yes : Trans::No;
  for (int j0 = 0; j0 < n; j0 += kTriBlock) {
    const int w = std::min(kTriBlock, n - j0);
    Matrix<double> tmp(w, w);
    gemm_core(tx, xrows(j0, w), txt, xrows(j0, w), alpha, k, tmp.view());
    for (int j = 0; j < w; ++j) {
      const int lo = uplo == Uplo::Lower ? j : 0;
      const int hi = uplo == Uplo::Lower ? w : j + 1;
      double* cj = &c(j0, j0 + j);
      for (int i = lo; i < hi; ++i) cj[i] += tmp(i, j);
    }
    if (uplo == Uplo::Lower && j0 + w < n) {
      gemm_core(tx, xrows(j0 + w, n - j0 - w), txt, xrows(j0, w), alpha, k,
                c.block(j0 + w, j0, n - j0 - w, w));
    } else if (uplo == Uplo::Upper && j0 > 0) {
      gemm_core(tx, xrows(0, j0), txt, xrows(j0, w), alpha, k,
                c.block(0, j0, j0, w));
    }
  }
}

namespace {

/// In-place X := X op(A)^{-1} for one diagonal block, traversed by
/// columns of X (axpy updates between full columns) instead of the old
/// stride-ld row walk. `lower_acting` means op(A) is lower triangular.
void trsm_right_block(Trans trans, Diag diag, ConstMatrixView<double> a,
                      MatrixView<double> b, bool lower_acting) {
  const int m = b.rows();
  const int w = b.cols();
  const auto tri = [&](int l, int j) {
    return trans == Trans::No ? a(l, j) : a(j, l);
  };
  if (lower_acting) {
    // B(:,j) depends on solved columns l > j: sweep right to left.
    for (int j = w - 1; j >= 0; --j) {
      double* bj = &b(0, j);
      for (int l = j + 1; l < w; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] -= t * bl[i];
      }
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] /= d;
      }
    }
  } else {
    for (int j = 0; j < w; ++j) {
      double* bj = &b(0, j);
      for (int l = 0; l < j; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] -= t * bl[i];
      }
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] /= d;
      }
    }
  }
}

/// In-place X := X op(A) for one diagonal block, columnwise (mirror of
/// trsm_right_block).
void trmm_right_block(Trans trans, Diag diag, ConstMatrixView<double> a,
                      MatrixView<double> b, bool lower_acting) {
  const int m = b.rows();
  const int w = b.cols();
  const auto tri = [&](int l, int j) {
    return trans == Trans::No ? a(l, j) : a(j, l);
  };
  if (lower_acting) {
    // New B(:,j) reads original columns l > j: sweep left to right.
    for (int j = 0; j < w; ++j) {
      double* bj = &b(0, j);
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] *= d;
      }
      for (int l = j + 1; l < w; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] += t * bl[i];
      }
    }
  } else {
    for (int j = w - 1; j >= 0; --j) {
      double* bj = &b(0, j);
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] *= d;
      }
      for (int l = 0; l < j; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] += t * bl[i];
      }
    }
  }
}

}  // namespace

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b) {
  const int m = b.rows();
  const int n = b.cols();
  const int ka = side == Side::Left ? m : n;
  FTLA_CHECK(a.rows() == ka && a.cols() == ka);

  scale_inplace(b, alpha);
  if (b.empty()) return;
  const bool lower_acting = (uplo == Uplo::Lower) == (trans == Trans::No);

  if (side == Side::Left) {
    if (m <= kTriBlock) {
      // op(A) X = B: solve each column of B independently.
      for (int j = 0; j < n; ++j) trsv(uplo, trans, diag, a, &b(0, j), 1);
      return;
    }
    // Blocked substitution: small per-column solves on the diagonal
    // blocks, GEMM rank-w updates for everything else.
    if (lower_acting) {
      for (int k0 = 0; k0 < m; k0 += kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trsv(uplo, trans, diag, akk, &bk(0, j), 1);
        const int rest = m - k0 - w;
        if (rest > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, a.block(k0 + w, k0, rest, w),
                 bk, 1.0, b.block(k0 + w, 0, rest, n));
          } else {
            gemm(Trans::Yes, Trans::No, -1.0, a.block(k0, k0 + w, w, rest),
                 bk, 1.0, b.block(k0 + w, 0, rest, n));
          }
        }
      }
    } else {
      for (int k0 = (m - 1) / kTriBlock * kTriBlock; k0 >= 0;
           k0 -= kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trsv(uplo, trans, diag, akk, &bk(0, j), 1);
        if (k0 > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, a.block(0, k0, k0, w), bk, 1.0,
                 b.block(0, 0, k0, n));
          } else {
            gemm(Trans::Yes, Trans::No, -1.0, a.block(k0, 0, w, k0), bk, 1.0,
                 b.block(0, 0, k0, n));
          }
        }
      }
    }
    return;
  }

  // Side::Right: X op(A) = B over column blocks of A — GEMM updates from
  // already-solved column blocks of X, then a columnwise in-block solve.
  // (The old path ran a trsv per row of B with stride ld; this traversal
  // is column-contiguous throughout.)
  if (lower_acting) {
    for (int k0 = (n - 1) / kTriBlock * kTriBlock; k0 >= 0;
         k0 -= kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      const int rest = n - k0 - w;
      if (rest > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, -1.0, b.block(0, k0 + w, m, rest),
               a.block(k0 + w, k0, rest, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, -1.0, b.block(0, k0 + w, m, rest),
               a.block(k0, k0 + w, w, rest), 1.0, bk);
        }
      }
      trsm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/true);
    }
  } else {
    for (int k0 = 0; k0 < n; k0 += kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      if (k0 > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, -1.0, b.block(0, 0, m, k0),
               a.block(0, k0, k0, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, -1.0, b.block(0, 0, m, k0),
               a.block(k0, 0, w, k0), 1.0, bk);
        }
      }
      trsm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/false);
    }
  }
}

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b) {
  const int m = b.rows();
  const int n = b.cols();
  const int ka = side == Side::Left ? m : n;
  FTLA_CHECK(a.rows() == ka && a.cols() == ka);
  if (b.empty()) {
    scale_inplace(b, alpha);
    return;
  }
  const bool lower_acting = (uplo == Uplo::Lower) == (trans == Trans::No);

  if (side == Side::Left) {
    if (m <= kTriBlock) {
      for (int j = 0; j < n; ++j) trmv(uplo, trans, diag, a, &b(0, j), 1);
    } else if (lower_acting) {
      // Row block i reads original row blocks above it: sweep bottom-up.
      for (int k0 = (m - 1) / kTriBlock * kTriBlock; k0 >= 0;
           k0 -= kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trmv(uplo, trans, diag, akk, &bk(0, j), 1);
        if (k0 > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, 1.0, a.block(k0, 0, w, k0),
                 b.block(0, 0, k0, n), 1.0, bk);
          } else {
            gemm(Trans::Yes, Trans::No, 1.0, a.block(0, k0, k0, w),
                 b.block(0, 0, k0, n), 1.0, bk);
          }
        }
      }
    } else {
      // Upper-acting: row block i reads original row blocks below it.
      for (int k0 = 0; k0 < m; k0 += kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trmv(uplo, trans, diag, akk, &bk(0, j), 1);
        const int rest = m - k0 - w;
        if (rest > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, 1.0, a.block(k0, k0 + w, w, rest),
                 b.block(k0 + w, 0, rest, n), 1.0, bk);
          } else {
            gemm(Trans::Yes, Trans::No, 1.0, a.block(k0 + w, k0, rest, w),
                 b.block(k0 + w, 0, rest, n), 1.0, bk);
          }
        }
      }
    }
  } else if (lower_acting) {
    // Side::Right, op(A) lower: column block j reads original column
    // blocks to its right — sweep left to right, columnwise throughout.
    for (int k0 = 0; k0 < n; k0 += kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      trmm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/true);
      const int rest = n - k0 - w;
      if (rest > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, 1.0, b.block(0, k0 + w, m, rest),
               a.block(k0 + w, k0, rest, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, 1.0, b.block(0, k0 + w, m, rest),
               a.block(k0, k0 + w, w, rest), 1.0, bk);
        }
      }
    }
  } else {
    for (int k0 = (n - 1) / kTriBlock * kTriBlock; k0 >= 0;
         k0 -= kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      trmm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/false);
      if (k0 > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, 1.0, b.block(0, 0, m, k0),
               a.block(0, k0, k0, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, 1.0, b.block(0, 0, m, k0),
               a.block(k0, 0, w, k0), 1.0, bk);
        }
      }
    }
  }
  scale_inplace(b, alpha);
}

void symmetrize(Uplo stored, MatrixView<double> a) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n);
  for (int j = 0; j < n; ++j) {
    for (int i = j + 1; i < n; ++i) {
      if (stored == Uplo::Lower) {
        a(j, i) = a(i, j);
      } else {
        a(i, j) = a(j, i);
      }
    }
  }
}

}  // namespace ftla::blas
