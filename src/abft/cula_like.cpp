#include "abft/cula_like.hpp"

#include <algorithm>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "common/error.hpp"
#include "sim/device_matrix.hpp"
#include "sim/gpublas.hpp"

namespace ftla::abft {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;
using sim::DMat;
using sim::KernelClass;
using sim::KernelDesc;

namespace {
// CULA R18's proprietary kernels reached a somewhat lower fraction of
// peak than MAGMA's on the same GPUs (visible as the constant gap in the
// paper's Figs. 16-17). Price this routine's device kernels as if they
// ran at 88% of the MAGMA-kernel efficiency.
constexpr double kCulaKernelEfficiencyRatio = 0.88;

std::int64_t derate(std::int64_t flops) {
  return static_cast<std::int64_t>(
      static_cast<double>(flops) / kCulaKernelEfficiencyRatio);
}
}  // namespace

CholeskyResult cula_like_cholesky(sim::Machine& m, Matrix<double>* a, int n,
                                  int block_size) {
  FTLA_CHECK(n > 0);
  if (m.numeric()) {
    FTLA_CHECK(a != nullptr && a->rows() == n && a->cols() == n);
  }
  const int b = block_size > 0 ? block_size : m.profile().magma_block_size;
  const int nb = (n + b - 1) / b;
  const auto s = m.default_stream();

  auto d_a = m.alloc(static_cast<std::int64_t>(n) * n);
  Matrix<double> h_diag;  // host staging: payloads only in Numeric mode
  if (m.numeric()) h_diag = Matrix<double>(b, b);
  m.memcpy_h2d(d_a, 0, m.numeric() ? a->data() : nullptr,
               static_cast<std::int64_t>(n) * n, s, /*blocking=*/true);
  m.sync_all();
  const double t0 = m.host_now();

  CholeskyResult res;
  auto region = [&](int row, int col, int rows, int cols) {
    return DMat{&d_a, static_cast<std::int64_t>(col) * n + row, rows, cols,
                n};
  };

  try {
    for (int j = 0; j < nb; ++j) {
      const int jb = std::min(b, n - j * b);
      const int w = j * b;
      const int below = n - w - jb;
      if (j > 0) {
        const DMat diag = region(w, w, jb, jb);
        const DMat lc = region(w, 0, jb, w);
        KernelDesc d{"syrk", KernelClass::Blas3,
                     derate(blas::syrk_flops(jb, w)), 0};
        m.launch(s, d, [diag, lc] {
          blas::gemm(Trans::No, Trans::Yes, -1.0,
                     ftla::ConstMatrixView<double>(lc.view()), lc.view(),
                     1.0, diag.view());
        });
      }
      // Synchronous schedule: the GPU drains, the block crosses over,
      // the CPU factors it, and only then does the trailing update
      // start — nothing is hidden (this is the CULA performance gap).
      m.memcpy_d2h_2d(m.numeric() ? h_diag.data() : nullptr, b,
                      region(w, w, jb, jb), s, /*blocking=*/true);
      KernelDesc pd{"potf2", KernelClass::HostPotf2, blas::potf2_flops(jb),
                    0};
      m.host_compute(pd, [&h_diag, jb] {
        auto blk = h_diag.block(0, 0, jb, jb);
        blas::potf2(blk);
        for (int c = 1; c < jb; ++c)
          for (int r = 0; r < c; ++r) blk(r, c) = 0.0;
      });
      m.memcpy_h2d_2d(region(w, w, jb, jb),
                      m.numeric() ? h_diag.data() : nullptr, b, s,
                      /*blocking=*/true);
      if (below > 0) {
        if (j > 0) {
          const sim::DConstMat ga = region(w + jb, 0, below, w);
          const sim::DConstMat gb = region(w, 0, jb, w);
          const DMat gc = region(w + jb, w, below, jb);
          KernelDesc gd{"gemm", KernelClass::Blas3,
                        derate(blas::gemm_flops(below, jb, w)), 0};
          m.launch(s, gd, [ga, gb, gc] {
            blas::gemm(Trans::No, Trans::Yes, -1.0, ga.view(), gb.view(),
                       1.0, gc.view());
          });
        }
        const sim::DConstMat ta = region(w, w, jb, jb);
        const DMat tb = region(w + jb, w, below, jb);
        KernelDesc td{"trsm", KernelClass::Blas3,
                      derate(blas::trsm_flops(Side::Right, below, jb)), 0};
        m.launch(s, td, [ta, tb] {
          blas::trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit,
                     1.0, ta.view(), tb.view());
        });
        m.sync_stream(s);
      }
    }
    res.success = true;
  } catch (const NotPositiveDefiniteError& e) {
    res.success = false;
    res.fail_stop_observed = true;
    res.note = e.what();
  }

  m.sync_all();
  res.seconds = m.host_now() - t0;
  const double flops = static_cast<double>(n) * n * n / 3.0;
  res.gflops = res.seconds > 0.0 ? flops / res.seconds / 1e9 : 0.0;
  if (res.success && m.numeric()) {
    m.memcpy_d2h(a->data(), d_a, 0, static_cast<std::int64_t>(n) * n, s,
                 /*blocking=*/true);
  }
  return res;
}

}  // namespace ftla::abft
