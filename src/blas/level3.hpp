// BLAS Level-3: matrix-matrix operations on column-major views.
//
// These are the routines MAGMA's hybrid Cholesky dispatches to the GPU
// (GEMM, SYRK, TRSM). The implementations are cache-blocked with packed
// operand panels and a 4 x 6 microkernel whose tile stays in registers,
// written once in the GNU vector extension (no intrinsics, no ISA
// dispatch), and parallelized over row panels through the shared thread
// pool (common/thread_pool.hpp). The naive loops in blas/reference.cpp
// remain the conformance oracle; docs/performance.md describes the
// blocking scheme, the numeric contract and how to tune it.
#pragma once

#include "blas/types.hpp"
#include "common/matrix.hpp"

namespace ftla::blas {

using ftla::ConstMatrixView;
using ftla::MatrixView;

// Blocking parameters of the packed GEMM core (see docs/performance.md).
// Exposed so tests can probe sizes straddling the panel boundaries and
// benches can report the configuration they measured. Only kGemmKC is
// part of the results; the others change speed, never a bit.
inline constexpr int kGemmMR = 4;    ///< microkernel rows: two SSE2 pairs
inline constexpr int kGemmNR = 6;    ///< microkernel cols: 12 accumulators
inline constexpr int kGemmMC = 120;  ///< packed-A panel rows (L2 resident)
/// Shared panel depth (L1/L2). Each KC block's sum starts at +0 and is
/// added to C once, so KC is part of the results.
inline constexpr int kGemmKC = 256;
inline constexpr int kGemmNC = 1024; ///< packed-B panel cols (L3 resident)
/// Diagonal-block width of the blocked triangular routines (TRSM/TRMM)
/// and the SYRK column panel.
inline constexpr int kTriBlock = 64;

/// C := alpha * op(A) op(B) + beta * C
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
          ConstMatrixView<double> b, double beta, MatrixView<double> c);

/// C := alpha * op(A) op(A)^T + beta * C, only the `uplo` triangle of the
/// n x n result is referenced/updated.
void syrk(Uplo uplo, Trans trans, double alpha, ConstMatrixView<double> a,
          double beta, MatrixView<double> c);

/// B := alpha * op(A)^{-1} B (Side::Left) or alpha * B op(A)^{-1}
/// (Side::Right), with A triangular.
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b);

/// B := alpha * op(A) B (Side::Left) or alpha * B op(A) (Side::Right),
/// with A triangular.
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b);

/// Copies the `uplo` triangle of a symmetric matrix into the other
/// triangle so the matrix becomes explicitly symmetric.
void symmetrize(Uplo stored, MatrixView<double> a);

}  // namespace ftla::blas
