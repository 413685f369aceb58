// LAPACK subset needed by the Cholesky drivers: unblocked and blocked
// Cholesky factorization, triangular solves against a factorization,
// and matrix norms / residual helpers used in tests and examples.
#pragma once

#include "blas/types.hpp"
#include "common/matrix.hpp"

namespace ftla::blas {

enum class Norm { One, Inf, Fro, Max };

/// Unblocked Cholesky factorization of the lower triangle (LAPACK dpotf2,
/// Uplo::Lower). On exit the lower triangle of `a` holds L with
/// A = L L^T; the strict upper triangle is not referenced.
/// Throws ftla::NotPositiveDefiniteError if a pivot is not positive —
/// this is the fail-stop path a storage error can trigger (paper §III).
void potf2(MatrixView<double> a);

/// Blocked Cholesky factorization (LAPACK dpotrf, Uplo::Lower) with
/// block size `nb`; right-looking variant.
void potrf(MatrixView<double> a, int nb = 64);

/// Solves A x = b for nrhs right-hand sides given the Cholesky factor L
/// in the lower triangle of `l` (LAPACK dpotrs).
void potrs(ConstMatrixView<double> l, MatrixView<double> b);

/// Unblocked LU factorization without pivoting (LAPACK dgetf2 minus the
/// row exchanges) of an m x n panel: on exit the strictly-lower part
/// holds the multipliers of unit-lower L and the upper part holds U.
/// Intended for diagonally dominant matrices, where no-pivot LU is
/// backward stable. Throws ftla::NotPositiveDefiniteError on a zero or
/// non-finite pivot (reusing the fail-stop channel).
void getf2_nopiv(MatrixView<double> a);

/// Blocked right-looking LU without pivoting (dgetrf-style) with block
/// size `nb`.
void getrf_nopiv(MatrixView<double> a, int nb = 64);

/// Relative factorization residual ||A - L U||_F / ||A||_F where the
/// unit-lower L and upper U are packed in `lu` (getrf_nopiv output).
double lu_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> lu);

/// Matrix norm of a general rectangular view.
double lange(Norm norm, ConstMatrixView<double> a);

/// Relative factorization residual of a Cholesky factor (the canonical
/// accuracy check): the Frobenius norm of the lower triangle of
/// A - L L^T, diagonal included, over ||A||_F of all of A. Only L's lower
/// triangle is read, so its strict upper triangle may hold anything
/// (potrf leaves the input there). Each (L L^T)(i,j) is summed from +0 in
/// k order and the squares are accumulated in (j, i) order, so the value
/// does not depend on how the kernel is tiled.
double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l);

/// Max absolute elementwise difference between two equally sized views.
double max_abs_diff(ConstMatrixView<double> a, ConstMatrixView<double> b);

}  // namespace ftla::blas
