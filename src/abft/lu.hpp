// Enhanced Online-ABFT LU factorization (extension).
//
// The paper's scheme is presented for Cholesky; its related work
// (FT-ScaLAPACK, online LU correction) applies the same machinery to LU.
// This module carries the pre-read-verification idea to a right-looking
// blocked LU without pivoting on the same simulated heterogeneous node:
//
//   for each block column j:
//     [->]  fetch the panel A[j:, j] to the host
//     [CPU] GETF2 (no pivoting) on the panel; re-encode its column
//           checksums from the freshly computed factors
//     [<-]  panel + checksums back to the GPU
//     [GPU] TRSM   U[j, j+1:] := L[j,j]^{-1} A[j, j+1:]
//     [GPU] GEMM   A[j+1:, j+1:] -= L[j+1:, j] U[j, j+1:]
//
// Checksum scheme (the LU twist): the L factor and the trailing matrix
// are protected by *column* checksums exactly as in the paper, but the
// U factor needs *row* checksums — a row checksum transforms like an
// extra matrix column under TRSM's left-multiplication
// (rchk(L^{-1}A) = L^{-1} rchk(A)), which column checksums cannot
// follow. Trailing blocks carry both; a block drops the side that stops
// being maintained once it becomes part of L or U.
//
// Unlike the inner-product Cholesky, right-looking LU never re-reads
// finished factor blocks, so pre-read verification alone cannot catch
// storage errors that strike them afterwards; the driver therefore ends
// with one verification sweep over the finished factor (column
// checksums for L, row checksums for U).
//
// Pivoting is intentionally omitted: row exchanges break the weighted
// column-checksum relation, and no-pivot LU is backward stable for the
// diagonally dominant matrices this driver targets (checked: a zero or
// non-finite pivot raises the fail-stop channel).
#pragma once

#include "abft/options.hpp"
#include "common/matrix.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

/// The shared driver options; `variant` is NoFt or EnhancedOnline.
using LuOptions = DriverOptions;

/// Factorizes `*a` in place into packed L\U (unit-lower L below the
/// diagonal, U on and above). Same Numeric/TimingOnly contract as
/// abft::cholesky. Fault hooks: Op::Potf2 = the panel factorization,
/// Op::Trsm = the U row solve, Op::Gemm = the trailing update.
CholeskyResult lu(sim::Machine& machine, Matrix<double>* a, int n,
                  const LuOptions& options,
                  fault::Injector* injector = nullptr);

}  // namespace ftla::abft
