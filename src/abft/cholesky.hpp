// Fault-tolerant hybrid Cholesky decomposition (the paper's system).
//
// The driver reproduces MAGMA's inner-product blocked Cholesky
// (paper Algorithm 1) on the simulated heterogeneous node:
//
//   for each block column j:
//     [GPU] SYRK   A[j,j]   -= A[j,0:j] A[j,0:j]^T
//     [->]  transfer A[j,j] to the host
//     [GPU] GEMM   A[j+1:,j] -= A[j+1:,0:j] A[j,0:j]^T     (async)
//     [CPU] POTF2  A[j,j] -> L[j,j]          (overlaps the GEMM)
//     [<-]  transfer L[j,j] back
//     [GPU] TRSM   A[j+1:,j] := A[j+1:,j] L[j,j]^{-T}
//
// layered with one of four fault-tolerance schemes (Variant) and the
// paper's three overhead optimizations (CholeskyOptions).
#pragma once

#include "abft/options.hpp"
#include "common/matrix.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

/// Factorizes the SPD matrix held in `*a` (lower triangle of the result
/// holds L; the strict upper triangle is left as zeros block-wise above
/// the diagonal blocks it touches).
///
/// * Numeric mode: `a` must be non-null with a->rows() == a->cols() == n;
///   on success it is overwritten with the factor. Faults from
///   `injector` are injected, detected and (scheme permitting) corrected
///   for real.
/// * TimingOnly mode: `a` may be null; the identical operation sequence
///   is priced on the virtual clock without numeric payloads (used for
///   paper-scale overhead sweeps). `injector` must be null.
///
/// The returned result reports virtual time, correction statistics and
/// the Table-I verification counters.
CholeskyResult cholesky(sim::Machine& machine, Matrix<double>* a, int n,
                        const CholeskyOptions& options,
                        fault::Injector* injector = nullptr);

/// Why RuntimeMode::Dag refuses `options`, or nullptr when the task
/// graph runs them (always nullptr under RuntimeMode::Bulk). The graph
/// does not model "cpu_checksum_mirror" (placement Cpu with checksums to
/// place; Auto resolves to Gpu under Dag), "checkpoint_recovery"
/// (Recovery::Checkpoint, which Offline ignores) or "panel_checkpoint".
/// cholesky() aborts on a refused request, so callers that take options
/// from a user check here first.
[[nodiscard]] const char* dag_refusal(const CholeskyOptions& options);

/// The block size a driver will use for these options on this machine.
int resolve_block_size(const sim::MachineProfile& profile,
                       const DriverOptions& options);

/// Solves A x = b using the fault-tolerant factorization: factorizes on
/// the simulated node, then applies forward/backward substitution on the
/// host. `b` is overwritten with the solution (Numeric mode only).
CholeskyResult cholesky_solve(sim::Machine& machine, Matrix<double>* a,
                              MatrixView<double> b,
                              const CholeskyOptions& options,
                              fault::Injector* injector = nullptr);

}  // namespace ftla::abft
