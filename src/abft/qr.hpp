// Enhanced Online-ABFT QR factorization (extension).
//
// Blocked Householder QR on the simulated heterogeneous node, with the
// paper's pre-read verification idea carried over:
//
//   for each block column j:
//     [->]  fetch the panel A[j:, j] to the host
//     [CPU] GEQF2 + LARFT (reflectors V, scalars tau, block factor T);
//           re-encode the panel's row checksums from the fresh factors
//     [<-]  panel, checksums and T back to the GPU
//     [GPU] LARFB  A[j:, j+1:] := (I - V T V^T)^T A[j:, j+1:]
//
// Checksum scheme: QR applies orthogonal factors from the LEFT, so the
// protected invariant is the ROW checksum rchk(A) = A w — for any left
// factor M, rchk(M A) = M rchk(A), which means the trailing update
// protects its own checksums by applying the *identical* block
// reflector to the checksum columns. (Column checksums cannot follow a
// left multiplication at all; contrast with Cholesky/LU.) The V factor
// is re-encoded on the (reliable) host after panel factorization and
// verified before the trailing update reads it; a final sweep covers
// blocks at rest after their last use, as in the LU extension.
//
// Residual exposure, documented deliberately: the small T factor
// (B x B per iteration) crosses to the device unprotected and is
// consumed within the same iteration; a fault striking T in that short
// window produces a consistent-but-wrong trailing update that only an
// orthogonality check would catch. The paper's scheme has the analogous
// exposure for its host-side POTF2 outputs between Algorithm-2 runs.
#pragma once

#include "abft/options.hpp"
#include "common/matrix.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

/// The shared driver options; `variant` is NoFt or EnhancedOnline.
using QrOptions = DriverOptions;

/// Factorizes `*a` in place into the packed Householder form (V below
/// the diagonal, R on/above); `tau` receives n reflector scalars.
/// Fault hooks: Op::Potf2 = the panel factorization, Op::Trsm = the V/T
/// staging read, Op::Gemm = the trailing update.
CholeskyResult qr(sim::Machine& machine, Matrix<double>* a,
                  std::vector<double>* tau, int n, const QrOptions& options,
                  fault::Injector* injector = nullptr);

}  // namespace ftla::abft
