// Quickstart: factor an SPD matrix with Enhanced Online-ABFT on the
// simulated heterogeneous node while a storage error strikes mid-run,
// and watch the scheme detect and repair it in place.
//
//   $ ./examples/quickstart [n]
#include <cstdio>
#include <cstdlib>

#include "abft/cholesky.hpp"
#include "blas/lapack.hpp"
#include "common/spd.hpp"
#include "fault/fault.hpp"
#include "sim/profile.hpp"

int main(int argc, char** argv) {
  using namespace ftla;

  // 1. A 2048 x 2048 SPD problem (override with argv[1], e.g. for the
  //    ctest smoke run).
  const int n = argc > 1 ? std::atoi(argv[1]) : 2048;
  Matrix<double> a(n, n);
  make_spd_diag_dominant(a, /*seed=*/42);
  const Matrix<double> a_original = a;

  // 2. A simulated node modeled after the paper's TARDIS testbed
  //    (Tesla M2075 + 2x Opteron 6272). Numeric mode: the math is real,
  //    only the clock is virtual.
  sim::Machine machine(sim::tardis(), sim::ExecutionMode::Numeric);

  // 3. Enhanced Online-ABFT with the paper's three optimizations.
  abft::CholeskyOptions options;
  options.variant = abft::Variant::EnhancedOnline;
  options.block_size = 128;      // small block so the demo runs quickly
  options.verify_interval = 1;   // verify every iteration
  options.placement = abft::UpdatePlacement::Auto;  // paper's Opt-2 model

  // 4. Plan a nasty fault: three bits of an already-decomposed block
  //    flip while it sits in device memory, right before the SYRK of
  //    iteration 8 reads it. ECC cannot fix a 3-bit flip; classic
  //    Online-ABFT would have to throw the whole run away.
  fault::FaultSpec flip;
  flip.type = fault::FaultType::Storage;
  flip.op = fault::Op::Syrk;
  flip.iteration = 8;
  flip.block_row = 8;
  flip.block_col = 5;
  flip.elem_row = 17;
  flip.elem_col = 63;
  flip.bits = {20, 44, 54};
  fault::Injector injector({flip});

  // 5. Factorize.
  auto result = abft::cholesky(machine, &a, n, options, &injector);

  std::printf("success            : %s\n", result.success ? "yes" : "no");
  std::printf("virtual time       : %.4f s (%.1f GFLOP/s on the model GPU)\n",
              result.seconds, result.gflops);
  std::printf("faults injected    : %d\n", injector.fired_count());
  std::printf("errors corrected   : %d (reruns: %d)\n",
              result.errors_corrected, result.reruns);
  std::printf("chosen placement   : %s (Opt 2 model)\n",
              to_string(result.chosen_placement));
  for (const auto& rec : injector.records()) {
    std::printf("  fault at A(%d,%d): %.6g -> %.6g\n", rec.global_row,
                rec.global_col, rec.old_value, rec.new_value);
  }

  // 6. Check the factor against the original matrix.
  const double residual =
      blas::cholesky_residual(a_original.view(), a.view());
  // The SDC threshold the campaigns and ftla_cli judge by.
  const bool clean = residual < fault::kSdcResidualThreshold;
  std::printf("||A - L L^T|| / ||A|| = %.3e %s\n", residual,
              clean ? "(clean)" : "(CORRUPTED!)");
  return clean && result.success ? 0 : 1;
}
