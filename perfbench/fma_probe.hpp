// Single-core multiply-add peak probe.
//
// Compiled in the same build type and with the same flags as src/blas
// (no -march, no -ffast-math), so it measures the multiply-add rate the
// auto-vectorized BLAS kernels could reach with this build on this host,
// not the chip's datasheet peak.
#pragma once

namespace perfbench {

/// Median GFLOP/s of an independent multiply-add chain kernel over
/// `reps` timed repetitions (2 flops per multiply-add).
[[nodiscard]] double fma_peak_gflops(int reps);

/// Median GFLOP/s of blas::gemm on an n x n x n product over `reps`
/// timed repetitions.
[[nodiscard]] double gemm_gflops(int n, int reps);

}  // namespace perfbench
