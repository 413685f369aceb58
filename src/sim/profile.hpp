// Machine profiles for the heterogeneous-system simulator.
//
// A MachineProfile captures everything the cost model needs about one
// CPU+GPU node: peak rates, SM count, CUDA concurrent-kernel limit, copy
// bandwidths/latencies and per-kernel-class efficiencies. Two calibrated
// presets mirror the paper's testbeds:
//   * tardis()      — 2x AMD Opteron 6272 + NVIDIA Tesla M2075 (Fermi)
//   * bulldozer64() — 4x AMD Opteron 6272 + NVIDIA Tesla K40c (Kepler)
// plus a small generic preset for fast tests.
#pragma once

#include <cstdint>
#include <string>

namespace ftla::sim {

/// Classification of simulated work; selects the efficiency factor the
/// cost model applies on top of peak rate.
enum class KernelClass {
  Blas3,           // large GEMM / SYRK / TRSM tiles: near-peak on GPU
  Blas3Skinny,     // thin GEMM-like checksum *updates* (2 x B panels)
  Blas2,           // memory-bound GEMV-like checksum *recalculation*
  Blas1,           // vector ops
  HostPotf2,       // unblocked Cholesky of one block on the CPU
  HostChecksum,    // checksum update executed on the (idle) CPU
  Compare,         // O(B) checksum comparison / correction logic
  Memset,
  Other,  // keep last: kKernelClasses counts through it
};

/// Number of KernelClass values, for tables indexed by class.
inline constexpr int kKernelClasses = static_cast<int>(KernelClass::Other) + 1;

[[nodiscard]] const char* to_string(KernelClass c);

/// Everything the discrete-event engine needs to price work on a node.
struct MachineProfile {
  std::string name;

  // --- GPU ---------------------------------------------------------
  double gpu_peak_gflops = 515.0;  ///< double-precision peak
  int sm_count = 14;               ///< streaming multiprocessors
  int max_concurrent_kernels = 16; ///< CUDA concurrent-kernel limit (N)
  double kernel_launch_overhead_s = 5e-6;  ///< per-kernel fixed cost
  std::int64_t gpu_memory_bytes = 6LL << 30;

  /// Fraction of peak a kernel of each class achieves when granted the
  /// whole machine (per-SM rate scales linearly with granted SMs).
  double eff_blas3 = 0.60;
  double eff_blas3_skinny = 0.25;
  double eff_blas2 = 0.03;
  double eff_blas1 = 0.01;
  double eff_other = 0.20;

  /// SM units a BLAS-2 checksum-recalculation kernel occupies; the rest
  /// of the pool stays free for concurrent recalc kernels (paper Opt 1:
  /// P = min(max_concurrent_kernels, sm_count / blas2_sm_units)).
  int blas2_sm_units = 2;
  /// SM units a skinny checksum-update kernel occupies.
  int blas3_skinny_sm_units = 4;

  /// Extra "virtual" SM units beyond sm_count, modeling how well the GPU
  /// co-executes small kernels alongside a device-filling BLAS-3 kernel
  /// (latency-hiding spare issue slots). Fermi's concurrent-kernel
  /// support is weak (1); Kepler's Hyper-Q co-runs aggressively (4).
  /// Large kernels request sm_count units, so these spare units are what
  /// lets a checksum-update stream overlap the main compute (Opt 2-GPU).
  int coexec_spare_units = 1;

  // --- CPU ---------------------------------------------------------
  double cpu_peak_gflops = 268.0;  ///< all sockets, double precision
  double cpu_eff_potf2 = 0.06;     ///< small panel factorization
  double cpu_eff_checksum = 0.30;  ///< multithreaded skinny GEMM
  double host_call_overhead_s = 2e-6;  ///< cost of issuing any async call

  // --- CPU <-> GPU link ---------------------------------------------
  double h2d_bandwidth_gbs = 5.5;
  double d2h_bandwidth_gbs = 5.5;
  double transfer_latency_s = 12e-6;
  /// On-device copy bandwidth (cudaMemcpyDeviceToDevice).
  double d2d_bandwidth_gbs = 120.0;

  /// MAGMA's default Cholesky block size for this GPU generation.
  int magma_block_size = 256;

  /// Efficiency factor for a GPU kernel of class `c`.
  [[nodiscard]] double gpu_efficiency(KernelClass c) const;
  /// Default SM-unit request for a GPU kernel of class `c` (0 = all).
  [[nodiscard]] int default_sm_units(KernelClass c) const;
  /// Efficiency factor for host execution of class `c`.
  [[nodiscard]] double cpu_efficiency(KernelClass c) const;

  /// Achievable GFLOP/s of a GPU kernel of class `c` granted `units` SMs.
  [[nodiscard]] double gpu_rate_gflops(KernelClass c, int units) const;
};

/// Paper testbed 1: Fermi-generation node (Tesla M2075, 6 GB, B = 256).
[[nodiscard]] MachineProfile tardis();

/// Paper testbed 2: Kepler-generation node (Tesla K40c, 12 GB, B = 512).
[[nodiscard]] MachineProfile bulldozer64();

/// Small fictional node used by unit tests: round numbers, tiny block
/// size, so expected virtual times can be computed by hand.
[[nodiscard]] MachineProfile test_rig();

/// A modern (Ampere-generation, A100-class) node, used by the
/// projection experiment: does the paper's overhead keep shrinking as
/// GPUs get faster while kernel-launch and PCIe latencies do not?
[[nodiscard]] MachineProfile ampere();

}  // namespace ftla::sim
