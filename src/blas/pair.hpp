// Two doubles in one vector register, for host kernels that run
// independent outputs side by side: the GEMM microkernel, the small-path
// GEMM strip, the residual oracle's tiles and the checksum encoder. Each
// lane does exactly the scalar operation the same output would do alone,
// so vectorizing across outputs (never inside one sum) keeps every bit.
// The GNU vector extension lowers for any target; there are no
// intrinsics and no ISA dispatch.
#pragma once

#include <cstring>

namespace ftla::blas {

using Pair = double __attribute__((vector_size(16)));

/// Unaligned load of p[0], p[1].
inline Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Unaligned store to p[0], p[1].
inline void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

}  // namespace ftla::blas
