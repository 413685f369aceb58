// Two doubles in one vector register, for host kernels that run
// independent outputs side by side: the GEMM microkernel, the small-path
// GEMM strip (shared with potf2's column update), the residual oracle's
// tiles and the checksum encoder. Each
// lane does exactly the scalar operation the same output would do alone,
// so vectorizing across outputs (never inside one sum) keeps every bit.
// The GNU vector extension lowers for any target; there are no
// intrinsics and no ISA dispatch.
#pragma once

#include <cstddef>
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

/// c[i] += t(l) * a[i + l * lda] for i in [0, m), l = 0 .. k-1 in that
/// order, skipping every l with t(l) == 0 (so a zero keeps a NaN or Inf
/// of column l out of c): the small-path GEMM's sweep of one output
/// column. Rows go in 8-row strips that stay in four Pairs across the
/// whole l loop, then 2-row strips (one Pair, e.g. a checksum block's
/// two rows), and an odd last row keeps a scalar; each row's adds are
/// its own, so the strip widths never change a bit.
template <class Coef>
inline void strip_update(int m, int k, const Coef& t, const double* a,
                         std::ptrdiff_t lda, double* c) {
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    Pair c0 = load_pair(c + i);
    Pair c1 = load_pair(c + i + 2);
    Pair c2 = load_pair(c + i + 4);
    Pair c3 = load_pair(c + i + 6);
    for (int l = 0; l < k; ++l) {
      const double tl = t(l);
      if (tl == 0.0) continue;
      const Pair tt = {tl, tl};
      const double* al = a + i + l * lda;
      c0 += tt * load_pair(al);
      c1 += tt * load_pair(al + 2);
      c2 += tt * load_pair(al + 4);
      c3 += tt * load_pair(al + 6);
    }
    store_pair(c + i, c0);
    store_pair(c + i + 2, c1);
    store_pair(c + i + 4, c2);
    store_pair(c + i + 6, c3);
  }
  for (; i + 2 <= m; i += 2) {
    Pair c0 = load_pair(c + i);
    for (int l = 0; l < k; ++l) {
      const double tl = t(l);
      if (tl == 0.0) continue;
      const Pair tt = {tl, tl};
      c0 += tt * load_pair(a + i + l * lda);
    }
    store_pair(c + i, c0);
  }
  if (i < m) {
    double s = c[i];
    for (int l = 0; l < k; ++l) {
      const double tl = t(l);
      if (tl == 0.0) continue;
      s += tl * a[i + l * lda];
    }
    c[i] = s;
  }
}

}  // namespace ftla::blas
