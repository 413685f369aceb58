#include "fma_probe.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "blas/level3.hpp"
#include "common/matrix.hpp"
#include "common/spd.hpp"
#include "host_clock_sink.hpp"

namespace perfbench {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(host_now_ns() - t0_ns) * 1e-9;
}

// The widest vector the build's target flags enable: the probe must
// measure what this build can reach, not what the chip could with other
// flags.
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#elif defined(__AVX__)
constexpr int kVecBytes = 32;
#else
constexpr int kVecBytes = 16;
#endif
using Vec = double __attribute__((vector_size(kVecBytes)));
constexpr int kLanes = kVecBytes / static_cast<int>(sizeof(double));
// Twelve independent multiply-add chains held in registers cover the
// multiply and add latencies on two vector pipes and, with the two
// broadcast operands, fit the sixteen registers of the baseline target.
constexpr int kChains = 12;
constexpr long long kSteps = 20'000'000;

/// `scale` and `shift` arrive at run time so the loop cannot be folded;
/// the returned sum keeps it live.
double chain_kernel(double scale, double shift) {
  const Vec m = Vec{} + scale;
  const Vec c = Vec{} + shift;
  Vec a0 = Vec{} + 1.00, a1 = Vec{} + 1.01, a2 = Vec{} + 1.02,
      a3 = Vec{} + 1.03, a4 = Vec{} + 1.04, a5 = Vec{} + 1.05,
      a6 = Vec{} + 1.06, a7 = Vec{} + 1.07, a8 = Vec{} + 1.08,
      a9 = Vec{} + 1.09, a10 = Vec{} + 1.10, a11 = Vec{} + 1.11;
  for (long long s = 0; s < kSteps; ++s) {
    a0 = a0 * m + c;
    a1 = a1 * m + c;
    a2 = a2 * m + c;
    a3 = a3 * m + c;
    a4 = a4 * m + c;
    a5 = a5 * m + c;
    a6 = a6 * m + c;
    a7 = a7 * m + c;
    a8 = a8 * m + c;
    a9 = a9 * m + c;
    a10 = a10 * m + c;
    a11 = a11 * m + c;
  }
  const Vec sum = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11;
  double total = 0.0;
  for (int i = 0; i < kLanes; ++i) total += sum[i];
  return total;
}

}  // namespace

double fma_peak_gflops(int reps) {
  // |scale| < 1 keeps the chains bounded (fixed point shift/(1-scale)).
  volatile double scale = 0.999999;
  volatile double shift = 1e-7;
  volatile double keep = 0.0;
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = host_now_ns();
    keep = keep + chain_kernel(scale, shift);
    const double s = seconds_since(t0);
    rates.push_back(2.0 * kChains * kLanes * static_cast<double>(kSteps) / s /
                    1e9);
  }
  return median(rates);
}

double gemm_gflops(int n, int reps) {
  ftla::Matrix<double> a(n, n);
  ftla::Matrix<double> b(n, n);
  ftla::Matrix<double> c(n, n);
  ftla::make_uniform(a, 11);
  ftla::make_uniform(b, 12);
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = host_now_ns();
    ftla::blas::gemm(ftla::blas::Trans::No, ftla::blas::Trans::No, 1.0,
                     std::as_const(a).view(), std::as_const(b).view(), 0.0,
                     c.view());
    const double s = seconds_since(t0);
    rates.push_back(2.0 * n * static_cast<double>(n) * n / s / 1e9);
  }
  return median(rates);
}

}  // namespace perfbench
