#include "abft/modular_redundancy.hpp"

#include <string>

#include "abft/cholesky.hpp"
#include "common/error.hpp"
#include "common/fp.hpp"

namespace ftla::abft {

namespace {

/// Elementwise agreement tolerance of the compare/vote sweep.
constexpr double kCompareRtol = 1e-12;
/// Full restarts allowed when a replica fail-stops or the vote fails.
constexpr int kMaxReruns = 2;

// Runs one NoFT replica. Faults (transient by definition) fire only on
// the attempt whose injector is non-null.
CholeskyResult run_replica(sim::Machine& m, Matrix<double>* a, int n,
                           int block_size, fault::Injector* injector) {
  CholeskyOptions copt;
  copt.variant = Variant::NoFt;
  copt.block_size = block_size;
  return cholesky(m, a, n, copt, injector);
}

bool agree(double x, double y) {
  return approx_equal(x, y, kCompareRtol, kCompareRtol);
}

// Temporal redundancy over `replicas` (2 or 3) NoFT factorizations.
// Each attempt runs the replicas in turn, the injector striking only
// the first replica of the first attempt, and stops at the first
// fail-stop. Otherwise one host sweep over the lower triangles votes
// every element into replica 0: with two replicas any disagreement has
// no majority, so the attempt reruns (DMR detects but cannot tell
// which replica is right); with three, the majority value wins and
// only a three-way split reruns.
CholeskyResult redundant_cholesky(sim::Machine& m, Matrix<double>* a, int n,
                                  int block_size, int replicas,
                                  fault::Injector* injector) {
  FTLA_CHECK(n > 0);
  if (m.numeric()) FTLA_CHECK(a != nullptr && a->rows() == n);

  const double t0 = m.host_now();
  CholeskyResult out;
  Matrix<double> pristine;
  if (m.numeric()) pristine = *a;

  for (int attempt = 0;; ++attempt) {
    Matrix<double> r[3];
    bool ok = true;
    std::string note;
    for (int k = 0; k < replicas && ok; ++k) {
      if (m.numeric()) r[k] = pristine;
      auto res =
          run_replica(m, m.numeric() ? &r[k] : nullptr, n, block_size,
                      attempt == 0 && k == 0 ? injector : nullptr);
      if (!res.success) {
        ok = false;
        note = res.note;
      }
    }
    if (!ok) {
      out.fail_stop_observed = true;
      ++out.errors_detected;  // a replica crash is itself a detection
      if (attempt >= kMaxReruns) {
        out.note = "replica fail-stop: " + note;
        break;
      }
      ++out.reruns;
      continue;
    }

    bool unrecoverable = false;
    int votes_corrected = 0;
    // Virtual cost: one elementwise sweep over every replica's lower
    // triangle, on the host, where the voted result is assembled.
    sim::KernelDesc d{"mr_sweep", sim::KernelClass::HostChecksum,
                      static_cast<std::int64_t>(replicas) * n * (n + 1) / 2,
                      0};
    m.host_compute(d, [&] {
      for (int j = 0; j < n; ++j) {
        for (int i = j; i < n; ++i) {
          const double x = r[0](i, j), y = r[1](i, j);
          const bool xy = agree(x, y);
          if (replicas == 2) {
            if (xy) continue;
            unrecoverable = true;
            return;
          }
          const double z = r[2](i, j);
          const bool xz = agree(x, z);
          if (xy && xz) continue;       // unanimous
          if (xy || xz) {               // r[0] in the majority
            ++votes_corrected;
          } else if (agree(y, z)) {     // r[0] is the outlier
            r[0](i, j) = y;
            ++votes_corrected;
          } else {
            unrecoverable = true;
            return;
          }
        }
      }
    });
    if (unrecoverable) {
      ++out.errors_detected;
      if (attempt >= kMaxReruns) {
        out.note = "replicas still disagree after max reruns";
        break;
      }
      ++out.reruns;
      continue;
    }
    out.errors_detected += votes_corrected > 0 ? 1 : 0;
    out.errors_corrected += votes_corrected;
    if (m.numeric()) *a = r[0];
    out.success = true;
    break;
  }

  m.sync_all();
  out.seconds = m.host_now() - t0;
  const double flops = static_cast<double>(n) * n * n / 3.0;
  out.gflops = out.seconds > 0.0 ? flops / out.seconds / 1e9 : 0.0;
  return out;
}

}  // namespace

CholeskyResult dmr_cholesky(sim::Machine& m, Matrix<double>* a, int n,
                            int block_size, fault::Injector* injector) {
  return redundant_cholesky(m, a, n, block_size, 2, injector);
}

CholeskyResult tmr_cholesky(sim::Machine& m, Matrix<double>* a, int n,
                            int block_size, fault::Injector* injector) {
  return redundant_cholesky(m, a, n, block_size, 3, injector);
}

}  // namespace ftla::abft
