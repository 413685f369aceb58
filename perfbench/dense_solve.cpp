// dense_solve: the library user's path. One pass is abft::cholesky_solve
// on a Numeric tardis machine at n = 2048 with one right-hand side and
// the default CholeskyOptions, on a fresh copy of a pre-generated
// matrix. Host time is BLAS-bound; sim, runtime, service and obs do
// (almost) nothing here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "abft/cholesky.hpp"
#include "bench.hpp"
#include "blas/lapack.hpp"
#include "blas/level2.hpp"
#include "common/rng.hpp"
#include "common/spd.hpp"
#include "host_clock_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/profiler.hpp"

namespace perfbench {
namespace {

using namespace ftla;

constexpr int kN = 2048;
/// Distinct seeded matrices the passes rotate through.
constexpr int kMatrices = 3;
constexpr int kSetups = 3;

struct Input {
  Matrix<double> a;
  std::vector<double> b;
  double a_norm = 0.0;  ///< ||A||_inf
};

struct Pass {
  double host_s = 0.0;
  abft::CholeskyResult res;
  sim::SimStats stats;
  double gpu_util = 0.0;
  obs::ProfileReport profile;  ///< traced passes only
  std::vector<double> x;
};

Input make_input(std::uint64_t seed) {
  Input in;
  in.a = Matrix<double>(kN, kN);
  make_spd_diag_dominant(in.a, seed);
  Rng rng(seed ^ 0x5bd1e995ULL);
  in.b.resize(kN);
  for (double& v : in.b) v = rng.uniform(-1.0, 1.0);
  in.a_norm = blas::lange(blas::Norm::Inf, std::as_const(in.a).view());
  return in;
}

/// One timed solve on a fresh machine. The copies of A and b are input
/// handling and stay outside the timed region.
Pass solve(const Input& in, const Hooks& hooks) {
  Pass p;
  Matrix<double> a = in.a;
  p.x = in.b;
  abft::CholeskyOptions opt;
  opt.event_sink = hooks.sink;
  opt.metrics = hooks.metrics;
  opt.profile = hooks.spans;

  if (hooks.sink != nullptr) hooks.sink->mark();
  const double t0 = host_s();
  sim::Machine m(sim::tardis(), sim::ExecutionMode::Numeric);
  m.set_event_sink(hooks.sink);
  m.set_span_store(hooks.spans);
  p.res = abft::cholesky_solve(m, &a, MatrixView<double>(p.x.data(), kN, 1, kN),
                               opt);
  p.host_s = host_s() - t0;

  p.stats = m.stats();
  p.gpu_util = m.gpu_utilization();
  if (hooks.spans != nullptr) p.profile = sim::build_profile(m, *hooks.spans);
  return p;
}

/// Normwise backward error ||b - A x|| / (||A|| ||x|| + ||b||) in the
/// infinity norm: one gemv, O(n^2).
double backward_error(const Input& in, const std::vector<double>& x) {
  std::vector<double> r = in.b;
  blas::gemv(blas::Trans::No, -1.0, std::as_const(in.a).view(), x.data(), 1,
             1.0, r.data(), 1);
  double rn = 0.0;
  double xn = 0.0;
  double bn = 0.0;
  for (int i = 0; i < kN; ++i) {
    rn = std::max(rn, std::abs(r[i]));
    xn = std::max(xn, std::abs(x[i]));
    bn = std::max(bn, std::abs(in.b[i]));
  }
  return rn / (in.a_norm * xn + bn);
}

Digest digest(const Pass& p) {
  Digest d;
  d.add("success", static_cast<long long>(p.res.success));
  d.add("virt_s", p.res.seconds);
  d.add("placement", static_cast<long long>(p.res.chosen_placement));
  d.add("verified.potf2", p.res.verified.potf2_blocks);
  d.add("verified.trsm", p.res.verified.trsm_blocks);
  d.add("verified.syrk", p.res.verified.syrk_blocks);
  d.add("verified.gemm", p.res.verified.gemm_blocks);
  d.add("errors_detected", static_cast<long long>(p.res.errors_detected));
  d.add("reruns", static_cast<long long>(p.res.reruns));
  d.add_stats("stats", p.stats);
  return d;
}

}  // namespace

RunResult run_dense_solve(const RunConfig& cfg) {
  // Input generation (make_spd_diag_dominant's strided row sums) is the
  // benchmark's own work and stays out of setup_s.
  std::vector<Input> inputs;
  for (int i = 0; i < kMatrices; ++i) {
    inputs.push_back(make_input(mix_seed(cfg.seed, static_cast<unsigned>(i))));
  }
  // Bound on the normwise backward error of a Cholesky solve: a small
  // multiple of n * unit roundoff.
  const double tol = 8.0 * kN * std::numeric_limits<double>::epsilon();

  // Set-up: program objects plus one untimed warm-up solve, and NoFt
  // priced once in TimingOnly mode for virt_overhead_pct.
  double noft_s = 0.0;
  Digest reference;
  const double setup_s = median_setup_s(kSetups, [&] {
    const Pass warm = solve(inputs[0], {});
    if (reference.empty()) reference = digest(warm);
    sim::Machine t(sim::tardis(), sim::ExecutionMode::TimingOnly);
    abft::CholeskyOptions noft;
    noft.variant = abft::Variant::NoFt;
    noft_s = abft::cholesky(t, nullptr, kN, noft).seconds;
  });

  std::printf("dense_solve: deterministic digest %s\n",
              reference.hash().c_str());

  RunResult out;
  std::vector<double> virt;
  double worst_error = 0.0;
  // Each input counts once in attempted/failed, on its first solve; a
  // later solve of the same input must reproduce that solve's backward
  // error bit for bit, so the counts depend on the seed only.
  std::vector<Digest> first_solve(kMatrices);
  auto check = [&](const Pass& p, int input) {
    digest(p).expect_equal(reference, "pass vs warm-up");
    const double err = backward_error(inputs[input], p.x);
    worst_error = std::max(worst_error, err);
    Digest e;
    e.add("backward_error", err);
    if (!first_solve[input].empty()) {
      e.expect_equal(first_solve[input], "solve vs first solve of its input");
    } else {
      first_solve[input] = e;
      ++out.attempted;
      if (!p.res.success || !(err <= tol)) {
        ++out.failed;
        std::printf("dense_solve: failed solve input=%d success=%d "
                    "backward_error=%.3e\n",
                    input, static_cast<int>(p.res.success), err);
      }
    }
    virt.push_back(p.res.seconds);
  };

  if (!cfg.trace) {
    const std::vector<double> times =
        run_passes(cfg.seconds, 3, [&](int i) {
          const Pass p = solve(inputs[i % kMatrices], {});
          check(p, i % kMatrices);
          return p.host_s;
        });
    std::printf("dense_solve: pass_s is the median of %zu passes (%s); "
                "worst backward error %.3e (bound %.3e)\n",
                times.size(), range(times).c_str(), worst_error, tol);
    out.add("setup_s", setup_s, "s");
    out.add("pass_s", median(times), "s");
    out.add("virt_s", virt.front(), "sim_s");
    out.add("virt_overhead_pct", 100.0 * (virt.front() / noft_s - 1.0), "%");
    out.add("job_p50_virt_s", percentile(virt, 0.5), "sim_s");
    out.add("job_p90_virt_s", percentile(virt, 0.9), "sim_s");
    out.add("ok_pct", 100.0 * (out.attempted - out.failed) / out.attempted,
            "%");
    return out;
  }

  // Traced run: untraced and traced passes alternate, so drift in host
  // load hits both alike; charges accumulate over the traced passes.
  HostClockSink sink;
  obs::MetricsRegistry metrics;
  std::vector<double> plain;
  std::vector<double> traced;
  double traced_total = 0.0;
  long long events = 0;
  Pass first_traced;
  run_passes(cfg.seconds, 4, [&](int i) {
    const int input = (i / 2) % kMatrices;
    if (i % 2 == 0) {
      const Pass p = solve(inputs[input], {});
      check(p, input);
      plain.push_back(p.host_s);
      return p.host_s;
    }
    obs::SpanStore spans;
    const std::int64_t posted0 = sink.posted();
    Pass p = solve(inputs[input], {&sink, &spans, &metrics});
    check(p, input);
    events += sink.posted() - posted0;
    traced.push_back(p.host_s);
    traced_total += p.host_s;
    if (traced.size() == 1) first_traced = std::move(p);
    return traced.back();
  });

  auto gflops = [&](const char* name) {
    const Charge c = sink.named(name);
    return c.ns > 0 ? static_cast<double>(c.flops) / static_cast<double>(c.ns)
                    : 0.0;
  };
  const double ns_total = traced_total * 1e9;
  const obs::ProfileReport& prof = first_traced.profile;
  const long long ops = sim_ops(first_traced.stats);
  const long long blocks = first_traced.res.verified.total();
  // The registry's Table-I counters must agree with the driver's result.
  long long registry_blocks = 0;
  for (const char* op : {"potf2", "trsm", "syrk", "gemm"}) {
    const auto& c = metrics.counters();
    const auto it = c.find(std::string("abft.verify.") + op + "_blocks");
    if (it != c.end()) registry_blocks += it->second;
  }
  if (registry_blocks != blocks * static_cast<long long>(traced.size())) {
    out.correct = false;
  }
  out.add("blas.host_share_pct",
          pct(static_cast<double>(sink.layer_ns(Layer::Blas)), ns_total), "%");
  out.add("blas.gemm_gflops", gflops("gemm"), "GFLOP/s");
  out.add("blas.syrk_gflops", gflops("syrk"), "GFLOP/s");
  out.add("blas.trsm_gflops", gflops("trsm"), "GFLOP/s");
  out.add("blas.potf2_gflops", gflops("potf2"), "GFLOP/s");
  out.add("abft.codec_host_share_pct",
          pct(static_cast<double>(sink.layer_ns(Layer::Codec)), ns_total),
          "%");
  out.add("abft.codec_us_per_block",
          static_cast<double>(sink.layer_ns(Layer::Codec)) / 1e3 /
              static_cast<double>(blocks * static_cast<long long>(traced.size())),
          "us/block");
  out.add("abft.verified_blocks", static_cast<double>(blocks), "count");
  out.add("abft.recalc_kernels",
          static_cast<double>(sink.named("recalc").events /
                              static_cast<long long>(traced.size())),
          "count");
  out.add("abft.critical_pct",
          pct(prof.abft_critical_seconds, prof.critical_path_seconds), "%");
  out.add("sim.ops", static_cast<double>(ops), "count");
  out.add("sim.host_ns_per_op", median(plain) * 1e9 / static_cast<double>(ops),
          "ns/op");
  out.add("sim.copy_host_share_pct",
          pct(static_cast<double>(sink.layer_ns(Layer::Copy)), ns_total), "%");
  out.add("sim.h2d_mb", static_cast<double>(first_traced.stats.h2d_bytes) / 1e6,
          "MB");
  out.add("sim.d2h_mb", static_cast<double>(first_traced.stats.d2h_bytes) / 1e6,
          "MB");
  out.add("sim.gpu_util_pct", 100.0 * first_traced.gpu_util, "%");
  out.add("sim.idle_critical_pct",
          pct(prof.idle_critical_seconds, prof.critical_path_seconds), "%");
  out.add("obs.events",
          static_cast<double>(events / static_cast<long long>(traced.size())),
          "count");
  out.add("obs.trace_overhead_pct", 100.0 * (median(traced) / median(plain) - 1.0),
          "%");
  std::printf("dense_solve: traced %zu passes, untraced %zu passes; named "
              "layers hold %.1f%% of the traced host time\n",
              traced.size(), plain.size(),
              pct(static_cast<double>(sink.layer_ns(Layer::Blas) +
                                      sink.layer_ns(Layer::Codec) +
                                      sink.layer_ns(Layer::Copy)),
                  ns_total));
  return out;
}

}  // namespace perfbench
