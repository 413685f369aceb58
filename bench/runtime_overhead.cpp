// Task-graph runtime vs bulk-synchronous oracle: simulated makespan of
// the Enhanced Online-ABFT Cholesky, LU and QR under both execution
// structures (docs/runtime.md), on both testbeds, at CI-tractable
// sizes.
//
// The DAG runtime issues the same kernels as bulk (bit-identical
// numerics — tests/test_runtime_drivers.cpp) but replaces the bulk
// verify-batch barriers with per-block dependencies, so verification
// hides in compute/transfer slack and iterations overlap. This bench
// *asserts* the makespan is strictly shorter at every measured point
// and exits nonzero otherwise, making the win a regression-gated
// invariant rather than a claim.
//
// Flags: `--sizes N1,N2,...` replaces the pinned sizes,
// `--metrics-out FILE` dumps every measurement (byte-stable JSON; the
// perf gate compares it against bench/baselines/BENCH_runtime.json).
// Cholesky rows are keyed bench.runtime.<machine>.n<N>.*, LU and QR
// rows bench.runtime.<algo>.<machine>.n<N>.*.
//
// Cholesky placement is pinned to Gpu on both machines: the Cpu-mirror
// placement keeps checksum updates on the host, which the task graph
// does not model (abft::dag_refusal), and Auto picks by the bulk model.
#include <iostream>

#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "bench_util.hpp"

namespace {

// Enhanced Online-ABFT, K = 1: the simulated makespan of `algo`.
double makespan(const ftla::sim::MachineProfile& profile, int n,
                const std::string& algo, ftla::abft::RuntimeMode runtime) {
  using namespace ftla;
  if (algo == "cholesky") {
    abft::CholeskyOptions opt;
    opt.variant = abft::Variant::EnhancedOnline;
    opt.placement = abft::UpdatePlacement::Gpu;
    opt.runtime = runtime;
    return bench::timing_run(profile, n, opt);
  }
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  abft::CholeskyResult res;
  if (algo == "lu") {
    abft::LuOptions opt;
    opt.runtime = runtime;
    res = abft::lu(m, nullptr, n, opt);
  } else {
    abft::QrOptions opt;
    opt.runtime = runtime;
    res = abft::qr(m, nullptr, nullptr, n, opt);
  }
  if (!res.success) {
    std::cerr << "timing run failed: " << res.note << "\n";
    std::exit(1);
  }
  return res.seconds;
}

bool sweep(const ftla::sim::MachineProfile& profile, const std::string& algo,
           const std::vector<int>& sizes,
           ftla::obs::MetricsRegistry* metrics) {
  using namespace ftla;
  using namespace ftla::bench;

  print_header("Task-graph runtime — " + algo + " makespan vs bulk on " +
                   profile.name,
               "Enhanced Online-ABFT, K = 1, concurrent recalc" +
                   std::string(algo == "cholesky" ? ", placement Gpu" : "") +
                   ". delta = 1 - dag/bulk (positive = DAG shorter).");
  Table t({"n", "bulk (s)", "dag (s)", "delta"});
  bool strictly_shorter = true;
  for (int n : sizes) {
    const double bulk = makespan(profile, n, algo, abft::RuntimeMode::Bulk);
    const double dag = makespan(profile, n, algo, abft::RuntimeMode::Dag);
    const double delta = 1.0 - dag / bulk;
    strictly_shorter &= dag < bulk;
    t.add_row({std::to_string(n), Table::num(bulk, 6), Table::num(dag, 6),
               Table::pct(delta)});
    if (metrics != nullptr) {
      const std::string key = "bench.runtime." +
                              (algo == "cholesky" ? "" : algo + ".") +
                              profile.name + ".n" + std::to_string(n) + ".";
      metrics->set_gauge(key + "bulk_s", bulk);
      metrics->set_gauge(key + "dag_s", dag);
      metrics->set_gauge(key + "delta", delta);
    }
  }
  print_table(t);
  std::cout << "DAG strictly shorter at every size: "
            << (strictly_shorter ? "yes" : "NO") << " (required)\n";
  return strictly_shorter;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {"--metrics-out", "--sizes"});
  const std::string metrics_path = metrics_out_path(argc, argv);
  const std::vector<int> sizes = sizes_override(argc, argv, {2048, 4096});

  obs::MetricsRegistry metrics;
  obs::MetricsRegistry* mp = metrics_path.empty() ? nullptr : &metrics;
  bool ok = true;
  for (const char* algo : {"cholesky", "lu", "qr"}) {
    ok &= sweep(sim::tardis(), algo, sizes, mp);
    ok &= sweep(sim::bulldozer64(), algo, sizes, mp);
  }

  write_bench_report(metrics_path, "runtime_overhead",
                     {{"variant", "enhanced"},
                      {"placement", "gpu"},
                      {"k", "1"},
                      {"max_n", std::to_string(sizes.back())}},
                     metrics);
  if (!ok) {
    std::cerr << "FAIL: DAG makespan not strictly below bulk\n";
    return 1;
  }
  return 0;
}
