// Reproduces paper Tables II-VI: the analytic overhead model, validated
// against instrumented FLOP counters from the simulator.
//
// For each scheme the closed forms (encode 2n^2; updates Table III;
// recalculation Tables IV/V; overall Table VI) are evaluated and compared
// with the FLOPs the driver actually charged per kernel class.
#include <iostream>

#include "abft/overhead_model.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {"--profile-out"});
  const std::string profile_path = profile_out_path(argc, argv);
  const auto profile = sim::tardis();
  const int n = 20480;
  const int b = 256;

  print_header("Tables II-VI — analytic overhead model vs instrumented FLOPs",
               "Tardis, n = 20480, B = 256. 'measured' sums the FLOPs the "
               "simulator charged for checksum work (GPU blas2 recalc + "
               "skinny/host updates); 'model' is the paper's closed form.");

  auto measure = [&](abft::Variant v, int k) {
    sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
    abft::CholeskyOptions opt = variant_options(profile, v, k);
    auto res = abft::cholesky(m, nullptr, n, opt);
    if (!res.success) std::exit(1);
    const auto& st = m.stats();
    double recalc = 0.0, update = 0.0;
    if (auto it = st.gpu.find(sim::KernelClass::Blas2); it != st.gpu.end())
      recalc += static_cast<double>(it->second.flops);
    if (auto it = st.gpu.find(sim::KernelClass::Blas3Skinny);
        it != st.gpu.end())
      update += static_cast<double>(it->second.flops);
    for (const auto& [cls, cs] : st.host) {
      if (cls == sim::KernelClass::HostChecksum)
        update += static_cast<double>(cs.flops);
    }
    return std::pair{recalc, update};
  };

  const double n3 = abft::cholesky_flops_model(n);

  {
    Table t({"scheme", "K", "model recalc+update+encode", "measured",
             "model rel ovh", "measured rel ovh"});
    for (int k : {1, 3, 5}) {
      auto model = abft::enhanced_abft_overhead(n, b, k);
      auto [recalc, update] = measure(abft::Variant::EnhancedOnline, k);
      const double measured = recalc + update;  // encode folded into blas2
      t.add_row({"enhanced", std::to_string(k),
                 Table::num(model.flops_total(), 5), Table::num(measured, 5),
                 Table::pct(model.flops_total() / n3),
                 Table::pct(measured / n3)});
    }
    auto model = abft::online_abft_overhead(n, b);
    auto [recalc, update] = measure(abft::Variant::Online, 1);
    t.add_row({"online", "-", Table::num(model.flops_total(), 5),
               Table::num(recalc + update, 5),
               Table::pct(model.flops_total() / n3),
               Table::pct((recalc + update) / n3)});
    print_table(t);
  }

  {
    print_header("Table VI — overall relative overhead (n -> infinity: "
                 "2/B online, (2K+2)/BK enhanced)",
                 "");
    Table t({"scheme", "K", "n=5120", "n=10240", "n=20480", "n->inf"});
    t.add_row({"online", "-", Table::pct(abft::online_relative_overhead(5120, b)),
               Table::pct(abft::online_relative_overhead(10240, b)),
               Table::pct(abft::online_relative_overhead(20480, b)),
               Table::pct(2.0 / b)});
    for (int k : {1, 3, 5}) {
      t.add_row({"enhanced", std::to_string(k),
                 Table::pct(abft::enhanced_relative_overhead(5120, b, k)),
                 Table::pct(abft::enhanced_relative_overhead(10240, b, k)),
                 Table::pct(abft::enhanced_relative_overhead(20480, b, k)),
                 Table::pct((2.0 * k + 2.0) / (b * k))});
    }
    print_table(t);
  }

  {
    print_header("Table III/V detail — per-operation breakdown (enhanced, K=1)",
                 "FLOP counts from the closed forms.");
    auto o = abft::enhanced_abft_overhead(n, b, 1);
    Table t({"operation", "update flops", "recalc flops"});
    t.add_row({"POTF2", Table::num(o.update_potf2, 4),
               Table::num(o.recalc_potf2, 4)});
    t.add_row({"TRSM", Table::num(o.update_trsm, 4),
               Table::num(o.recalc_trsm, 4)});
    t.add_row({"SYRK", Table::num(o.update_syrk, 4),
               Table::num(o.recalc_syrk, 4)});
    t.add_row({"GEMM", Table::num(o.update_gemm, 4),
               Table::num(o.recalc_gemm, 4)});
    print_table(t, /*csv=*/false);
  }

  if (!profile_path.empty()) {
    obs::ProfileReport prof;
    timing_run_profiled(
        profile, n, variant_options(profile, abft::Variant::EnhancedOnline, 1),
        &prof);
    write_bench_profile(profile_path, "table6_overhead_model",
                        {{"machine", profile.name},
                         {"variant", "enhanced"},
                         {"n", std::to_string(n)},
                         {"k", "1"}},
                        prof);
  }
  return 0;
}
