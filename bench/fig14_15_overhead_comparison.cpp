// Paper Figures 14 and 15: relative overhead of Offline-ABFT,
// Online-ABFT and the fully optimized Enhanced Online-ABFT across the
// matrix-size sweep on both testbeds.
//
// Every run is the paper's bulk-synchronous Algorithm 1;
// bench/runtime_overhead compares the task-graph runtime against it.
//
// Flags: `--sizes N1,N2,...` replaces both testbeds' paper-scale sweeps
// (CI uses this to emit BENCH_overhead.json at tractable sizes),
// `--metrics-out FILE` dumps every overhead ratio as gauges, and
// `--profile-out FILE` saves the simulated-time profile of the
// largest-size enhanced run on Tardis for the perf-regression gate.
#include <iostream>

#include "bench_util.hpp"

namespace {

void sweep(const ftla::sim::MachineProfile& profile,
           const std::vector<int>& sizes, const char* fig,
           ftla::obs::MetricsRegistry* metrics,
           ftla::obs::ProfileReport* prof) {
  using namespace ftla;
  using namespace ftla::bench;

  print_header(std::string("Figure ") + fig + " — overhead comparison on " +
                   profile.name,
               "Relative overhead vs NoFT baseline. Enhanced uses all three "
               "optimizations (K = 5, paper placement, concurrent recalc).");
  Table t({"n", "offline-abft", "online-abft", "enhanced-online-abft"});
  double last_enhanced = 0.0;
  for (int n : sizes) {
    const double base = timing_run(profile, n, noft_options());
    const double off =
        timing_run(profile, n,
                   variant_options(profile, abft::Variant::Offline)) /
            base -
        1.0;
    const double onl =
        timing_run(profile, n,
                   variant_options(profile, abft::Variant::Online)) /
            base -
        1.0;
    // The largest enhanced run doubles as the profiled representative.
    const bool capture = prof != nullptr && n == sizes.back();
    const double enh_seconds =
        capture ? timing_run_profiled(profile, n, enhanced_options(profile, 5),
                                      prof)
                : timing_run(profile, n, enhanced_options(profile, 5));
    const double enh = enh_seconds / base - 1.0;
    last_enhanced = enh;
    t.add_row({std::to_string(n), Table::pct(off), Table::pct(onl),
               Table::pct(enh)});
    if (metrics != nullptr) {
      const std::string key =
          "bench.overhead." + profile.name + ".n" + std::to_string(n) + ".";
      metrics->set_gauge(key + "baseline_s", base);
      metrics->set_gauge(key + "offline", off);
      metrics->set_gauge(key + "online", onl);
      metrics->set_gauge(key + "enhanced", enh);
    }
  }
  print_table(t);
  std::cout << "Largest-size enhanced overhead: "
            << Table::pct(last_enhanced) << " (paper: < "
            << (profile.name == "tardis" ? "6%" : "4%") << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {"--sizes", "--metrics-out", "--profile-out"});
  const std::string metrics_path = metrics_out_path(argc, argv);
  const std::string profile_path = profile_out_path(argc, argv);
  const auto t_sizes = sizes_override(argc, argv, tardis_sizes());
  const auto b_sizes = sizes_override(argc, argv, bulldozer_sizes());

  obs::MetricsRegistry metrics;
  obs::MetricsRegistry* mp = metrics_path.empty() ? nullptr : &metrics;
  obs::ProfileReport prof;
  sweep(sim::tardis(), t_sizes, "14", mp,
        profile_path.empty() ? nullptr : &prof);
  sweep(sim::bulldozer64(), b_sizes, "15", mp, nullptr);

  write_bench_report(metrics_path, "fig14_15_overhead_comparison",
                     {{"k", "5"},
                      {"runtime", "bulk"},
                      {"tardis_max_n", std::to_string(t_sizes.back())},
                      {"bulldozer_max_n", std::to_string(b_sizes.back())}},
                     metrics);
  write_bench_profile(profile_path, "fig14_15_overhead_comparison",
                      {{"machine", "tardis"},
                       {"variant", "enhanced"},
                       {"n", std::to_string(t_sizes.back())},
                       {"k", "5"}},
                      prof);
  return 0;
}
