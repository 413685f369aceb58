// Paper Figures 16 and 17: performance (GFLOP/s) of the original
// MAGMA-style Cholesky, the CULA-like vendor baseline, and the three
// ABFT schemes, across the matrix-size sweep on both testbeds.
//
// Every run is the paper's bulk-synchronous Algorithm 1;
// bench/runtime_overhead compares the task-graph runtime against it.
//
// Flags: `--sizes N1,N2,...` replaces the paper-scale sweeps;
// `--profile-out FILE` saves the simulated-time profile of the
// largest-size enhanced run on Tardis (perf-regression gate input);
// `--timeseries-out FILE` saves the windowed occupancy time-series of
// that same configuration (HTML report input).
#include <iostream>

#include "bench_util.hpp"

namespace {

void sweep(const ftla::sim::MachineProfile& profile,
           const std::vector<int>& sizes, const char* fig,
           ftla::obs::ProfileReport* prof) {
  using namespace ftla;
  using namespace ftla::bench;

  print_header(std::string("Figure ") + fig + " — performance on " +
                   profile.name,
               "GFLOP/s = (n^3/3) / virtual seconds. Enhanced is fully "
               "optimized (K = 5).");
  Table t({"n", "magma (no-ft)", "cula-like", "offline-abft", "online-abft",
           "enhanced-online-abft"});
  bool enhanced_always_beats_cula = true;
  for (int n : sizes) {
    const double flops = static_cast<double>(n) * n * n / 3.0 / 1e9;
    auto gf = [&](double seconds) { return flops / seconds; };
    const double magma = gf(timing_run(profile, n, noft_options()));
    sim::Machine mc(profile, sim::ExecutionMode::TimingOnly);
    const double cula =
        gf(abft::cula_like_cholesky(mc, nullptr, n).seconds);
    const double off = gf(timing_run(
        profile, n, variant_options(profile, abft::Variant::Offline)));
    const double onl = gf(timing_run(
        profile, n, variant_options(profile, abft::Variant::Online)));
    const bool capture = prof != nullptr && n == sizes.back();
    const double enh = gf(
        capture ? timing_run_profiled(profile, n, enhanced_options(profile, 5),
                                      prof)
                : timing_run(profile, n, enhanced_options(profile, 5)));
    if (enh <= cula) enhanced_always_beats_cula = false;
    t.add_row({std::to_string(n), Table::num(magma, 5), Table::num(cula, 5),
               Table::num(off, 5), Table::num(onl, 5), Table::num(enh, 5)});
  }
  print_table(t);
  std::cout << "Enhanced > CULA at every size: "
            << (enhanced_always_beats_cula ? "yes" : "NO") << " (paper: yes)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {"--sizes", "--profile-out", "--timeseries-out"});
  const std::string profile_path = profile_out_path(argc, argv);
  const auto t_sizes = sizes_override(argc, argv, tardis_sizes());
  const auto b_sizes = sizes_override(argc, argv, bulldozer_sizes());

  obs::ProfileReport prof;
  sweep(sim::tardis(), t_sizes, "16", profile_path.empty() ? nullptr : &prof);
  sweep(sim::bulldozer64(), b_sizes, "17", nullptr);
  write_bench_profile(profile_path, "fig16_17_performance",
                      {{"machine", "tardis"},
                       {"variant", "enhanced"},
                       {"n", std::to_string(t_sizes.back())},
                       {"k", "5"}},
                      prof);
  write_bench_timeseries(timeseries_out_path(argc, argv),
                         "fig16_17_performance",
                         {{"machine", "tardis"},
                          {"variant", "enhanced"},
                          {"n", std::to_string(t_sizes.back())},
                          {"k", "5"}},
                         sim::tardis(), t_sizes.back(),
                         enhanced_options(sim::tardis(), 5));
  return 0;
}
