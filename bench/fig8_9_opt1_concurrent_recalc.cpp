// Paper Figures 8 and 9: Optimization 1 — relative overhead of Enhanced
// Online-ABFT before and after enabling concurrent checksum
// recalculation on multiple CUDA streams. One series per testbed.
//
// Flags: `--sizes N1,N2,...` replaces the paper-scale sweeps;
// `--profile-out FILE` saves the simulated-time profile of the
// largest-size after-Opt-1 run on Tardis (perf-regression gate input).
#include <iostream>

#include "bench_util.hpp"

namespace {

void sweep(const ftla::sim::MachineProfile& profile,
           const std::vector<int>& sizes, const char* fig,
           ftla::obs::ProfileReport* prof) {
  using namespace ftla;
  using namespace ftla::bench;

  print_header(std::string("Figure ") + fig +
                   " — Opt 1 (concurrent checksum recalculation) on " +
                   profile.name,
               "Relative overhead vs the NoFT MAGMA-style baseline, "
               "Enhanced Online-ABFT with K = 1, paper placement.");
  Table t({"n", "overhead before opt1", "overhead after opt1",
           "reduction (abs)"});
  for (int n : sizes) {
    const double base = timing_run(profile, n, noft_options());
    abft::CholeskyOptions before = enhanced_options(profile);
    before.concurrent_recalc = false;
    abft::CholeskyOptions after = enhanced_options(profile);
    const double ovh_before = timing_run(profile, n, before) / base - 1.0;
    const bool capture = prof != nullptr && n == sizes.back();
    const double ovh_after =
        (capture ? timing_run_profiled(profile, n, after, prof)
                 : timing_run(profile, n, after)) /
            base -
        1.0;
    t.add_row({std::to_string(n), Table::pct(ovh_before),
               Table::pct(ovh_after), Table::pct(ovh_before - ovh_after)});
  }
  print_table(t);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {"--sizes", "--profile-out"});
  const std::string profile_path = profile_out_path(argc, argv);
  const auto t_sizes = sizes_override(argc, argv, tardis_sizes());
  const auto b_sizes = sizes_override(argc, argv, bulldozer_sizes());

  obs::ProfileReport prof;
  sweep(sim::tardis(), t_sizes, "8", profile_path.empty() ? nullptr : &prof);
  sweep(sim::bulldozer64(), b_sizes, "9", nullptr);
  std::cout << "Paper: Opt 1 reduces relative overhead by ~2% on Tardis and "
               "~10% on Bulldozer64 (the Kepler GPU co-runs more recalc "
               "kernels).\n";
  write_bench_profile(profile_path, "fig8_9_opt1_concurrent_recalc",
                      {{"machine", "tardis"},
                       {"variant", "enhanced"},
                       {"n", std::to_string(t_sizes.back())},
                       {"k", "1"}},
                      prof);
  return 0;
}
