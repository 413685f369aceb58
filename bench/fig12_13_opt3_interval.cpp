// Paper Figures 12 and 13: Optimization 3 — relative overhead of
// Enhanced Online-ABFT as the verification interval K is adjusted
// (K = 1, 3, 5), with Opts 1-2 enabled.
//
// Flags: `--sizes N1,N2,...` replaces the paper-scale sweeps;
// `--profile-out FILE` saves the simulated-time profile of the
// largest-size K = 5 run on Tardis (perf-regression gate input).
#include <iostream>

#include "bench_util.hpp"

namespace {

void sweep(const ftla::sim::MachineProfile& profile,
           const std::vector<int>& sizes, const char* fig,
           ftla::obs::ProfileReport* prof) {
  using namespace ftla;
  using namespace ftla::bench;

  print_header(std::string("Figure ") + fig +
                   " — Opt 3 (verification interval K) on " + profile.name,
               "Relative overhead vs NoFT baseline; K gates GEMM/TRSM-panel "
               "input verification (SYRK inputs always verified).");
  Table t({"n", "K=1", "K=3", "K=5"});
  for (int n : sizes) {
    const double base = timing_run(profile, n, noft_options());
    std::vector<std::string> row{std::to_string(n)};
    for (int k : {1, 3, 5}) {
      const bool capture = prof != nullptr && n == sizes.back() && k == 5;
      const double seconds =
          capture ? timing_run_profiled(profile, n,
                                        enhanced_options(profile, k), prof)
                  : timing_run(profile, n, enhanced_options(profile, k));
      row.push_back(Table::pct(seconds / base - 1.0));
    }
    t.add_row(row);
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
  sweep(sim::tardis(), t_sizes, "12", profile_path.empty() ? nullptr : &prof);
  sweep(sim::bulldozer64(), b_sizes, "13", nullptr);
  std::cout << "Paper: overhead drops significantly from K = 1 to K = 5 on "
               "both systems.\n";
  write_bench_profile(profile_path, "fig12_13_opt3_interval",
                      {{"machine", "tardis"},
                       {"variant", "enhanced"},
                       {"n", std::to_string(t_sizes.back())},
                       {"k", "5"}},
                      prof);
  return 0;
}
