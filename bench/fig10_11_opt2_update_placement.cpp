// Paper Figures 10 and 11: Optimization 2 — relative overhead before
// (checksum updating blocking the compute stream) and after (updating
// overlapped on the CPU for Tardis, on a concurrent GPU stream for
// Bulldozer64, as the paper's model decides).
//
// Flags: `--sizes N1,N2,...` replaces the paper-scale sweeps;
// `--profile-out FILE` saves the simulated-time profile of the
// largest-size after-Opt-2 run on Tardis (perf-regression gate input).
#include <iostream>

#include "abft/opt2_model.hpp"
#include "bench_util.hpp"

namespace {

void sweep(const ftla::sim::MachineProfile& profile,
           const std::vector<int>& sizes, const char* fig,
           ftla::obs::ProfileReport* prof) {
  using namespace ftla;
  using namespace ftla::bench;

  const auto placement = paper_placement(profile);
  print_header(std::string("Figure ") + fig +
                   " — Opt 2 (checksum update placement) on " + profile.name,
               std::string("After-curve places updates on the ") +
                   (placement == abft::UpdatePlacement::Cpu ? "CPU"
                                                            : "GPU") +
                   " (paper §VII-D); Enhanced Online-ABFT, K = 1, "
                   "concurrent recalc on.");
  Table t({"n", "overhead before opt2", "overhead after opt2",
           "reduction (abs)", "model picks"});
  for (int n : sizes) {
    const double base = timing_run(profile, n, noft_options());
    abft::CholeskyOptions before = enhanced_options(profile);
    before.placement = abft::UpdatePlacement::Blocking;
    abft::CholeskyOptions after = enhanced_options(profile);
    after.placement = placement;
    const double ovh_before = timing_run(profile, n, before) / base - 1.0;
    const bool capture = prof != nullptr && n == sizes.back();
    const double ovh_after =
        (capture ? timing_run_profiled(profile, n, after, prof)
                 : timing_run(profile, n, after)) /
            base -
        1.0;
    const auto model = abft::opt2_decide(profile, n, profile.magma_block_size,
                                         1);
    t.add_row({std::to_string(n), Table::pct(ovh_before),
               Table::pct(ovh_after), Table::pct(ovh_before - ovh_after),
               to_string(model.decision)});
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
  sweep(sim::tardis(), t_sizes, "10", profile_path.empty() ? nullptr : &prof);
  sweep(sim::bulldozer64(), b_sizes, "11", nullptr);
  std::cout << "Paper: Opt 2 reduces relative overhead by ~5% on Tardis "
               "(CPU updating) and ~8% on Bulldozer64 (GPU updating).\n";
  write_bench_profile(profile_path, "fig10_11_opt2_update_placement",
                      {{"machine", "tardis"},
                       {"variant", "enhanced"},
                       {"n", std::to_string(t_sizes.back())},
                       {"k", "1"}},
                      prof);
  return 0;
}
