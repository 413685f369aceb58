// Quantifies the paper's §I motivation: general-purpose modular
// redundancy (DMR ~100% overhead to detect, TMR ~200% to correct) versus
// ABFT's few percent — on the same simulated machines, same workload.
#include <iostream>

#include "abft/modular_redundancy.hpp"
#include "bench_util.hpp"

namespace {

void sweep(const ftla::sim::MachineProfile& profile,
           const std::vector<int>& sizes) {
  using namespace ftla;
  using namespace ftla::bench;

  print_header("Modular redundancy vs ABFT on " + profile.name,
               "Relative overhead over the NoFT baseline. DMR detects "
               "only; TMR and Enhanced Online-ABFT both *correct* "
               "computing and storage errors.");
  Table t({"n", "dmr (detect)", "tmr (correct)", "offline-abft",
           "online-abft", "enhanced (K=5)"});
  for (int n : sizes) {
    const double base = timing_run(profile, n, noft_options());
    double dmr, tmr;
    {
      sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
      dmr = abft::dmr_cholesky(m, nullptr, n).seconds;
    }
    {
      sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
      tmr = abft::tmr_cholesky(m, nullptr, n).seconds;
    }
    const double off =
        timing_run(profile, n, variant_options(profile, abft::Variant::Offline));
    const double onl =
        timing_run(profile, n, variant_options(profile, abft::Variant::Online));
    const double enh = timing_run(profile, n, enhanced_options(profile, 5));
    t.add_row({std::to_string(n), Table::pct(dmr / base - 1.0),
               Table::pct(tmr / base - 1.0), Table::pct(off / base - 1.0),
               Table::pct(onl / base - 1.0), Table::pct(enh / base - 1.0)});
  }
  print_table(t);
}

}  // namespace

int main(int argc, char** argv) {
  ftla::bench::require_flags(argc, argv, {});
  sweep(ftla::sim::tardis(), {5120, 10240, 20480});
  sweep(ftla::sim::bulldozer64(), {10240, 20480, 30720});
  std::cout << "Paper §I: DMR costs ~100% and only detects; TMR costs "
               "~200%; ABFT corrects the same faults for a few percent.\n";
  return 0;
}
