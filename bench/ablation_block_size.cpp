// Ablation: block size B versus fault-tolerance overhead.
//
// The paper fixes B to MAGMA's per-GPU default (256 Fermi / 512 Kepler)
// and notes (§VI) that both the space overhead (2/B) and the asymptotic
// runtime overhead ((2K+2)/BK) shrink with B, while smaller blocks give
// denser protection (more checksums per element). This sweep measures
// the trade-off on the simulator and compares with the analytic model.
#include <iostream>

#include "abft/overhead_model.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {});

  const int n = 10240;

  for (const auto& profile : {sim::tardis(), sim::bulldozer64()}) {
    print_header("Block-size ablation on " + profile.name,
                 "Enhanced Online-ABFT, K = 1, n = 10240. Model = paper "
                 "Table VI; measured = virtual-clock overhead vs a NoFT "
                 "baseline at the same B.");
    Table t({"B", "measured overhead", "model overhead", "space overhead",
             "baseline GFLOP/s"});
    for (int b : {64, 128, 256, 512, 1024}) {
      abft::CholeskyOptions noft;
      noft.variant = abft::Variant::NoFt;
      noft.block_size = b;
      abft::CholeskyOptions enh = enhanced_options(profile, 1);
      enh.block_size = b;
      const double base = timing_run(profile, n, noft);
      const double t_enh = timing_run(profile, n, enh);
      const double flops = static_cast<double>(n) * n * n / 3.0 / 1e9;
      t.add_row({std::to_string(b), Table::pct(t_enh / base - 1.0),
                 Table::pct(abft::enhanced_relative_overhead(n, b, 1)),
                 Table::pct(2.0 / b), Table::num(flops / base, 5)});
    }
    print_table(t);
  }
  std::cout << "Expected: measured overhead falls with B (tracking the "
               "2K+2/BK model term plus per-kernel overheads), confirming "
               "why MAGMA's large default blocks also suit ABFT.\n";
  return 0;
}
