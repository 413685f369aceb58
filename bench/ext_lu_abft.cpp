// Extension experiment: Enhanced Online-ABFT carried to LU
// factorization (right-looking, no pivoting) on the same simulated
// testbeds — overhead sweep plus a miniature fault-capability table.
#include <iostream>

#include "abft/lu.hpp"
#include "bench_util.hpp"
#include "blas/lapack.hpp"
#include "common/spd.hpp"

namespace {

using namespace ftla;
using namespace ftla::bench;

double lu_timing(const sim::MachineProfile& profile, int n,
                 const abft::LuOptions& opt) {
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  auto res = abft::lu(m, nullptr, n, opt);
  if (!res.success) std::exit(1);
  return res.seconds;
}

void overhead_sweep(const sim::MachineProfile& profile,
                    const std::vector<int>& sizes) {
  print_header("LU extension — relative overhead on " + profile.name,
               "Enhanced Online-ABFT LU (column checksums for L, row "
               "checksums for U, final sweep) vs the NoFT hybrid LU.");
  Table t({"n", "K=1", "K=3", "K=5"});
  for (int n : sizes) {
    abft::LuOptions noft;
    noft.variant = abft::Variant::NoFt;
    const double base = lu_timing(profile, n, noft);
    std::vector<std::string> row{std::to_string(n)};
    for (int k : {1, 3, 5}) {
      abft::LuOptions opt;
      opt.variant = abft::Variant::EnhancedOnline;
      opt.verify_interval = k;
      row.push_back(Table::pct(lu_timing(profile, n, opt) / base - 1.0));
    }
    t.add_row(row);
  }
  print_table(t);
}

void fault_table() {
  print_header("LU extension — fault capability (real numerics, n = 768, "
               "B = 128, Tardis profile)",
               "One multi-bit storage error per scenario; 'panel' strikes "
               "an input of the panel factorization, 'u-row' a block the "
               "trailing update reads via row checksums, 'finished' a "
               "factor block after its last use (final-sweep territory).");
  const int n = 768;
  const int block = 128;
  Matrix<double> a0(n, n);
  make_spd_diag_dominant(a0, 9);

  Table t({"scenario", "corrected", "reruns", "residual"});
  auto run_one = [&](const std::string& name, fault::FaultSpec s) {
    auto a = a0;
    auto profile = sim::tardis();
    sim::Machine m(profile, sim::ExecutionMode::Numeric);
    abft::LuOptions opt;
    opt.block_size = block;
    fault::Injector inj({s});
    auto res = abft::lu(m, &a, n, opt, &inj);
    const double resid =
        res.success ? blas::lu_residual(a0.view(), a.view()) : 1.0;
    t.add_row({name, std::to_string(res.errors_corrected),
               std::to_string(res.reruns), Table::num(resid, 3)});
  };

  fault::FaultSpec panel;
  panel.type = fault::FaultType::Storage;
  panel.op = fault::Op::Potf2;
  panel.iteration = 3;
  panel.block_row = 4;
  panel.block_col = 3;
  panel.bits = {20, 44, 54};
  run_one("panel input", panel);

  fault::FaultSpec urow;
  urow.type = fault::FaultType::Storage;
  urow.op = fault::Op::Gemm;
  urow.iteration = 2;
  urow.block_row = 2;
  urow.block_col = 4;
  urow.bits = {21, 45, 55};
  run_one("u-row input", urow);

  fault::FaultSpec finished;
  finished.type = fault::FaultType::Storage;
  finished.op = fault::Op::Trsm;
  finished.iteration = 4;
  finished.block_row = 0;
  finished.block_col = 3;
  finished.bits = {19, 47, 53};
  run_one("finished factor", finished);

  print_table(t, /*csv=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  require_flags(argc, argv, {});
  overhead_sweep(sim::tardis(), {5120, 10240, 20480});
  overhead_sweep(sim::bulldozer64(), {10240, 20480, 30720});
  fault_table();
  std::cout << "All scenarios must end with residual at rounding level and "
               "zero reruns: pre-read verification plus the final sweep "
               "covers every window.\n";
  return 0;
}
