// Extension experiment: Enhanced Online-ABFT carried to Householder QR
// on the simulated testbeds — overhead sweep plus a fault-capability
// mini-table exercising the row-checksum-under-reflector invariant.
#include <iostream>

#include "abft/qr.hpp"
#include "bench_util.hpp"
#include "blas/qr.hpp"
#include "common/spd.hpp"

namespace {

using namespace ftla;
using namespace ftla::bench;

double qr_timing(const sim::MachineProfile& profile, int n,
                 const abft::QrOptions& opt) {
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  auto res = abft::qr(m, nullptr, nullptr, n, opt);
  if (!res.success) std::exit(1);
  return res.seconds;
}

void overhead_sweep(const sim::MachineProfile& profile,
                    const std::vector<int>& sizes) {
  print_header("QR extension — relative overhead on " + profile.name,
               "Enhanced Online-ABFT QR (row checksums ride through the "
               "block reflectors) vs the NoFT hybrid QR.");
  Table t({"n", "K=1", "K=3", "K=5"});
  for (int n : sizes) {
    abft::QrOptions noft;
    noft.variant = abft::Variant::NoFt;
    const double base = qr_timing(profile, n, noft);
    std::vector<std::string> row{std::to_string(n)};
    for (int k : {1, 3, 5}) {
      abft::QrOptions opt;
      opt.variant = abft::Variant::EnhancedOnline;
      opt.verify_interval = k;
      row.push_back(Table::pct(qr_timing(profile, n, opt) / base - 1.0));
    }
    t.add_row(row);
  }
  print_table(t);
}

void fault_table() {
  print_header("QR extension — fault capability (real numerics, n = 512, "
               "B = 64, Tardis profile)",
               "'panel' strikes a panel input; 'reflector' strikes V after "
               "it returned to device memory (the window only the "
               "pre-LARFB verification covers); 'finished R' strikes a "
               "finished factor block (final-sweep territory).");
  const int n = 512;
  const int block = 64;
  Matrix<double> a0(n, n);
  make_uniform(a0, 13);

  Table t({"scenario", "corrected", "reruns", "residual"});
  auto run_one = [&](const std::string& name, fault::FaultSpec s) {
    auto a = a0;
    std::vector<double> tau;
    sim::Machine m(sim::tardis(), sim::ExecutionMode::Numeric);
    abft::QrOptions opt;
    opt.block_size = block;
    fault::Injector inj({s});
    auto res = abft::qr(m, &a, &tau, n, opt, &inj);
    const double resid =
        res.success ? blas::qr_residual(a0.view(), a.view(), tau.data())
                    : 1.0;
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

  fault::FaultSpec refl;
  refl.type = fault::FaultType::Storage;
  refl.op = fault::Op::Trsm;
  refl.iteration = 2;
  refl.block_row = 5;
  refl.block_col = 2;
  refl.bits = {21, 45, 55};
  run_one("reflector (V)", refl);

  fault::FaultSpec finished;
  finished.type = fault::FaultType::Storage;
  finished.op = fault::Op::Gemm;
  finished.iteration = 5;
  finished.block_row = 0;
  finished.block_col = 2;
  finished.bits = {19, 47, 53};
  run_one("finished R", finished);

  print_table(t, /*csv=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  require_flags(argc, argv, {});
  overhead_sweep(sim::tardis(), {5120, 10240, 20480});
  overhead_sweep(sim::bulldozer64(), {10240, 20480, 30720});
  fault_table();
  std::cout << "All scenarios must end with residual at rounding level and "
               "zero reruns.\n";
  return 0;
}
