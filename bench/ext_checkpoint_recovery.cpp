// Extension experiment: composing ABFT with periodic checkpointing
// (paper citation [11]). Measures, with real numerics and injected
// storage faults, how recovery cost depends on the strategy:
//   * Enhanced Online-ABFT corrects in place (no recovery needed),
//   * Online-ABFT + rerun pays the paper's ~2x,
//   * Online-ABFT + checkpoint/rollback pays only the replay window,
//     which shrinks as the checkpoint interval tightens (while the
//     fault-free overhead of snapshotting grows).
#include <iostream>

#include "bench_util.hpp"
#include "blas/lapack.hpp"
#include "common/spd.hpp"
#include "fault/fault.hpp"

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {});

  const int n = 1024;
  const int block = 64;
  const int nb = n / block;
  const auto profile = sim::tardis();

  Matrix<double> a0(n, n);
  make_spd_diag_dominant(a0, 7);

  fault::FaultSpec late;
  late.type = fault::FaultType::Storage;
  late.op = fault::Op::Syrk;
  late.iteration = (3 * nb) / 4;  // late fault: rerun hurts the most
  late.block_row = late.iteration;
  late.block_col = late.iteration - 1;
  late.bits = {20, 44, 54};

  print_header("Checkpoint/rollback vs rerun recovery",
               "Real numerics, n = 1024, B = 64 on the Tardis profile. A "
               "multi-bit storage error strikes at 3/4 of the run; times "
               "are virtual seconds (and relative to each scheme's own "
               "fault-free run).");

  auto run_case = [&](abft::Variant v, abft::Recovery rec, int interval,
                      bool with_fault) {
    auto a = a0;
    sim::Machine m(profile, sim::ExecutionMode::Numeric);
    abft::CholeskyOptions opt;
    opt.variant = v;
    opt.block_size = block;
    opt.recovery = rec;
    opt.checkpoint_interval = interval;
    fault::Injector inj(with_fault ? std::vector<fault::FaultSpec>{late}
                                   : std::vector<fault::FaultSpec>{});
    auto res = abft::cholesky(m, &a, n, opt, &inj);
    if (!res.success ||
        blas::cholesky_residual(a0.view(), a.view()) > 1e-8) {
      std::cerr << "case failed to produce a clean factor\n";
      std::exit(1);
    }
    return res;
  };

  Table t({"scheme + recovery", "fault-free (s)", "with storage fault (s)",
           "penalty", "rollbacks/reruns"});
  auto add = [&](const std::string& name, abft::Variant v,
                 abft::Recovery rec, int interval) {
    auto clean = run_case(v, rec, interval, false);
    auto faulty = run_case(v, rec, interval, true);
    t.add_row({name, Table::num(clean.seconds, 5),
               Table::num(faulty.seconds, 5),
               Table::pct(faulty.seconds / clean.seconds - 1.0),
               std::to_string(faulty.rollbacks) + "/" +
                   std::to_string(faulty.reruns)});
  };
  add("enhanced (in-place)", abft::Variant::EnhancedOnline,
      abft::Recovery::Rerun, 4);
  add("online + rerun", abft::Variant::Online, abft::Recovery::Rerun, 4);
  add("online + ckpt every 8", abft::Variant::Online,
      abft::Recovery::Checkpoint, 8);
  add("online + ckpt every 4", abft::Variant::Online,
      abft::Recovery::Checkpoint, 4);
  add("online + ckpt every 2", abft::Variant::Online,
      abft::Recovery::Checkpoint, 2);
  print_table(t);

  std::cout
      << "Expected ordering of the fault penalty: enhanced ~0% < "
         "checkpointing (replay window + snapshot cost) < rerun ~100%.\n";
  return 0;
}
