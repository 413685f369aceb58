// Ablation (beyond the paper's tables): how the verification *point*
// determines the fate of a storage error.
//
// A multi-bit storage error is injected into a decomposed slate block at
// every (iteration, consumer-op) combination of a factorization, and
// each scheme's outcome is classified:
//   corrected  — repaired in place, clean factor, no re-run
//   rerun      — detected as unrecoverable, recovered by restarting
//   silent     — run "succeeded" but the factor is wrong (the failure
//                mode the paper's pre-read verification eliminates)
//   fail-stop  — positive-definiteness broke and recovery was exhausted
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "blas/lapack.hpp"
#include "common/spd.hpp"
#include "fault/fault.hpp"

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;
  using abft::Variant;

  require_flags(argc, argv, {});

  const int n = 512;
  const int block = 64;
  const int nb = n / block;
  auto profile = sim::tardis();

  print_header("Ablation — verification window vs storage-error fate",
               "One multi-bit storage fault per run, swept over every "
               "(iteration, consumer) hook; n = 512, B = 64, Tardis "
               "profile, real numerics. 'silent' = wrong factor reported "
               "as success.");

  Matrix<double> a0(n, n);
  make_spd_diag_dominant(a0, 99);

  struct Counts {
    int corrected = 0, rerun = 0, silent = 0, fail_stop = 0, runs = 0;
  };
  std::map<Variant, Counts> table;

  Rng rng(7);
  for (Variant v :
       {Variant::EnhancedOnline, Variant::Online, Variant::Offline}) {
    for (int iter = 1; iter < nb; ++iter) {
      for (auto op : {fault::Op::Syrk, fault::Op::Gemm}) {
        if (op == fault::Op::Gemm && iter + 1 >= nb) continue;
        fault::FaultSpec s;
        s.type = fault::FaultType::Storage;
        s.op = op;
        s.iteration = iter;
        s.block_col = rng.uniform_int(0, iter - 1);
        s.block_row = op == fault::Op::Syrk
                          ? iter
                          : rng.uniform_int(iter + 1, nb - 1);
        s.elem_row = rng.uniform_int(0, block - 1);
        s.elem_col = rng.uniform_int(0, block - 1);
        s.bits = {20, 44, 54};

        auto a = a0;
        sim::Machine m(profile, sim::ExecutionMode::Numeric);
        abft::CholeskyOptions opt = variant_options(profile, v);
        opt.block_size = block;
        fault::Injector inj({s});
        auto res = abft::cholesky(m, &a, n, opt, &inj);

        auto& c = table[v];
        ++c.runs;
        if (!res.success) {
          ++c.fail_stop;
        } else if (res.reruns > 0) {
          ++c.rerun;
        } else if (blas::cholesky_residual(a0.view(), a.view()) > 1e-6) {
          ++c.silent;
        } else {
          ++c.corrected;
        }
      }
    }
  }

  Table t({"scheme", "runs", "corrected in place", "recovered by rerun",
           "SILENT corruption", "fail-stop"});
  for (const auto& [v, c] : table) {
    t.add_row({to_string(v), std::to_string(c.runs),
               std::to_string(c.corrected), std::to_string(c.rerun),
               std::to_string(c.silent), std::to_string(c.fail_stop)});
  }
  print_table(t);

  std::cout
      << "Expected: Enhanced corrects 100% in place. Online/Offline split\n"
         "between rerun recovery (diagonal-path errors break the checksum\n"
         "relation loudly) and SILENT corruption (GEMM-path slate errors\n"
         "poison downstream blocks while leaving their checksums\n"
         "consistent) — the paper's motivating failure mode for pre-read\n"
         "verification.\n";
  return 0;
}
