// Raw wall-clock microbenchmarks (google-benchmark) of the ABFT
// primitives: checksum encoding, verification, correction and the POTF2
// checksum transform.
#include <benchmark/benchmark.h>

#include "abft/checksum.hpp"
#include "blas/lapack.hpp"
#include "common/exit_codes.hpp"
#include "common/matrix.hpp"
#include "common/spd.hpp"

namespace {

using namespace ftla;
using namespace ftla::abft;

void BM_EncodeBlock(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> a(b, b);
  make_uniform(a, 1);
  Matrix<double> chk(kChecksumRows, b);
  for (auto _ : state) {
    encode_block(a.view(), chk.view());
    benchmark::DoNotOptimize(chk.data());
  }
  state.SetItemsProcessed(state.iterations() * 4LL * b * b);
}
BENCHMARK(BM_EncodeBlock)->Arg(16)->Arg(128)->Arg(256)->Arg(512);

void BM_VerifyCleanBlock(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> a(b, b);
  make_uniform(a, 2);
  Matrix<double> chk(kChecksumRows, b);
  encode_block(a.view(), chk.view());
  for (auto _ : state) {
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    benchmark::DoNotOptimize(out.errors_detected);
  }
  state.SetItemsProcessed(state.iterations() * 4LL * b * b);
}
BENCHMARK(BM_VerifyCleanBlock)->Arg(128)->Arg(256)->Arg(512);

void BM_VerifyAndCorrect(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> a(b, b);
  make_uniform(a, 3);
  Matrix<double> chk(kChecksumRows, b);
  encode_block(a.view(), chk.view());
  for (auto _ : state) {
    a(b / 2, b / 3) += 1e6;  // plant an error, verification removes it
    auto out = verify_block_host(a.view(), chk.view(), Tolerance{});
    benchmark::DoNotOptimize(out.errors_corrected);
  }
}
BENCHMARK(BM_VerifyAndCorrect)->Arg(128)->Arg(256);

void BM_Potf2ChecksumTransform(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> l(b, b);
  make_spd_diag_dominant(l, 4);
  blas::potf2(l.view());
  Matrix<double> chk(kChecksumRows, b);
  make_uniform(chk, 5);
  for (auto _ : state) {
    Matrix<double> work = chk;
    potf2_update_checksum(l.view(), work.view());
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * b * b);
}
BENCHMARK(BM_Potf2ChecksumTransform)->Arg(128)->Arg(256)->Arg(512);

}  // namespace

// BENCHMARK_MAIN, except that an unknown flag is a usage error (exit 2),
// as in every other bench.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return ftla::common::kExitUsage;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
