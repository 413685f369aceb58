// Raw wall-clock throughput of the host level-3 BLAS substrate that
// executes every simulated kernel's numerics: GFLOP/s per kernel x size
// x thread count, plus the naive reference GEMM as the speedup baseline.
// Single-threaded extras: a 16-wide gemm (the unpacked small path) and
// the cholesky_residual oracle at n = 64, 128 (the fleet's sizes) and
// each --sizes value; its rate counts the n(n+1)(n+2)/3 flops of the
// dot products that form the lower triangle of L L^T.
//
// Usage:
//   kernels_blas [--sizes 256,512,1024] [--threads 1,2,4]
//                [--metrics-out FILE]   (default BENCH_kernels_blas.json)
//
// Each measurement reports the fastest repetition; gauges are named
// bench.<kernel>.n<size>.t<threads>.gflops.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/reference.hpp"
#include "common/matrix.hpp"
#include "common/spd.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace ftla;
using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int v = std::stoi(tok);
    if (v > 0) out.push_back(v);
  }
  return out;
}

std::string flag_value(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return {};
}

std::string join(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

using bench::best_seconds;

struct Cell {
  std::string kernel;
  int n;
  int threads;
  double gflops;
};

}  // namespace

int main(int argc, char** argv) {
  ftla::bench::require_flags(argc, argv,
                             {"--sizes", "--threads", "--metrics-out"});
  std::vector<int> sizes = {256, 512, 1024};
  std::vector<int> threads = {1, 2, 4};
  if (const std::string s = flag_value(argc, argv, "--sizes"); !s.empty()) {
    sizes = parse_int_list(s);
  }
  if (const std::string s = flag_value(argc, argv, "--threads"); !s.empty()) {
    threads = parse_int_list(s);
  }
  std::string out = ftla::bench::metrics_out_path(argc, argv);
  if (out.empty()) out = "BENCH_kernels_blas.json";

  bench::print_header(
      "kernels_blas",
      "Host level-3 BLAS GFLOP/s (best repetition); gemm_naive is the "
      "single-threaded reference-kernel baseline.");

  std::vector<Cell> cells;
  for (const int n : sizes) {
    Matrix<double> a(n, n), b(n, n);
    make_uniform(a, 1);
    make_uniform(b, 2);
    Matrix<double> tri(n, n);
    make_uniform(tri, 3);
    for (int i = 0; i < n; ++i) tri(i, i) = n + i;

    // Naive baseline: blas/reference.cpp GEMM, inherently single-thread.
    {
      Matrix<double> c(n, n);
      const double sec = best_seconds([&] {
        blas::ref::gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0,
                        c.view());
      });
      cells.push_back({"gemm_naive", n, 1, 2.0 * n * n * n / sec / 1e9});
    }

    for (const int t : threads) {
      common::set_global_threads(t);
      {
        Matrix<double> c(n, n);
        const double sec = best_seconds([&] {
          blas::gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0,
                     c.view());
        });
        cells.push_back({"gemm", n, t, 2.0 * n * n * n / sec / 1e9});
      }
      {
        Matrix<double> c(n, n);
        const double sec = best_seconds([&] {
          blas::syrk(Uplo::Lower, Trans::No, -1.0, a.view(), 1.0, c.view());
        });
        cells.push_back(
            {"syrk", n, t,
             static_cast<double>(blas::syrk_flops(n, n)) / sec / 1e9});
      }
      {
        Matrix<double> x(n, n);
        make_uniform(x, 4);
        Matrix<double> work = x;
        const double sec = best_seconds([&] {
          work = x;
          blas::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0,
                     tri.view(), work.view());
        });
        cells.push_back(
            {"trsm", n, t,
             static_cast<double>(blas::trsm_flops(Side::Left, n, n)) / sec /
                 1e9});
      }
      {
        // Side::Right exercises the column-blocked right-side path.
        Matrix<double> x(n, n);
        make_uniform(x, 5);
        Matrix<double> work = x;
        const double sec = best_seconds([&] {
          work = x;
          blas::trmm(Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0,
                     tri.view(), work.view());
        });
        cells.push_back(
            {"trmm", n, t,
             static_cast<double>(blas::trsm_flops(Side::Right, n, n)) / sec /
                 1e9});
      }
    }
  }
  common::set_global_threads(1);
  {
    const int n = 16;
    Matrix<double> a(n, n), b(n, n), c(n, n);
    make_uniform(a, 1);
    make_uniform(b, 2);
    const double sec = best_seconds([&] {
      blas::gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0,
                 c.view());
    });
    cells.push_back({"gemm", n, 1, 2.0 * n * n * n / sec / 1e9});
  }
  std::vector<int> residual_sizes = {64, 128};
  for (const int n : sizes) {
    if (std::find(residual_sizes.begin(), residual_sizes.end(), n) ==
        residual_sizes.end()) {
      residual_sizes.push_back(n);
    }
  }
  for (const int n : residual_sizes) {
    Matrix<double> a(n, n);
    make_spd_diag_dominant(a, 6);
    Matrix<double> l = a;
    blas::potrf(l.view());
    const double sec =
        best_seconds([&] { blas::cholesky_residual(a.view(), l.view()); });
    cells.push_back({"cholesky_residual", n, 1,
                     static_cast<double>(n) * (n + 1) * (n + 2) / 3.0 / sec /
                         1e9});
  }

  Table table({"kernel", "n", "threads", "GFLOP/s"});
  obs::MetricsRegistry metrics;
  for (const Cell& c : cells) {
    table.add_row({c.kernel, std::to_string(c.n), std::to_string(c.threads),
                   Table::num(c.gflops)});
    metrics.set_gauge("bench." + c.kernel + ".n" + std::to_string(c.n) +
                          ".t" + std::to_string(c.threads) + ".gflops",
                      c.gflops);
  }
  bench::print_table(table);

  bench::write_bench_report(out, "kernels_blas",
                            {{"sizes", join(sizes)},
                             {"threads", join(threads)},
                             {"timer", "best-of-reps steady_clock"}},
                            metrics);
  return 0;
}
