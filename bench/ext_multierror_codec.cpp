// Extension experiment: correction capability vs checksum redundancy
// (paper §IV-A: "m+1 column checksums could locate and correct up to m
// errors per column").
//
// For each redundancy R and error count E, plant E random errors in one
// block column and attempt decode: the success region demonstrates the
// floor(R/2) law (unknown locations need 2m syndromes), and the cost
// columns show what the extra protection costs in checksum space and
// encode/recalc FLOPs.
#include <algorithm>
#include <iostream>

#include "abft/checksum.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/spd.hpp"

int main(int argc, char** argv) {
  using namespace ftla;
  using namespace ftla::bench;

  require_flags(argc, argv, {});

  const int block = 64;
  const int trials = 200;

  print_header("Multi-error checksum codec — correction capability",
               "Success rate over 200 random trials per cell; block 64, "
               "errors uniformly placed in one column with magnitudes in "
               "[1e2, 1e5].");

  Table t({"redundancy R", "capacity", "1 error", "2 errors", "3 errors",
           "4 errors", "space ovh (B=256)", "recalc flops x"});
  for (int r : {2, 3, 4, 6, 8}) {
    std::vector<std::string> row{std::to_string(r), std::to_string(r / 2)};
    Rng rng(1000 + r);
    for (int nerr = 1; nerr <= 4; ++nerr) {
      int ok = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Matrix<double> a(block, 4);
        make_uniform(a, 10'000 + r * 100 + nerr * 10 + trial);
        const Matrix<double> orig = a;
        Matrix<double> chk(r, 4);
        abft::encode_block(a.view(), chk.view());
        std::vector<int> rows;
        while (static_cast<int>(rows.size()) < nerr) {
          const int candidate = rng.uniform_int(0, block - 1);
          if (std::find(rows.begin(), rows.end(), candidate) == rows.end())
            rows.push_back(candidate);
        }
        for (int er : rows) {
          a(er, 1) += rng.uniform(1e2, 1e5) *
                      (rng.next_double() < 0.5 ? -1.0 : 1.0);
        }
        auto out =
            abft::verify_block_host(a.view(), chk.view(), abft::Tolerance{});
        bool good = !out.uncorrectable && out.errors_corrected == nerr;
        if (good) {
          for (int i = 0; i < block; ++i) {
            if (std::abs(a(i, 1) - orig(i, 1)) >
                1e-4 * std::max(1.0, std::abs(orig(i, 1)))) {
              good = false;
              break;
            }
          }
        }
        ok += good;
      }
      row.push_back(Table::pct(static_cast<double>(ok) / trials, 0));
    }
    // Space overhead R/B; encode/recalc work scales linearly with R.
    row.push_back(Table::pct(static_cast<double>(r) / 256.0));
    row.push_back(Table::num(r / 2.0, 2) + "x");
    t.add_row(row);
  }
  print_table(t);

  std::cout
      << "Expected: each row corrects up to floor(R/2) errors at ~100% and\n"
         "fails (flagged uncorrectable, never silently mis-corrected)\n"
         "beyond — the real-field Reed-Solomon law behind the paper's\n"
         "m+1-checksum remark. Extra redundancy costs linearly more\n"
         "checksum space and recalculation work.\n";
  return 0;
}
