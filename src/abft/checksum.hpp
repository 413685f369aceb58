// Checksum codec for block-level ABFT (paper §IV).
//
// A block of B rows carries R weighted column checksums, stored as an
// R x B matrix whose row k holds
//   chk_k = w_k^T A,   w_k(i) = i^k   (i = 1..B, the 1-based row),
// so row 0 is the paper's v1 = [1, ..., 1] and row 1 its v2 = [1..B].
// R is read from the checksum matrix's shape (2 <= R <= kMaxChecksumRows
// = 8); the drivers use the paper's R = kChecksumRows = 2. Errors e_t at
// rows r_t of one block column give the syndromes (recalculated - stored)
//   d_k = sum_t e_t * r_t^k,
// a real-field Reed-Solomon code that locates and corrects floor(R/2)
// errors per column (one at R = 2: d1 / d0 = r, d0 = e). A damaged
// checksum row moves only its own syndrome, so a lane where every
// syndrome flags is decoded as data errors, while a lane where only
// some flag has those checksum rows re-encoded if there are at most
// floor(R/2) of them and is uncorrectable otherwise. Odd R thereby also
// detects one error beyond floor(R/2): R = 3 corrects one and detects
// two (docs/abft.md §5).
#pragma once

#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace ftla::abft {

/// Checksum rows per block row in the drivers (the paper's two weight
/// vectors).
inline constexpr int kChecksumRows = 2;

/// Largest redundancy R the codec takes.
inline constexpr int kMaxChecksumRows = 8;

/// chk (R x cols) := [w_0^T; ...; w_{R-1}^T] * a, R = chk.rows().
void encode_block(ConstMatrixView<double> a, MatrixView<double> chk);

/// Applies the POTF2 checksum transform (paper Algorithm 2): given the
/// factor L of a diagonal block and the R checksum rows of the
/// *pre-factor* block, rewrites chk in place into the checksums of L
/// (lower triangle, zeros above the diagonal).
void potf2_update_checksum(ConstMatrixView<double> l, MatrixView<double> chk);

/// Location of one corrected element.
struct Correction {
  int row = 0;        ///< 0-based within the block
  int col = 0;
  double old_value = 0.0;
  double new_value = 0.0;
};

/// Outcome of verifying one block.
struct VerifyOutcome {
  int errors_detected = 0;     ///< lanes with data damage or past capacity
  int errors_corrected = 0;    ///< data elements repaired
  int checksum_repairs = 0;    ///< corrupted checksum elements re-encoded
  bool uncorrectable = false;  ///< a lane beyond the code's capacity
  std::vector<Correction> corrections;

  [[nodiscard]] bool clean() const noexcept {
    return errors_detected == 0 && checksum_repairs == 0 && !uncorrectable;
  }
};

/// Verification tolerance: a column flags an error when
/// |recalculated - stored| > tol_rel * scale, with scale derived from the
/// checksum magnitudes (never below `floor`).
struct Tolerance {
  double rel = 1e-8;
  double floor = 1e-6;
  [[nodiscard]] double threshold(double scale) const {
    return rel * (scale < floor ? floor : scale);
  }
};

/// Compares the stored checksums `chk` against freshly recalculated
/// checksums `recalc` (both R x cols) and repairs `a` / `chk` in place.
/// Pure logic, no allocation beyond the corrections list: usable from
/// both host code and simulated-device kernel bodies.
VerifyOutcome verify_block(MatrixView<double> a, MatrixView<double> chk,
                           ConstMatrixView<double> recalc,
                           const Tolerance& tol);

/// Convenience: recalculates checksums of `a` into a scratch matrix and
/// runs verify_block (host-side verification used in tests/examples).
VerifyOutcome verify_block_host(MatrixView<double> a,
                                MatrixView<double> chk, const Tolerance& tol);

// --- Row-checksum variants ---------------------------------------------
//
// The paper (§IV-A) notes that *row* checksums work symmetrically to
// column checksums. Row checksums are what protects the U factor in
// the LU extension: a row checksum column transforms like an extra
// matrix column under left-multiplication (U' = L^{-1} A implies
// rchk(U') = L^{-1} rchk(A)), which column checksums cannot do.

/// chk (rows x R) := a * [w_0 ... w_{R-1}] with w_k(j) = j^k over the
/// 1-based columns j, R = chk.cols().
void encode_block_rows(ConstMatrixView<double> a, MatrixView<double> chk);

/// Row-checksum verification: the column decoder on the transposed
/// block, step for step (one lane per block row, located by column).
VerifyOutcome verify_block_rows(MatrixView<double> a,
                                MatrixView<double> chk,
                                ConstMatrixView<double> recalc,
                                const Tolerance& tol);

VerifyOutcome verify_block_rows_host(MatrixView<double> a,
                                     MatrixView<double> chk,
                                     const Tolerance& tol);

}  // namespace ftla::abft
