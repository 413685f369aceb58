#include "abft/lu.hpp"

#include <algorithm>
#include <vector>

#include "abft/driver.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/types.hpp"
#include "common/error.hpp"
#include "sim/device_matrix.hpp"
#include "sim/gpublas.hpp"

namespace ftla::abft {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;
using sim::EventId;
using sim::KernelClass;
using sim::KernelDesc;
using sim::Machine;

namespace {

constexpr SumNames kLuCols{"encode_c", "recalc_c", "verify_c"};
constexpr SumNames kLuRows{"encode_r", "recalc_r", "verify_r"};

class LuRun final : public Driver {
 public:
  LuRun(Machine& m, Matrix<double>* a, int n, const LuOptions& opt,
        fault::Injector* injector)
      : Driver(m, a, n, opt, injector, "lu", 2.0, &kLuCols, &kLuRows) {
    FTLA_CHECK_MSG(opt_.variant == Variant::NoFt ||
                       opt_.variant == Variant::EnhancedOnline,
                   "the LU extension implements NoFt and EnhancedOnline");
  }

 private:
  void allocate() override;
  void run_once() override;
  [[nodiscard]] BlockId fault_target(const fault::FaultSpec& spec,
                                     int j) const override;
  void iteration(int j);

  Matrix<double> h_panel_;       // host panel (n x b)
  Matrix<double> h_panel_chk_;   // re-encoded column checksums (2nb x b)
};

void LuRun::allocate() {
  d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
  if (ft_) {
    d_cchk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    d_rchk_ = m_.alloc(static_cast<std::int64_t>(n_) * 2 * nb_);
    scratch_capacity_ =
        2LL * (static_cast<std::int64_t>(nb_) * nb_ + 2 * nb_) *
        std::max(b_, kChecksumRows);
    d_scratch_ = m_.alloc(scratch_capacity_);
  }
  // Host staging holds payloads only; TimingOnly copies pass nullptr.
  if (m_.numeric()) {
    if (ft_) h_panel_chk_ = Matrix<double>(2 * nb_, b_);
    h_panel_ = Matrix<double>(n_, b_);
    pristine_ = *a_;
  }
  create_streams(/*xfer=*/false);
}

void LuRun::run_once() {
  encode(/*lower=*/false);
  // Stochastic transfer faults cover the H2D return trips of the host
  // factored panel and its checksums; every landed corruption stays
  // inconsistent with the separately shipped checksums, so the K-gated
  // trailing verifications or the final sweep catch it. The D2H panel
  // staging copy has no arrival check yet and stays out of the armed
  // surface (see docs/fault-model.md, residual exposures).
  const sim::TransferArmGuard arm(m_, /*h2d=*/true, /*d2h=*/false);
  for (int j = 0; j < nb_; ++j) iteration(j);
  if (ft_) {
    // Right-looking LU never re-reads finished blocks, so storage errors
    // striking them after their last use can only be caught here: one
    // verification pass over the whole factor (column checksums for the
    // L region and the diagonal, row checksums for the U region). Under
    // the DAG each verify depends only on its block's last writer, so
    // retired columns are swept while the factorization tail runs.
    begin_iteration(-1);
    std::vector<BlockId>& l_blocks = block_list();
    for (int k = 0; k < nb_; ++k)
      for (int i = k; i < nb_; ++i) l_blocks.emplace_back(i, k);
    verify(l_blocks, fault::Op::Potf2);
    std::vector<BlockId>& u_blocks = block_list();
    for (int k = 0; k < nb_; ++k)
      for (int i = 0; i < k; ++i) u_blocks.emplace_back(i, k);
    verify(u_blocks, fault::Op::Trsm, Sums::Row);
  }
  finish_pass();
}

// Defaults per LU context: the panel (Potf2), the U row (Trsm) or a
// trailing block (Gemm) that the op is about to read or write.
BlockId LuRun::fault_target(const fault::FaultSpec& spec, int j) const {
  const int next = std::min(j + 1, nb_ - 1);
  const int bi = spec.block_row >= 0 ? spec.block_row
                 : spec.op == fault::Op::Trsm ? j
                                              : next;
  const int bk = spec.block_col >= 0 ? spec.block_col
                 : spec.op == fault::Op::Potf2 ? j
                                               : next;
  return {bi, bk};
}

// One outer iteration, written once for both runtimes (see the
// Cholesky driver). Bulk fences the checksum stream on the panel's
// return trip (e_panel); the DAG infers that edge from the tiles.
void LuRun::iteration(int j) {
  begin_iteration(j);
  const int jb = bs(j);
  const int below = n_ - off(j);           // panel height (incl. diagonal)
  const int right = n_ - off(j) - jb;      // trailing width
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;
  runtime::TaskOptions base;
  base.phase = obs::Phase::Base;
  base.iteration = j;
  runtime::TaskOptions update = base;
  update.phase = obs::Phase::Update;
  runtime::TaskOptions host = base;
  host.phase = obs::Phase::Base;
  host.where = runtime::Where::Host;
  EventId e_panel = -1;

  // ---------------- panel: fetch, factor on host, re-encode ----------
  hook(fault::FaultType::Storage, fault::Op::Potf2, j);
  if (ft_) {
    // Panel inputs are always verified: a corrupted pivot path is the
    // LU analog of the unrecoverable SYRK input (paper Opt 3 logic).
    std::vector<BlockId>& in = block_list();
    for (int i = j; i < nb_; ++i) in.emplace_back(i, j);
    verify(in, fault::Op::Potf2);
  }
  step(
      "d2h_panel",
      [&](Footprints& fp) {
        for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
        fp.push_back(runtime::write(htile()));
      },
      [this, j, jb, below, blocking = bulk()](const runtime::TaskContext& c) {
        m_.memcpy_d2h_2d(
            staging(c, runtime::write,
                    m_.numeric() ? h_panel_.data() : nullptr),
            n_, use(c, runtime::read, data_region(off(j), off(j), below, jb)),
            c.stream, blocking);
      },
      base, s_compute_);
  step(
      "getf2", [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
      [this, below, jb](const runtime::TaskContext& c) {
        staging(c, runtime::rw);
        KernelDesc d{"getf2", KernelClass::HostPotf2,
                     // ~ m*b^2 flops for the panel factorization
                     static_cast<std::int64_t>(below) * jb * jb, 0};
        m_.host_compute(d, [this, below, jb] {
          blas::getf2_nopiv(h_panel_.block(0, 0, below, jb));
        });
      },
      host, s_compute_);
  if (ft_) {
    step(
        "encode_panel",
        [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
        [this, j, below, jb](const runtime::TaskContext& c) {
          staging(c, runtime::rw);
          KernelDesc d{"encode_panel", KernelClass::HostChecksum,
                       4LL * below * jb, 0};
          m_.host_compute(d, [this, j, jb] {
            // Column checksums of each finished panel block, derived on
            // the (reliable) host before the factors return to device
            // memory.
            for (int i = j; i < nb_; ++i) {
              encode_block(ConstMatrixView<double>(h_panel_.block(
                               off(i) - off(j), 0, bs(i), jb)),
                           h_panel_chk_.block(2 * i, 0, kChecksumRows, jb));
            }
          });
        },
        host, s_compute_);
  }
  step(
      "h2d_panel",
      [&](Footprints& fp) {
        fp.push_back(runtime::read(htile()));
        for (int i = j; i < nb_; ++i)
          fp.push_back(runtime::write(dtile(i, j)));
      },
      [this, j, jb, below](const runtime::TaskContext& c) {
        m_.memcpy_h2d_2d(
            use(c, runtime::write, data_region(off(j), off(j), below, jb)),
            staging(c, runtime::read, m_.numeric() ? h_panel_.data() : nullptr),
            n_, c.stream);
      },
      base, s_compute_);
  // Applied after the transfer so the corrupted value actually lands in
  // device memory.
  hook(fault::FaultType::Computing, fault::Op::Potf2, j);
  if (ft_) {
    // The re-encoded panel checksums ride back only because FT is on.
    step(
        "h2d_panel_chk",
        [&](Footprints& fp) {
          fp.push_back(runtime::read(htile()));
          for (int i = j; i < nb_; ++i)
            fp.push_back(runtime::write(ctile(i, j)));
        },
        [this, j, jb](const runtime::TaskContext& c) {
          m_.memcpy_h2d_2d(
              use(c, runtime::write, cchk_strip(j, nb_, off(j), jb)),
              staging(c, runtime::read,
                      m_.numeric() ? &h_panel_chk_(2 * j, 0) : nullptr),
              2 * nb_, c.stream);
        },
        update, s_compute_);
  }
  if (bulk()) e_panel = m_.record_event(s_compute_);

  if (right <= 0) return;

  // ---------------- TRSM: U row solve ---------------------------------
  hook(fault::FaultType::Storage, fault::Op::Trsm, j);
  if (ft_) {
    // The diagonal block is always verified before its solve; the
    // targets follow the K interval.
    std::vector<BlockId>& in = block_list(j, j);
    if (verify_this_iter) {
      for (int k = j + 1; k < nb_; ++k) in.emplace_back(j, k);
    } else {
      tel_.verify_skipped(fault::Op::Trsm,
                          static_cast<std::size_t>(nb_ - j - 1), j);
    }
    verify(in, fault::Op::Trsm);
  }
  step(
      "trsm",
      [&](Footprints& fp) {
        fp.push_back(runtime::read(dtile(j, j)));
        for (int k = j + 1; k < nb_; ++k)
          fp.push_back(runtime::rw(dtile(j, k)));
      },
      [this, j, jb, right](const runtime::TaskContext& c) {
        sim::gpublas::trsm(
            m_, c.stream, Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
            use(c, runtime::read, data_block(j, j)),
            use(c, runtime::rw, data_region(off(j), off(j) + jb, jb, right)));
      },
      base, s_compute_);
  hook(fault::FaultType::Computing, fault::Op::Trsm, j);
  if (ft_) {
    // rchk(U') = L^{-1} rchk(A) on the checksum stream (a neutral
    // gpublas name; the step's Update phase tags it).
    if (bulk()) m_.stream_wait_event(s_chk_, e_panel);
    step(
        "chk_trsm",
        [&](Footprints& fp) {
          fp.push_back(runtime::read(dtile(j, j)));
          for (int k = j + 1; k < nb_; ++k)
            fp.push_back(runtime::rw(rtile(j, k)));
        },
        [this, j, jb](const runtime::TaskContext& c) {
          sim::gpublas::trsm(
              m_, c.stream, Side::Left, Uplo::Lower, Trans::No, Diag::Unit,
              1.0, use(c, runtime::read, data_block(j, j)),
              use(c, runtime::rw, rchk_strip(off(j), jb, j + 1, nb_)),
              KernelClass::Blas3Skinny);
        },
        update, s_chk_);
  }

  // ---------------- GEMM: trailing update -----------------------------
  hook(fault::FaultType::Storage, fault::Op::Gemm, j);
  if (ft_) {
    // The GEMM multipliers — the L panel and the U row — multiply the
    // data update and the checksum update *identically*, so corruption
    // in either propagates checksum-consistently into the trailing
    // matrix and can never be detected afterwards. They are verified
    // every iteration, the LU analog of Cholesky's always-verified
    // SYRK inputs. Only the update targets tolerate the K interval
    // (Opt 3): a struck target stays inconsistent with its stored
    // checksums and is caught by a later verification or the sweep.
    std::vector<BlockId>& col_in = block_list();
    for (int i = j + 1; i < nb_; ++i) col_in.emplace_back(i, j);  // L panel
    if (verify_this_iter) {
      for (int i = j + 1; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k) col_in.emplace_back(i, k);
    } else {
      // Opt 3: trailing-target verification skipped this iteration.
      const std::size_t t = static_cast<std::size_t>(nb_ - j - 1);
      tel_.verify_skipped(fault::Op::Gemm, t * t, j);
    }
    verify(col_in, fault::Op::Gemm);
    std::vector<BlockId>& row_in = block_list();
    for (int k = j + 1; k < nb_; ++k) row_in.emplace_back(j, k);  // U row
    verify(row_in, fault::Op::Gemm, Sums::Row);
  }
  step(
      "gemm",
      [&](Footprints& fp) {
        for (int i = j + 1; i < nb_; ++i)
          fp.push_back(runtime::read(dtile(i, j)));
        for (int k = j + 1; k < nb_; ++k)
          fp.push_back(runtime::read(dtile(j, k)));
        for (int i = j + 1; i < nb_; ++i)
          for (int k = j + 1; k < nb_; ++k)
            fp.push_back(runtime::rw(dtile(i, k)));
      },
      [this, j, jb, right](const runtime::TaskContext& c) {
        sim::gpublas::gemm(
            m_, c.stream, Trans::No, Trans::No, -1.0,
            use(c, runtime::read, data_region(off(j) + jb, off(j), right, jb)),
            use(c, runtime::read, data_region(off(j), off(j) + jb, jb, right)),
            1.0,
            use(c, runtime::rw,
                data_region(off(j) + jb, off(j) + jb, right, right)));
      },
      base, s_compute_);
  hook(fault::FaultType::Computing, fault::Op::Gemm, j);
  if (!ft_) return;
  // cchk(B') = cchk(B) - cchk(L) U_row  (2(nb-j-1) x right GEMM)
  step(
      "chk_gemm_c",
      [&](Footprints& fp) {
        for (int i = j + 1; i < nb_; ++i)
          fp.push_back(runtime::read(ctile(i, j)));
        for (int k = j + 1; k < nb_; ++k)
          fp.push_back(runtime::read(dtile(j, k)));
        for (int i = j + 1; i < nb_; ++i)
          for (int k = j + 1; k < nb_; ++k)
            fp.push_back(runtime::rw(ctile(i, k)));
      },
      [this, j, jb, right](const runtime::TaskContext& c) {
        sim::gpublas::gemm(
            m_, c.stream, Trans::No, Trans::No, -1.0,
            use(c, runtime::read, cchk_strip(j + 1, nb_, off(j), jb)),
            use(c, runtime::read, data_region(off(j), off(j) + jb, jb, right)),
            1.0,
            use(c, runtime::rw, cchk_strip(j + 1, nb_, off(j) + jb, right)),
            KernelClass::Blas3Skinny);
      },
      update, s_chk_);
  // rchk(B') = rchk(B) - L rchk(U_row)  (right x 2(nb-j-1) GEMM)
  step(
      "chk_gemm_r",
      [&](Footprints& fp) {
        for (int i = j + 1; i < nb_; ++i)
          fp.push_back(runtime::read(dtile(i, j)));
        for (int k = j + 1; k < nb_; ++k)
          fp.push_back(runtime::read(rtile(j, k)));
        for (int i = j + 1; i < nb_; ++i)
          for (int k = j + 1; k < nb_; ++k)
            fp.push_back(runtime::rw(rtile(i, k)));
      },
      [this, j, jb, right](const runtime::TaskContext& c) {
        sim::gpublas::gemm(
            m_, c.stream, Trans::No, Trans::No, -1.0,
            use(c, runtime::read, data_region(off(j) + jb, off(j), right, jb)),
            use(c, runtime::read, rchk_strip(off(j), jb, j + 1, nb_)), 1.0,
            use(c, runtime::rw, rchk_strip(off(j) + jb, right, j + 1, nb_)),
            KernelClass::Blas3Skinny);
      },
      update, s_chk_);
}

}  // namespace

CholeskyResult lu(Machine& machine, Matrix<double>* a, int n,
                  const LuOptions& options, fault::Injector* injector) {
  LuRun run(machine, a, n, options, injector);
  return run.execute();
}

}  // namespace ftla::abft
