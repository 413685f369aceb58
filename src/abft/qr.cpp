#include "abft/qr.hpp"

#include <algorithm>
#include <vector>

#include "abft/driver.hpp"
#include "blas/qr.hpp"
#include "blas/types.hpp"
#include "common/error.hpp"
#include "sim/device_matrix.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

using sim::DMat;
using sim::EventId;
using sim::KernelClass;
using sim::KernelDesc;
using sim::Machine;

namespace {

constexpr SumNames kQrRows{"encode_r", "recalc_r", "verify_r"};

class QrRun final : public Driver {
 public:
  QrRun(Machine& m, Matrix<double>* a, std::vector<double>* tau, int n,
        const QrOptions& opt, fault::Injector* injector)
      : Driver(m, a, n, opt, injector, "qr", 4.0, nullptr, &kQrRows),
        tau_(tau) {
    FTLA_CHECK_MSG(opt_.variant == Variant::NoFt ||
                       opt_.variant == Variant::EnhancedOnline,
                   "the QR extension implements NoFt and EnhancedOnline");
    if (m_.numeric()) {
      FTLA_CHECK(tau_ != nullptr);
      tau_->assign(static_cast<std::size_t>(n_), 0.0);
    }
  }

 private:
  void allocate() override;
  void run_once() override;
  void download() override;
  [[nodiscard]] BlockId fault_target(const fault::FaultSpec& spec,
                                     int j) const override;
  void iteration(int j);

  std::vector<double>* tau_;
  Matrix<double> h_panel_;      // host panel (n x b)
  Matrix<double> h_t_;          // host T (b x b)
  Matrix<double> h_panel_chk_;  // re-encoded panel row checksums (n x 2)
  std::vector<double> h_tau_;
};

void QrRun::allocate() {
  d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
  d_t_ = m_.alloc(static_cast<std::int64_t>(b_) * b_);
  if (ft_) {
    d_rchk_ = m_.alloc(static_cast<std::int64_t>(n_) * 2 * nb_);
    scratch_capacity_ =
        2LL * (static_cast<std::int64_t>(nb_) * nb_ + 2 * nb_) * b_;
    d_scratch_ = m_.alloc(scratch_capacity_);
  }
  // Host staging holds payloads only; TimingOnly copies pass nullptr.
  if (m_.numeric()) {
    if (ft_) h_panel_chk_ = Matrix<double>(n_, kChecksumRows);
    h_panel_ = Matrix<double>(n_, b_);
    h_t_ = Matrix<double>(b_, b_);
    h_tau_.assign(static_cast<std::size_t>(n_), 0.0);
    pristine_ = *a_;
  }
  create_streams(/*xfer=*/false);
}

void QrRun::run_once() {
  encode(/*lower=*/false);
  // Stochastic transfer faults cover the armed H2D copies (factored
  // panel, row checksums): V is always verified before LARFB consumes
  // it and checksum strikes surface as repairs, so nothing lands
  // silently. The T factor's copy stays excluded — T carries no
  // checksums, and a corrupted T would update data and checksum strips
  // identically, i.e. invisibly (the documented exposure above).
  const sim::TransferArmGuard arm(m_, /*h2d=*/true, /*d2h=*/false);
  for (int j = 0; j < nb_; ++j) iteration(j);
  if (ft_) {
    // End sweep over the finished factor, blocks at rest after their
    // last use. Under the DAG each verify depends only on its block's
    // last writer, so retired columns are swept while the tail runs.
    begin_iteration(-1);
    std::vector<BlockId>& all = block_list();
    for (int k = 0; k < nb_; ++k)
      for (int i = 0; i < nb_; ++i) all.emplace_back(i, k);
    verify(all, fault::Op::Trsm, Sums::Row);
  }
  finish_pass();
}

void QrRun::download() {
  Driver::download();
  if (m_.numeric()) *tau_ = h_tau_;
}

// Defaults: the row below the panel's diagonal block, in the panel
// column (panel factorization, V/T staging) or the first trailing
// column.
BlockId QrRun::fault_target(const fault::FaultSpec& spec, int j) const {
  const int next = std::min(j + 1, nb_ - 1);
  const bool panel =
      spec.op == fault::Op::Potf2 ||
      (spec.op == fault::Op::Trsm && spec.type == fault::FaultType::Storage);
  const int bi = spec.block_row >= 0 ? spec.block_row : next;
  const int bk = spec.block_col >= 0 ? spec.block_col : panel ? j : next;
  return {bi, bk};
}

// One outer iteration, written once for both runtimes (see the
// Cholesky driver). The block reflector's T factor is a real tile: the
// LARFB steps read it, the next panel's staging copy overwrites it, and
// under the DAG the inferred WAR edge keeps the overlap sound.
void QrRun::iteration(int j) {
  begin_iteration(j);
  const int jb = bs(j);
  const int mrem = n_ - off(j);
  const int right = n_ - off(j) - jb;
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

  // ---------------- panel: fetch, factor + T on host, re-encode ------
  hook(fault::FaultType::Storage, fault::Op::Potf2, j);
  if (ft_) {
    std::vector<BlockId>& in = block_list();
    for (int i = j; i < nb_; ++i) in.emplace_back(i, j);
    verify(in, fault::Op::Potf2, Sums::Row);
  }
  step(
      "d2h_panel",
      [&](Footprints& fp) {
        for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
        fp.push_back(runtime::write(htile()));
      },
      [this, j, jb, mrem, blocking = bulk()](const runtime::TaskContext& c) {
        m_.memcpy_d2h_2d(
            staging(c, runtime::write,
                    m_.numeric() ? h_panel_.data() : nullptr),
            n_, use(c, runtime::read, data_region(off(j), off(j), mrem, jb)),
            c.stream, blocking);
      },
      base, s_compute_);
  step(
      "geqf2+larft", [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
      [this, j, mrem, jb](const runtime::TaskContext& c) {
        staging(c, runtime::rw);
        // geqf2 ~ 2 m b^2 flops, larft ~ m b^2.
        KernelDesc d{"geqf2+larft", KernelClass::HostPotf2,
                     3LL * mrem * jb * jb, 0};
        m_.host_compute(d, [this, j, mrem, jb] {
          auto panel = h_panel_.block(0, 0, mrem, jb);
          blas::geqf2(panel, h_tau_.data() + off(j));
          blas::larft(ConstMatrixView<double>(panel), h_tau_.data() + off(j),
                      h_t_.block(0, 0, jb, jb));
        });
      },
      host, s_compute_);
  if (ft_) {
    step(
        "encode_panel_r",
        [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
        [this, j, mrem, jb](const runtime::TaskContext& c) {
          staging(c, runtime::rw);
          KernelDesc d{"encode_panel_r", KernelClass::HostChecksum,
                       4LL * mrem * jb, 0};
          m_.host_compute(d, [this, j, jb] {
            for (int i = j; i < nb_; ++i) {
              encode_block_rows(
                  ConstMatrixView<double>(
                      h_panel_.block(off(i) - off(j), 0, bs(i), jb)),
                  h_panel_chk_.block(off(i), 0, bs(i), kChecksumRows));
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
      [this, j, jb, mrem](const runtime::TaskContext& c) {
        m_.memcpy_h2d_2d(
            use(c, runtime::write, data_region(off(j), off(j), mrem, jb)),
            staging(c, runtime::read, m_.numeric() ? h_panel_.data() : nullptr),
            n_, c.stream);
      },
      base, s_compute_);
  step(
      "h2d_t",
      [](Footprints& fp) {
        fp.push_back(runtime::read(htile()));
        fp.push_back(runtime::write(ttile()));
      },
      [this, jb](const runtime::TaskContext& c) {
        // T is unprotected by checksums (see the class comment's exposure
        // note): keep its copy out of the stochastic fault surface.
        const sim::TransferArmGuard t_arm(m_, /*h2d=*/false, /*d2h=*/false);
        // The flat copy fills T's first jb·jb doubles: a jb x jb block
        // with leading dimension jb.
        const DMat t = use(c, runtime::write, DMat{&d_t_, 0, jb, jb, jb});
        m_.memcpy_h2d(*t.buf, t.off,
                      staging(c, runtime::read,
                              m_.numeric() ? h_t_.data() : nullptr),
                      static_cast<std::int64_t>(jb) * jb, c.stream);
      },
      base, s_compute_);
  if (ft_) {
    // The re-encoded panel row checksums ride back only because FT is on.
    step(
        "h2d_panel_chk",
        [&](Footprints& fp) {
          fp.push_back(runtime::read(htile()));
          for (int i = j; i < nb_; ++i)
            fp.push_back(runtime::write(rtile(i, j)));
        },
        [this, j, mrem](const runtime::TaskContext& c) {
          m_.memcpy_h2d_2d(
              use(c, runtime::write, rchk_strip(off(j), mrem, j, j + 1)),
              staging(c, runtime::read,
                      m_.numeric() ? &h_panel_chk_(off(j), 0) : nullptr),
              n_, c.stream);
        },
        update, s_compute_);
  }
  hook(fault::FaultType::Computing, fault::Op::Potf2, j);
  if (bulk()) e_panel = m_.record_event(s_compute_);

  if (right <= 0) return;

  // ---------------- trailing update: C := (I - V T V^T)^T C ----------
  hook(fault::FaultType::Storage, fault::Op::Trsm, j);  // V/T staging window
  hook(fault::FaultType::Storage, fault::Op::Gemm, j);
  if (ft_) {
    // V is always verified before the trailing update reads it: with
    // row checksums alone, a corrupted reflector would produce a
    // consistently-wrong (hence invisible) update.
    std::vector<BlockId>& v_in = block_list();
    for (int i = j; i < nb_; ++i) v_in.emplace_back(i, j);
    verify(v_in, fault::Op::Trsm, Sums::Row);
    if (verify_this_iter) {
      std::vector<BlockId>& c_in = block_list();
      for (int i = j; i < nb_; ++i)
        for (int k = j + 1; k < nb_; ++k) c_in.emplace_back(i, k);
      verify(c_in, fault::Op::Gemm, Sums::Row);
    } else {
      // Opt 3: trailing-block verification skipped this iteration.
      tel_.verify_skipped(fault::Op::Gemm,
                          static_cast<std::size_t>(nb_ - j) *
                              static_cast<std::size_t>(nb_ - j - 1),
                          j);
    }
  }
  step(
      "larfb",
      [&](Footprints& fp) {
        for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
        fp.push_back(runtime::read(ttile()));
        for (int i = j; i < nb_; ++i)
          for (int k = j + 1; k < nb_; ++k)
            fp.push_back(runtime::rw(dtile(i, k)));
      },
      [this, j, jb, mrem, right](const runtime::TaskContext& c) {
        const DMat v =
            use(c, runtime::read, data_region(off(j), off(j), mrem, jb));
        const DMat t = use(c, runtime::read, DMat{&d_t_, 0, jb, jb, b_});
        const DMat cmat =
            use(c, runtime::rw, data_region(off(j), off(j) + jb, mrem, right));
        KernelDesc d{"larfb", KernelClass::Blas3, 4LL * mrem * jb * right, 0};
        m_.launch(c.stream, d, [v, t, cmat] {
          blas::larfb_left_t(ConstMatrixView<double>(v.view()),
                             ConstMatrixView<double>(t.view()), cmat.view());
        });
      },
      base, s_compute_);
  hook(fault::FaultType::Computing, fault::Op::Gemm, j);
  if (!ft_) return;
  // rchk(M C) = M rchk(C): the identical reflector applies to the
  // checksum columns.
  if (bulk()) m_.stream_wait_event(s_chk_, e_panel);
  step(
      "larfb_rchk",
      [&](Footprints& fp) {
        for (int i = j; i < nb_; ++i) fp.push_back(runtime::read(dtile(i, j)));
        fp.push_back(runtime::read(ttile()));
        for (int i = j; i < nb_; ++i)
          for (int k = j + 1; k < nb_; ++k)
            fp.push_back(runtime::rw(rtile(i, k)));
      },
      [this, j, jb, mrem](const runtime::TaskContext& c) {
        const DMat v =
            use(c, runtime::read, data_region(off(j), off(j), mrem, jb));
        const DMat t = use(c, runtime::read, DMat{&d_t_, 0, jb, jb, b_});
        const DMat strip =
            use(c, runtime::rw, rchk_strip(off(j), mrem, j + 1, nb_));
        KernelDesc d{"larfb_rchk", KernelClass::Blas3Skinny,
                     4LL * mrem * jb * 2 * (nb_ - j - 1), 0};
        m_.launch(c.stream, d, [v, t, strip] {
          blas::larfb_left_t(ConstMatrixView<double>(v.view()),
                             ConstMatrixView<double>(t.view()), strip.view());
        });
      },
      update, s_chk_);
}

}  // namespace

CholeskyResult qr(Machine& machine, Matrix<double>* a,
                  std::vector<double>* tau, int n, const QrOptions& options,
                  fault::Injector* injector) {
  QrRun run(machine, a, tau, n, options, injector);
  return run.execute();
}

}  // namespace ftla::abft
