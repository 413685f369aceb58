#include "abft/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "abft/driver.hpp"
#include "abft/opt2_model.hpp"
#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/types.hpp"
#include "common/error.hpp"
#include "common/fp.hpp"
#include "sim/device_matrix.hpp"
#include "sim/gpublas.hpp"

namespace ftla::abft {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;
using sim::DConstMat;
using sim::DeviceBuffer;
using sim::DMat;
using sim::EventId;
using sim::KernelClass;
using sim::KernelDesc;
using sim::Machine;

const char* to_string(Variant v) {
  switch (v) {
    case Variant::NoFt: return "no-ft";
    case Variant::Offline: return "offline-abft";
    case Variant::Online: return "online-abft";
    case Variant::EnhancedOnline: return "enhanced-online-abft";
  }
  return "?";
}

const char* to_string(UpdatePlacement p) {
  switch (p) {
    case UpdatePlacement::Blocking: return "blocking";
    case UpdatePlacement::Gpu: return "gpu";
    case UpdatePlacement::Cpu: return "cpu";
    case UpdatePlacement::Auto: return "auto";
  }
  return "?";
}

const char* to_string(Recovery r) {
  return r == Recovery::Rerun ? "rerun" : "checkpoint";
}

const char* to_string(RuntimeMode m) {
  return m == RuntimeMode::Dag ? "dag" : "bulk";
}

const char* dag_refusal(const CholeskyOptions& o) {
  if (o.runtime != RuntimeMode::Dag) return nullptr;
  if (o.variant != Variant::NoFt && o.placement == UpdatePlacement::Cpu) {
    return "cpu_checksum_mirror";
  }
  if (o.recovery == Recovery::Checkpoint && o.variant != Variant::Offline) {
    return "checkpoint_recovery";
  }
  if (o.panel_checkpoint != nullptr) return "panel_checkpoint";
  return nullptr;
}

int resolve_block_size(const sim::MachineProfile& profile,
                       const DriverOptions& options) {
  return options.block_size > 0 ? options.block_size
                                : profile.magma_block_size;
}

namespace {

// Column checksums only; the kernels keep their unsuffixed names, which
// the pinned profile baselines record.
constexpr SumNames kCholeskySums{"encode", "recalc", "verify"};

// Checkpoint rollbacks allowed per run before unrecoverable corruption
// escalates to a full rerun (Recovery::Checkpoint).
constexpr int kMaxRollbacks = 8;

class Run final : public Driver {
 public:
  Run(Machine& m, Matrix<double>* a, int n, const CholeskyOptions& opt,
      fault::Injector* injector)
      : Driver(m, a, n, opt, injector, "cholesky", 1.0, &kCholeskySums,
               nullptr),
        copt_(opt) {
    FTLA_CHECK(copt_.checkpoint_interval >= 1);
    const char* dag_refused = dag_refusal(copt_);
    FTLA_CHECK_MSG(dag_refused == nullptr, dag_refused);
    // Panel checkpointing needs real panel data.
    FTLA_CHECK_MSG(copt_.panel_checkpoint == nullptr || m_.numeric(),
                   "panel checkpoints require Numeric mode");
    chk_strikes_ = true;
    placement_ = copt_.placement;
    if (!ft_) placement_ = UpdatePlacement::Gpu;  // no checksums to place
    if (placement_ == UpdatePlacement::Auto) {
      // The graph keeps the checksums on the device (dag_refusal).
      placement_ =
          opt_.runtime == RuntimeMode::Dag
              ? UpdatePlacement::Gpu
              : opt2_decide(m_.profile(), n_, b_, opt_.verify_interval)
                    .decision;
    }
    if (ft_ && tel_.active()) {
      const Opt2Estimate est =
          opt2_decide(m_.profile(), n_, b_, opt_.verify_interval);
      tel_.placement_decided(copt_.placement, placement_, est.t_pick_gpu_s,
                             est.t_pick_cpu_s);
    }
    host_compare_ = placement_ == UpdatePlacement::Cpu;
    result_.chosen_placement = placement_;
    ck_ = copt_.panel_checkpoint;
    if (ck_ != nullptr) {
      if (ck_->usable(n_, b_) && ck_->columns.rows() == n_ &&
          ck_->columns.cols() == n_) {
        resume_from_ = std::min(ck_->iterations, nb_);
        ck_->iterations = resume_from_;
      } else {
        ck_->n = n_;
        ck_->block = b_;
        ck_->iterations = 0;
        if (ck_->columns.rows() != n_ || ck_->columns.cols() != n_) {
          ck_->columns = Matrix<double>(n_, n_);
        }
      }
      result_.resumed_iterations = resume_from_;
    }
    enable_tracing(copt_.trace, copt_.trace_ctx);
  }

 private:
  /// Host mirror of the checksum blocks and strips (placement Cpu).
  [[nodiscard]] MatrixView<double> h_chk_block(int i, int k) {
    return h_chk_.block(2 * i, off(k), kChecksumRows, bs(k));
  }
  [[nodiscard]] MatrixView<double> h_chk_strip(int i0, int i1, int col,
                                               int cols) {
    return h_chk_.block(2 * i0, col, 2 * (i1 - i0), cols);
  }
  /// The diagonal block's checksum rows on the host: the mirror itself
  /// under placement Cpu, else the staging copy that rides along.
  [[nodiscard]] MatrixView<double> h_diag_chk(int j) {
    return placement_ == UpdatePlacement::Cpu
               ? h_chk_block(j, j)
               : h_diag_chk_.block(0, 0, kChecksumRows, bs(j));
  }

  void allocate() override;
  void upload() override;
  void run_once() override;
  [[nodiscard]] BlockId fault_target(const fault::FaultSpec& spec,
                                     int j) const override;
  [[nodiscard]] double* stored_checksum(int row, int col) override;
  void compare_on_host(const std::vector<BlockId>& blocks, fault::Op attr,
                       std::int64_t used) override;

  void iteration(int j);
  void take_checkpoint(int next_iter);
  void save_panels(int upto);
  void rollback();
  void offline_final_verify();
  void fetch_panel_for_cpu_update(int j);
  void wait_panel(int j);
  void poll_window_faults(fault::Op op, int j);

  const CholeskyOptions& copt_;
  UpdatePlacement placement_ = UpdatePlacement::Gpu;

  // Checkpoint state (Recovery::Checkpoint): on-device snapshots of the
  // matrix (and checksums), plus a host snapshot of the checksum mirror
  // when updating runs on the CPU.
  bool checkpointing_ = false;
  DeviceBuffer d_ckpt_a_;
  DeviceBuffer d_ckpt_chk_;
  Matrix<double> h_ckpt_chk_;
  int ckpt_iter_ = 0;

  // Fleet panel-checkpoint store (options.panel_checkpoint, Numeric
  // only): host-side slab of retired panel columns, refreshed every
  // checkpoint_interval iterations; the run starts at resume_from_ when
  // the store seeded it.
  PanelCheckpoint* ck_ = nullptr;

  Matrix<double> h_chk_;        // host checksum mirror (placement Cpu)
  Matrix<double> h_scratch_;    // host landing area for recalc batches
  Matrix<double> h_diag_;       // host diagonal block for POTF2
  Matrix<double> h_diag_chk_;   // its checksum rows
  // Double-buffered host copies of the decomposed row panel (placement
  // Cpu): the panel for iteration j+1 is prefetched over PCIe while the
  // host still works with iteration j's buffer.
  Matrix<double> h_panel_[2];
  EventId panel_event_[2] = {-1, -1};
  int panel_iter_[2] = {-1, -1};
};

void Run::allocate() {
  d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
  if (ft_) {
    d_cchk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    const std::int64_t scratch_cols =
        static_cast<std::int64_t>(nb_) * nb_ * b_ + 2LL * nb_ * b_;
    scratch_capacity_ = 2 * scratch_cols;
    d_scratch_ = m_.alloc(scratch_capacity_);
    if (m_.numeric()) {
      h_scratch_ = Matrix<double>(2, static_cast<int>(scratch_cols));
      if (placement_ == UpdatePlacement::Cpu) {
        h_chk_ = Matrix<double>(2 * nb_, n_);
        h_panel_[0] = Matrix<double>(b_, n_);
        h_panel_[1] = Matrix<double>(b_, n_);
      }
      h_diag_chk_ = Matrix<double>(kChecksumRows, b_);
    }
  }
  // Host staging holds payloads only; TimingOnly copies pass nullptr.
  if (m_.numeric()) {
    h_diag_ = Matrix<double>(b_, b_);
    pristine_ = *a_;
  }

  checkpointing_ = copt_.recovery == Recovery::Checkpoint &&
                   opt_.variant != Variant::Offline;
  if (checkpointing_) {
    d_ckpt_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
    if (ft_ && placement_ != UpdatePlacement::Cpu) {
      d_ckpt_chk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    }
  }

  // NoFt under the DAG still gets the transfer lane: the graph overlaps
  // the diagonal staging copies with the previous trailing update.
  create_streams(ft_ || opt_.runtime == RuntimeMode::Dag);
  if (placement_ != UpdatePlacement::Gpu) s_update_ = s_compute_;
}

void Run::upload() {
  Driver::upload();
  if (ck_ == nullptr) return;
  // A rerun escalation restarts from the resume point, so panels saved
  // by the failed attempt are discarded along with the device state.
  if (ck_->iterations > resume_from_) ck_->iterations = resume_from_;
  if (resume_from_ > 0) {
    // Seed the resume: overwrite the retired block columns with the
    // checkpointed factor slab. Everything right of them is pristine by
    // the left-looking invariant, so this is the complete mid-run state.
    m_.memcpy_h2d(d_a_, 0, ck_->columns.data(),
                  static_cast<std::int64_t>(off(resume_from_)) * n_,
                  s_compute_, /*blocking=*/true);
  }
}

void Run::run_once() {
  panel_iter_[0] = panel_iter_[1] = -1;  // panels are stale after a rerun
  encode(/*lower=*/true);
  if (ft_ && placement_ == UpdatePlacement::Cpu) {
    // Paper §VI-6a: the initial checksums move to the host once.
    const obs::PhaseScope phase(tel_.profile(), obs::Phase::Encode);
    m_.sync_stream(s_compute_);
    m_.memcpy_d2h(m_.numeric() ? h_chk_.data() : nullptr, d_cchk_, 0,
                  static_cast<std::int64_t>(2 * nb_) * n_, s_compute_,
                  /*blocking=*/true);
  }
  // Stochastic transfer faults cover the H2D copies between encode and
  // the final download (a corrupted *initial* upload is indistinguishable
  // from a different input — no ABFT can detect it). D2H staging copies
  // are armed individually where an arrival check exists (transfer_guard).
  const sim::TransferArmGuard arm(m_, /*h2d=*/true, /*d2h=*/false);
  if (checkpointing_) take_checkpoint(resume_from_);
  // Resuming mid-matrix with CPU-side checksum updating: the first
  // resumed iteration needs its decomposed row panel on the host (a
  // no-op for cold starts and for the other placements).
  fetch_panel_for_cpu_update(resume_from_);
  int rollbacks_left = kMaxRollbacks;
  int j = resume_from_;
  while (j < nb_) {
    if (checkpointing_ && rollbacks_left > 0) {
      try {
        iteration(j);
      } catch (const Error&) {
        // Timely detection (Online/Enhanced) guarantees the corruption
        // postdates the snapshot: roll back and resume instead of
        // restarting the whole factorization.
        --rollbacks_left;
        ++result_.rollbacks;
        rollback();
        j = ckpt_iter_;
        continue;
      }
    } else {
      iteration(j);
    }
    ++j;
    if (checkpointing_ && j < nb_ && j % copt_.checkpoint_interval == 0) {
      take_checkpoint(j);
    }
    if (ck_ != nullptr && j < nb_ && j % copt_.checkpoint_interval == 0 &&
        j > ck_->iterations) {
      save_panels(j);
    }
  }
  if (opt_.variant == Variant::Offline) {
    // The offline sweep is a bulk batch under either runtime: issue the
    // graph and align the host clock with all its work first, so the
    // sweep's fences see the full run.
    if (!bulk()) {
      run_graph();
      m_.sync_all();
    }
    offline_final_verify();
  } else if (ft_ && copt_.transfer_guard) {
    // Transfer-fault hardening: pre-use verification cannot see a
    // strike on a retired output block (nothing reads it again), so
    // the guard closes the output-at-rest window with one end sweep.
    // Unlike the offline sweep, timely in-loop detection guarantees a
    // sweep-detected error never propagated — anything it finds struck
    // after the block's last verification and was never read since —
    // so in-place correction is safe; uncorrectable damage escalates.
    // Under the DAG each block's verify depends only on that block's
    // last writer, so retired columns are swept while the tail runs.
    begin_iteration(-1);
    std::vector<BlockId>& all = block_list();
    for (int k = 0; k < nb_; ++k)
      for (int i = k; i < nb_; ++i) all.emplace_back(i, k);
    verify(all, fault::Op::Gemm);
  }
  finish_pass();
}

void Run::take_checkpoint(int next_iter) {
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Recover);
  // The checkpoint window is itself exposed: a storage strike arriving
  // now lands *before* the snapshot, so the snapshot preserves the
  // corruption and rollback alone cannot clear it (data strikes stay
  // correctable — the checksum snapshot is taken from the untouched
  // checksum state — while harder cases escalate up the ladder).
  poll_window_faults(fault::Op::Syrk, next_iter);
  // Snapshot a consistent (matrix, checksum) pair: all checksum-stream
  // work must land first.
  m_.stream_wait_event(s_compute_, m_.record_event(s_update_));
  m_.memcpy_d2d(d_ckpt_a_, 0, d_a_, 0, static_cast<std::int64_t>(n_) * n_,
                s_compute_);
  if (ft_) {
    if (placement_ == UpdatePlacement::Cpu) {
      if (m_.numeric()) h_ckpt_chk_ = h_chk_;
      KernelDesc d{"ckpt_chk_host", KernelClass::HostChecksum,
                   static_cast<std::int64_t>(2 * nb_) * n_, 0};
      m_.host_compute(d, {});
    } else {
      m_.memcpy_d2d(d_ckpt_chk_, 0, d_cchk_, 0,
                    static_cast<std::int64_t>(2 * nb_) * n_, s_compute_);
    }
  }
  ckpt_iter_ = next_iter;
  tel_.checkpoint_taken(next_iter);
}

void Run::save_panels(int upto) {
  // Fleet panel checkpoint (docs/fleet.md): ship the block columns
  // retired since the last save to the host store. Left-looking
  // Cholesky never rewrites them and they were verified before they
  // retired, so this one D2H copy is the entire checkpoint — no device
  // snapshot, no extra verification — and it survives the device.
  const int c0 = off(ck_->iterations);
  const int cols = off(upto) - c0;
  if (cols <= 0) return;
  // The shipped columns were verified when their iterations retired,
  // but a storage strike landing *after* that verification would be
  // frozen into the checkpoint — and a resume re-encodes checksums
  // from the slab, so the corruption becomes undetectable forever.
  // Surface any pending strikes, then re-verify (correcting in place)
  // everything about to leave the device; uncorrectable damage
  // escalates up the rerun ladder like any other detection.
  if (ft_) {
    poll_window_faults(fault::Op::Syrk, upto);
    std::vector<BlockId>& shipped = block_list();
    for (int k = ck_->iterations; k < upto; ++k) {
      for (int i = k; i < nb_; ++i) shipped.emplace_back(i, k);
    }
    verify(shipped, fault::Op::Gemm);
  }
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Recover);
  const double ck_t0 = m_.host_now();
  m_.sync_stream(s_compute_);
  m_.memcpy_d2h(ck_->columns.data() + static_cast<std::int64_t>(c0) * n_,
                d_a_, static_cast<std::int64_t>(c0) * n_,
                static_cast<std::int64_t>(cols) * n_, s_xfer_,
                /*blocking=*/true);
  ck_->iterations = upto;
  const std::int64_t bytes =
      static_cast<std::int64_t>(cols) * n_ * static_cast<int>(sizeof(double));
  result_.checkpoint_bytes += bytes;
  obs::record_span(trace_, trace_ctx_,
                   obs::derive_span_id(trace_pass_,
                                       obs::kTraceCheckpointChildBase +
                                           static_cast<std::uint64_t>(upto)),
                   trace_pass_, "checkpoint", "checkpoint", ck_t0,
                   m_.host_now(), "ok",
                   "iterations=" + std::to_string(upto) +
                       " bytes=" + std::to_string(bytes));
  tel_.checkpoint_taken(upto);
}

void Run::rollback() {
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Recover);
  m_.sync_all();
  m_.memcpy_d2d(d_a_, 0, d_ckpt_a_, 0, static_cast<std::int64_t>(n_) * n_,
                s_compute_);
  if (ft_) {
    if (placement_ == UpdatePlacement::Cpu) {
      if (m_.numeric()) h_chk_ = h_ckpt_chk_;
      KernelDesc d{"restore_chk_host", KernelClass::HostChecksum,
                   static_cast<std::int64_t>(2 * nb_) * n_, 0};
      m_.host_compute(d, {});
    } else {
      m_.memcpy_d2d(d_cchk_, 0, d_ckpt_chk_, 0,
                    static_cast<std::int64_t>(2 * nb_) * n_, s_compute_);
    }
  }
  m_.sync_stream(s_compute_);
  panel_iter_[0] = panel_iter_[1] = -1;  // host panel cache is stale
  tel_.rollback(ckpt_iter_);
  // Recovery is not a safe harbor: storage faults arriving during the
  // restore strike the just-restored state and must be caught by the
  // verifications of the resumed iterations.
  poll_window_faults(fault::Op::Syrk, ckpt_iter_);
}

void Run::offline_final_verify() {
  begin_iteration(-1);  // the sweep belongs to no outer iteration
  // Huang & Abraham: one verification sweep over the finished factor.
  // Any anomaly triggers a full re-run — an offline scheme cannot tell
  // whether a detected error propagated before the sweep, so correcting
  // in place would risk silently keeping polluted blocks.
  const int detected_before = result_.errors_detected;
  const int repairs_before = result_.checksum_repairs;
  std::vector<BlockId>& all = block_list();
  for (int k = 0; k < nb_; ++k)
    for (int i = k; i < nb_; ++i) all.emplace_back(i, k);
  verify(all, fault::Op::Gemm);
  m_.sync_all();
  if (result_.errors_detected != detected_before ||
      result_.checksum_repairs != repairs_before) {
    throw UnrecoverableCorruptionError(
        "offline sweep found corruption in the finished factor");
  }
}

// Placement Cpu: stored checksums live on the host; the whole recalc
// batch ships over in one transfer (paper §VI-6c) and is compared there.
void Run::compare_on_host(const std::vector<BlockId>& blocks, fault::Op attr,
                          std::int64_t used) {
  const std::int64_t cols = used / 2;
  m_.memcpy_d2h_2d(m_.numeric() ? h_scratch_.data() : nullptr, 2,
                   DMat{&d_scratch_, 0, 2, static_cast<int>(cols), 2},
                   s_compute_, /*blocking=*/true);
  KernelDesc hd{"verify_host", KernelClass::HostChecksum, 4 * cols, 0};
  m_.host_compute(hd, [this, &blocks, attr] {
    int col = 0;
    for (const auto& [bi, bk] : blocks) {
      const DMat blk = data_block(bi, bk);
      auto out = verify_block(
          blk.view(), h_chk_block(bi, bk),
          ConstMatrixView<double>(h_scratch_.block(0, col, 2, blk.cols)),
          Tolerance{});
      // Repairs computed on the host must cross back over PCIe.
      for (std::size_t c = 0; c < out.corrections.size(); ++c) {
        m_.memcpy_h2d(d_a_, 0, nullptr, 0, s_compute_);
      }
      tel_.block_verified(out, attr, cur_iter_, bi, bk,
                          blas::gemv_flops(blk.rows, blk.cols) * 2, off(bi),
                          blk.rows, off(bk), blk.cols, 2 * bi);
      absorb(out);
      col += blk.cols;
    }
  });
}

// ----------------------------------------------------------------------
// Checksum mirror on the host (paper §IV-B, placement Cpu per Opt 2)
// ----------------------------------------------------------------------

void Run::fetch_panel_for_cpu_update(int j) {
  if (!ft_ || placement_ != UpdatePlacement::Cpu || j <= 0 || j >= nb_) {
    return;
  }
  // Profiler: the panel staging copy exists only to feed host-side
  // checksum updating, so it is Update overhead.
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Update);
  // The CPU needs iteration j's decomposed row panel A[j, 0:j*B] to
  // update checksums (paper §VI-6b: n^2/2 words total). The panel is
  // final once iteration j-1's TRSM completed, so it is normally
  // prefetched at the end of the previous iteration into the other half
  // of the double buffer; this call is then a cheap idempotent check.
  const int slot = j & 1;
  if (panel_iter_[slot] == j) return;
  m_.stream_wait_event(s_xfer_, m_.record_event(s_compute_));
  m_.memcpy_d2h_2d(m_.numeric() ? h_panel_[slot].data() : nullptr, b_,
                   data_region(off(j), 0, bs(j), off(j)), s_xfer_);
  panel_event_[slot] = m_.record_event(s_xfer_);
  panel_iter_[slot] = j;
}

void Run::wait_panel(int j) {
  const int slot = j & 1;
  FTLA_CHECK(panel_iter_[slot] == j);
  m_.sync_event(panel_event_[slot]);
}

// ----------------------------------------------------------------------
// Fault targets
// ----------------------------------------------------------------------

// Default block targets when a spec leaves them unspecified. Computing
// errors corrupt an *output* block of the operation; storage errors
// corrupt an *input* block it is about to read.
BlockId Run::fault_target(const fault::FaultSpec& spec, int j) const {
  int bi = spec.block_row;
  int bk = spec.block_col;
  const bool output = spec.type == fault::FaultType::Computing;
  if (bk < 0) {
    switch (spec.op) {
      case fault::Op::Syrk:
      case fault::Op::Gemm: bk = output ? j : std::max(0, j - 1); break;
      case fault::Op::Potf2:
      case fault::Op::Trsm: bk = j; break;
    }
  }
  if (bi < 0) {
    switch (spec.op) {
      case fault::Op::Syrk:
      case fault::Op::Potf2: bi = j; break;
      case fault::Op::Gemm:
      case fault::Op::Trsm: bi = std::min(j + 1, nb_ - 1); break;
    }
  }
  return {bi, bk};
}

double* Run::stored_checksum(int row, int col) {
  if (placement_ == UpdatePlacement::Cpu) return &h_chk_(row, col);
  return Driver::stored_checksum(row, col);
}

void Run::poll_window_faults(fault::Op op, int j) {
  if (injector_ == nullptr || !m_.numeric()) return;
  for (const auto& spec : injector_->poll_window(op, j)) {
    apply_fault(spec, j);
  }
}

// ----------------------------------------------------------------------
// One outer iteration of Algorithm 1, written once for both runtimes
// (docs/runtime.md). Bulk issues each step at once and fences verify
// batches against all prior work; the DAG turns each step into a task
// that waits only on its true dependencies, so iteration j's trailing
// update overlaps iteration j+1's panel work and verify tasks hide in
// compute/transfer slack. Steps are issued in the same order either
// way, and the executor issues in insertion order, so numerics and
// fault-hook firing points are bit-identical.
// ----------------------------------------------------------------------

void Run::iteration(int j) {
  begin_iteration(j);
  const int jb = bs(j);
  const int w = off(j);                // decomposed width to the left
  const int below = n_ - off(j) - jb;  // rows below the diagonal block
  const bool enhanced = opt_.variant == Variant::EnhancedOnline;
  const bool online = opt_.variant == Variant::Online;
  const bool verify_this_iter = (j % opt_.verify_interval) == 0;
  runtime::TaskOptions base;
  base.phase = obs::Phase::Base;
  base.iteration = j;
  runtime::TaskOptions update = base;
  update.phase = obs::Phase::Update;
  runtime::TaskOptions host = base;
  host.phase = obs::Phase::Base;
  host.where = runtime::Where::Host;
  // Bulk's Algorithm-1 fences: the diagonal block has landed on the
  // host (e_diag), the factor block is back on the device (e_l).
  EventId e_diag = -1;
  EventId e_l = -1;

  fetch_panel_for_cpu_update(j);

  // ---------------- SYRK: A[j,j] -= LC LC^T --------------------------
  hook(fault::FaultType::Storage, fault::Op::Syrk, j);
  if (enhanced) {
    // Inputs of SYRK are always verified (Opt 3 never gates them):
    // an error entering the diagonal block cannot be repaired later.
    std::vector<BlockId>& in = block_list(j, j);
    for (int k = 0; k < j; ++k) in.emplace_back(j, k);
    verify(in, fault::Op::Syrk);
  }
  if (j > 0) {
    // MAGMA calls dsyrk here; we price it as SYRK but update the full
    // square block so the block stays exactly A - LC LC^T and its
    // column checksums remain meaningful for every column.
    step(
        "syrk",
        [&](Footprints& fp) {
          for (int k = 0; k < j; ++k) fp.push_back(runtime::read(dtile(j, k)));
          fp.push_back(runtime::rw(dtile(j, j)));
        },
        [this, j, jb, w](const runtime::TaskContext& c) {
          const DMat diag = use(c, runtime::rw, data_block(j, j));
          const DConstMat lc =
              use(c, runtime::read, data_region(off(j), 0, jb, w));
          KernelDesc d{"syrk", KernelClass::Blas3, blas::syrk_flops(jb, w),
                       0};
          m_.launch(c.stream, d, [diag, lc] {
            blas::gemm(Trans::No, Trans::Yes, -1.0, lc.view(), lc.view(),
                       1.0, diag.view());
          });
        },
        base, s_compute_);
  }
  hook(fault::FaultType::Computing, fault::Op::Syrk, j);
  if (ft_ && j > 0) {
    // chk(A') = chk(A) - chk(LC) * LC^T. The GPU path issues a neutral
    // gpublas name; the step's Update phase tags it as checksum upkeep.
    step(
        "chk_syrk",
        [&](Footprints& fp) {
          for (int k = 0; k < j; ++k) {
            fp.push_back(runtime::read(ctile(j, k)));
            fp.push_back(runtime::read(dtile(j, k)));
          }
          fp.push_back(runtime::rw(ctile(j, j)));
        },
        [this, j, jb, w](const runtime::TaskContext& c) {
          if (placement_ == UpdatePlacement::Cpu) {
            wait_panel(j);
            KernelDesc d{"chk_syrk_cpu", KernelClass::HostChecksum,
                         blas::gemm_flops(kChecksumRows, jb, w), 0};
            m_.host_compute(d, [this, j, jb, w] {
              blas::gemm(
                  Trans::No, Trans::Yes, -1.0,
                  ConstMatrixView<double>(h_chk_strip(j, j + 1, 0, w)),
                  ConstMatrixView<double>(h_panel_[j & 1].block(0, 0, jb, w)),
                  1.0, h_chk_block(j, j));
            });
            return;
          }
          sim::gpublas::gemm(
              m_, c.stream, Trans::No, Trans::Yes, -1.0,
              use(c, runtime::read, cchk_strip(j, j + 1, 0, w)),
              use(c, runtime::read, data_region(off(j), 0, jb, w)), 1.0,
              use(c, runtime::rw, cchk_block(j, j)), KernelClass::Blas3Skinny);
        },
        update, s_update_);
  }

  if (online && j > 0) verify(block_list(j, j), fault::Op::Syrk);
  if (enhanced) {
    // Pre-read verification for POTF2: the diagonal block as SYRK left
    // it, immediately before it crosses to the host.
    verify(block_list(j, j), fault::Op::Potf2);
  }

  // ---------------- diagonal block to the host -----------------------
  hook(fault::FaultType::Storage, fault::Op::Potf2, j);
  step(
      "d2h_diag",
      [&](Footprints& fp) {
        fp.push_back(runtime::read(dtile(j, j)));
        fp.push_back(runtime::write(htile()));
        if (ft_) fp.push_back(runtime::read(ctile(j, j)));
      },
      [this, j](const runtime::TaskContext& c) {
        // The D2H staging copies are fault-armed only when the arrival
        // check below exists to catch them (otherwise a mid-copy strike
        // would be factored into L and laundered into consistent
        // checksums).
        const sim::TransferArmGuard diag_arm(m_, m_.h2d_faults_armed(),
                                             ft_ && copt_.transfer_guard);
        m_.memcpy_d2h_2d(
            staging(c, runtime::write, m_.numeric() ? h_diag_.data() : nullptr),
            b_, use(c, runtime::read, data_block(j, j)), c.stream);
        if (ft_ && placement_ != UpdatePlacement::Cpu) {
          // Checksum rows ride along only because FT is on: Update
          // overhead.
          const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
          m_.memcpy_d2h_2d(
              staging(c, runtime::write,
                      m_.numeric() ? h_diag_chk_.data() : nullptr),
              kChecksumRows, use(c, runtime::read, cchk_block(j, j)),
              c.stream);
        }
      },
      base, s_compute_);
  if (bulk()) e_diag = m_.record_event(s_compute_);

  // ---------------- GEMM: panel update (async, hides POTF2) ----------
  // Issued before the host section: it shares no tile with POTF2, so it
  // runs under the host section and — under the DAG, which does not
  // serialize it on the compute stream — also alongside the next
  // iteration's SYRK.
  if (below > 0 && j > 0) {
    hook(fault::FaultType::Storage, fault::Op::Gemm, j);
    if (enhanced && verify_this_iter) {
      std::vector<BlockId>& in = block_list();
      for (int i = j + 1; i < nb_; ++i) in.emplace_back(i, j);  // B
      for (int k = 0; k < j; ++k) in.emplace_back(j, k);        // C
      for (int i = j + 1; i < nb_; ++i)
        for (int k = 0; k < j; ++k) in.emplace_back(i, k);      // D
      verify(in, fault::Op::Gemm);
    } else if (enhanced) {
      // Opt 3: GEMM input verification skipped this iteration.
      const std::size_t skipped = static_cast<std::size_t>(nb_ - j - 1) +
                                  static_cast<std::size_t>(j) +
                                  static_cast<std::size_t>(nb_ - j - 1) *
                                      static_cast<std::size_t>(j);
      tel_.verify_skipped(fault::Op::Gemm, skipped, j);
    }
    step(
        "gemm",
        [&](Footprints& fp) {
          for (int i = j + 1; i < nb_; ++i)
            for (int k = 0; k < j; ++k)
              fp.push_back(runtime::read(dtile(i, k)));
          for (int k = 0; k < j; ++k) fp.push_back(runtime::read(dtile(j, k)));
          for (int i = j + 1; i < nb_; ++i)
            fp.push_back(runtime::rw(dtile(i, j)));
        },
        [this, j, jb, w, below](const runtime::TaskContext& c) {
          sim::gpublas::gemm(
              m_, c.stream, Trans::No, Trans::Yes, -1.0,
              use(c, runtime::read, data_region(off(j) + jb, 0, below, w)),
              use(c, runtime::read, data_region(off(j), 0, jb, w)), 1.0,
              use(c, runtime::rw,
                  data_region(off(j) + jb, off(j), below, jb)));
        },
        base, s_compute_);
    hook(fault::FaultType::Computing, fault::Op::Gemm, j);
    if (ft_) {
      // chk(B') = chk(B) - chk(LD) * LC^T, one skinny GEMM for the whole
      // block column.
      step(
          "chk_gemm",
          [&](Footprints& fp) {
            for (int i = j + 1; i < nb_; ++i)
              for (int k = 0; k < j; ++k)
                fp.push_back(runtime::read(ctile(i, k)));
            for (int k = 0; k < j; ++k)
              fp.push_back(runtime::read(dtile(j, k)));
            for (int i = j + 1; i < nb_; ++i)
              fp.push_back(runtime::rw(ctile(i, j)));
          },
          [this, j, jb, w](const runtime::TaskContext& c) {
            if (placement_ == UpdatePlacement::Cpu) {
              wait_panel(j);
              KernelDesc d{"chk_gemm_cpu", KernelClass::HostChecksum,
                           blas::gemm_flops(2 * (nb_ - j - 1), jb, w), 0};
              m_.host_compute(d, [this, j, jb, w] {
                blas::gemm(Trans::No, Trans::Yes, -1.0,
                           ConstMatrixView<double>(
                               h_chk_strip(j + 1, nb_, 0, w)),
                           ConstMatrixView<double>(
                               h_panel_[j & 1].block(0, 0, jb, w)),
                           1.0, h_chk_strip(j + 1, nb_, off(j), jb));
              });
              return;
            }
            sim::gpublas::gemm(
                m_, c.stream, Trans::No, Trans::Yes, -1.0,
                use(c, runtime::read, cchk_strip(j + 1, nb_, 0, w)),
                use(c, runtime::read, data_region(off(j), 0, jb, w)), 1.0,
                use(c, runtime::rw, cchk_strip(j + 1, nb_, off(j), jb)),
                KernelClass::Blas3Skinny);
          },
          update, s_update_);
    }
    if (online) {
      std::vector<BlockId>& outs = block_list();
      for (int i = j + 1; i < nb_; ++i) outs.emplace_back(i, j);
      verify(outs, fault::Op::Gemm);
    }
  }

  // ---------------- POTF2 on the host (overlapped with GEMM) ---------
  if (bulk()) m_.sync_event(e_diag);
  if (ft_ && copt_.transfer_guard) {
    // Arrival verification: the diagonal block (and, for device-resident
    // checksums, its checksum rows) just crossed PCIe. A mid-copy strike
    // is invisible to every device-side verification — POTF2 would
    // factor the corrupted block and derive *consistent* checksums from
    // it, i.e. silent corruption. Check the landed data before use; the
    // device copy is overwritten by the factor's return trip either way.
    count_verified(fault::Op::Potf2, 1);
    step(
        "verify_arrival",
        [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
        [this, j, jb](const runtime::TaskContext& c) {
          staging(c, runtime::rw);
          KernelDesc vd{"verify_arrival", KernelClass::HostChecksum,
                        blas::gemv_flops(jb, jb) * 2, 0};
          m_.host_compute(vd, [this, j, jb] {
            const VerifyOutcome out = verify_block_host(
                h_diag_.block(0, 0, jb, jb), h_diag_chk(j), Tolerance{});
            tel_.block_verified(out, fault::Op::Potf2, j, j, j,
                                blas::gemv_flops(jb, jb) * 2, off(j), jb,
                                off(j), jb, 2 * j);
            absorb(out);
          });
        },
        host, s_compute_);
  }
  step(
      "potf2", [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
      [this, jb](const runtime::TaskContext& tc) {
        staging(tc, runtime::rw);
        KernelDesc d{"potf2", KernelClass::HostPotf2, blas::potf2_flops(jb),
                     0};
        m_.host_compute(d, [this, jb] {
          auto blk = h_diag_.block(0, 0, jb, jb);
          blas::potf2(blk);
          // Zero the strict upper triangle so the stored block is exactly
          // L and column checksums cover well-defined contents.
          for (int c = 1; c < jb; ++c)
            for (int r = 0; r < c; ++r) blk(r, c) = 0.0;
        });
      },
      host, s_compute_);
  if (ft_) {
    step(
        "chk_potf2", [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
        [this, j, jb](const runtime::TaskContext& c) {
          staging(c, runtime::rw);
          KernelDesc d{"chk_potf2", KernelClass::HostChecksum,
                       2LL * kChecksumRows * jb * jb, 0};
          m_.host_compute(d, [this, j, jb] {
            potf2_update_checksum(
                ConstMatrixView<double>(h_diag_.block(0, 0, jb, jb)),
                h_diag_chk(j));
          });
        },
        host, s_compute_);
    if (online) {
      count_verified(fault::Op::Potf2, 1);
      step(
          "verify_potf2",
          [](Footprints& fp) { fp.push_back(runtime::rw(htile())); },
          [this, j, jb](const runtime::TaskContext& c) {
            staging(c, runtime::rw);
            KernelDesc vd{"verify_potf2", KernelClass::HostChecksum,
                          blas::gemv_flops(jb, jb) * 2, 0};
            m_.host_compute(vd, [this, j, jb] {
              const VerifyOutcome out = verify_block_host(
                  h_diag_.block(0, 0, jb, jb), h_diag_chk(j), Tolerance{});
              tel_.block_verified(out, fault::Op::Potf2, j, j, j,
                                  blas::gemv_flops(jb, jb) * 2, off(j), jb,
                                  off(j), jb, 2 * j);
              absorb(out);
            });
          },
          host, s_compute_);
    }
  }

  // ---------------- factor block (and checksums) back to the GPU ------
  step(
      "h2d_factor",
      [&](Footprints& fp) {
        fp.push_back(runtime::read(htile()));
        fp.push_back(runtime::write(dtile(j, j)));
        if (ft_) fp.push_back(runtime::write(ctile(j, j)));
      },
      [this, j](const runtime::TaskContext& c) {
        m_.memcpy_h2d_2d(
            use(c, runtime::write, data_block(j, j)),
            staging(c, runtime::read, m_.numeric() ? h_diag_.data() : nullptr),
            b_, c.stream);
        if (ft_ && placement_ != UpdatePlacement::Cpu) {
          const obs::PhaseScope chk_phase(tel_.profile(), obs::Phase::Update);
          m_.memcpy_h2d_2d(
              use(c, runtime::write, cchk_block(j, j)),
              staging(c, runtime::read,
                      m_.numeric() ? h_diag_chk_.data() : nullptr),
              kChecksumRows, c.stream);
        }
      },
      base, s_compute_);
  // A computing error in POTF2 corrupts the factor block the GPU now
  // holds (after the transfer, or the copy would mask it).
  hook(fault::FaultType::Computing, fault::Op::Potf2, j);
  if (bulk()) e_l = m_.record_event(s_compute_);

  // ---------------- TRSM: panel solve ---------------------------------
  if (below > 0) {
    hook(fault::FaultType::Storage, fault::Op::Trsm, j);
    if (enhanced) {
      // The factor block is always verified before use (its only
      // consumer is this TRSM); the panel obeys the K interval.
      std::vector<BlockId>& in = block_list(j, j);
      if (verify_this_iter) {
        for (int i = j + 1; i < nb_; ++i) in.emplace_back(i, j);
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
          for (int i = j + 1; i < nb_; ++i)
            fp.push_back(runtime::rw(dtile(i, j)));
        },
        [this, j, jb, below](const runtime::TaskContext& c) {
          sim::gpublas::trsm(
              m_, c.stream, Side::Right, Uplo::Lower, Trans::Yes,
              Diag::NonUnit, 1.0, use(c, runtime::read, data_block(j, j)),
              use(c, runtime::rw,
                  data_region(off(j) + jb, off(j), below, jb)));
        },
        base, s_compute_);
    hook(fault::FaultType::Computing, fault::Op::Trsm, j);
    if (ft_) {
      // chk(LB) = chk(B') * (LA^T)^{-1}; the factor block must be
      // resident.
      if (bulk() && placement_ != UpdatePlacement::Cpu) {
        m_.stream_wait_event(s_update_, e_l);
      }
      step(
          "chk_trsm",
          [&](Footprints& fp) {
            fp.push_back(runtime::read(dtile(j, j)));
            for (int i = j + 1; i < nb_; ++i)
              fp.push_back(runtime::rw(ctile(i, j)));
          },
          [this, j, jb](const runtime::TaskContext& c) {
            if (placement_ == UpdatePlacement::Cpu) {
              KernelDesc d{"chk_trsm_cpu", KernelClass::HostChecksum,
                           blas::trsm_flops(Side::Right, 2 * (nb_ - j - 1),
                                            jb),
                           0};
              m_.host_compute(d, [this, j, jb] {
                blas::trsm(
                    Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
                    ConstMatrixView<double>(h_diag_.block(0, 0, jb, jb)),
                    h_chk_strip(j + 1, nb_, off(j), jb));
              });
              return;
            }
            sim::gpublas::trsm(
                m_, c.stream, Side::Right, Uplo::Lower, Trans::Yes,
                Diag::NonUnit, 1.0, use(c, runtime::read, data_block(j, j)),
                use(c, runtime::rw, cchk_strip(j + 1, nb_, off(j), jb)),
                KernelClass::Blas3Skinny);
          },
          update, s_update_);
    }
    if (online) {
      std::vector<BlockId>& outs = block_list();
      for (int i = j + 1; i < nb_; ++i) outs.emplace_back(i, j);
      verify(outs, fault::Op::Trsm);
    }
  } else if (ft_ && copt_.transfer_guard) {
    // Last block column: no TRSM re-reads the factor block, so its
    // return H2D copy is the one transfer nothing downstream would
    // verify. One device-side check closes the window.
    verify(block_list(j, j), fault::Op::Trsm);
  }

  // Row panel j+1 is final now; start moving it to the host so the next
  // iteration's CPU checksum updates never wait on PCIe.
  fetch_panel_for_cpu_update(j + 1);
}

}  // namespace

CholeskyResult cholesky(Machine& machine, Matrix<double>* a, int n,
                        const CholeskyOptions& options,
                        fault::Injector* injector) {
  Run run(machine, a, n, options, injector);
  return run.execute();
}

CholeskyResult cholesky_solve(Machine& machine, Matrix<double>* a,
                              MatrixView<double> b,
                              const CholeskyOptions& options,
                              fault::Injector* injector) {
  FTLA_CHECK_MSG(machine.numeric(), "cholesky_solve needs Numeric mode");
  FTLA_CHECK(a != nullptr && a->rows() == b.rows());
  CholeskyResult res = cholesky(machine, a, a->rows(), options, injector);
  if (res.success) {
    blas::potrs(ConstMatrixView<double>(a->view()), b);
  }
  return res;
}

}  // namespace ftla::abft
