#include "abft/driver.hpp"

#include <algorithm>
#include <cmath>

#include "abft/cholesky.hpp"
#include "blas/types.hpp"
#include "common/error.hpp"
#include "common/fp.hpp"
#include "runtime/executor.hpp"

namespace ftla::abft {

using sim::DMat;
using sim::EventId;
using sim::KernelClass;
using sim::KernelDesc;
using sim::StreamId;

Driver::Driver(sim::Machine& m, Matrix<double>* a, int n,
               const DriverOptions& opt, fault::Injector* injector,
               const char* name, double flop_multiple, const SumNames* col,
               const SumNames* row)
    : m_(m), a_(a), n_(n), opt_(opt), injector_(injector),
      tel_(m, opt.event_sink, opt.metrics, injector, opt.profile,
           opt.timeseries),
      name_(name), flop_multiple_(flop_multiple), col_(col), row_(row) {
  FTLA_CHECK(n_ > 0);
  if (m_.numeric()) {
    FTLA_CHECK_MSG(a_ != nullptr && a_->rows() == n_ && a_->cols() == n_,
                   "Numeric mode needs the host matrix");
  }
  FTLA_CHECK_MSG(injector_ == nullptr || m_.numeric(),
                 "fault injection requires Numeric mode");
  FTLA_CHECK(opt_.verify_interval >= 1);
  FTLA_CHECK(opt_.max_reruns >= 0);
  b_ = resolve_block_size(m_.profile(), opt_);
  nb_ = (n_ + b_ - 1) / b_;
  ft_ = opt_.variant != Variant::NoFt;
}

// ----------------------------------------------------------------------
// The retry ladder
// ----------------------------------------------------------------------

CholeskyResult Driver::execute() {
  allocate();
  upload();
  m_.sync_all();
  const double t0 = m_.host_now();

  if (trace_ != nullptr && resume_from_ > 0) {
    obs::record_span(trace_, trace_ctx_,
                     obs::derive_span_id(trace_factorize_, 1),
                     trace_factorize_, "resume", "marker", t0, t0, "ok",
                     "iterations=" + std::to_string(resume_from_));
  }

  bool done = false;
  try {
    while (!done) {
      ++trace_pass_count_;
      trace_pass_ = obs::derive_span_id(
          trace_factorize_,
          obs::kTraceIterationChildBase +
              static_cast<std::uint64_t>(trace_pass_count_));
      trace_pass_start_ = m_.host_now();
      try {
        run_pass();
        done = true;
        result_.success = true;
        obs::record_span(trace_, trace_ctx_, trace_pass_, trace_factorize_,
                         "pass", "pass", trace_pass_start_, m_.host_now(),
                         "ok");
      } catch (const NotPositiveDefiniteError& e) {
        result_.fail_stop_observed = true;
        done = retry(e, "fail-stop: ", "not_positive_definite");
      } catch (const UnrecoverableCorruptionError& e) {
        done = retry(e, "unrecoverable: ", "unrecoverable_corruption");
      }
    }
  } catch (...) {
    // A device loss (or any other failure the retry ladder does not
    // handle) unwinds out of the driver: close the open pass and
    // factorize spans first so the trace keeps its parentage intact —
    // the service's attempt span records the loss itself.
    const double at = m_.host_now();
    obs::record_span(trace_, trace_ctx_, trace_pass_, trace_factorize_,
                     "pass", "pass", trace_pass_start_, at, "loss");
    obs::record_span(trace_, trace_ctx_, trace_factorize_, trace_ctx_.span_id,
                     "factorize", "driver", t0, at, "loss");
    throw;
  }

  m_.sync_all();
  result_.seconds = m_.host_now() - t0;
  const double flops = flop_multiple_ * n_ * n_ * n_ / 3.0;
  result_.gflops =
      result_.seconds > 0.0 ? flops / result_.seconds / 1e9 : 0.0;

  obs::record_span(trace_, trace_ctx_, trace_factorize_, trace_ctx_.span_id,
                   "factorize", "driver", t0, t0 + result_.seconds,
                   result_.success ? "ok" : "error");

  if (result_.success) download();
  return result_;
}

bool Driver::retry(const Error& e, const char* prefix, const char* reason) {
  obs::record_span(trace_, trace_ctx_, trace_pass_, trace_factorize_, "pass",
                   "pass", trace_pass_start_, m_.host_now(), "error", reason);
  if (opt_.variant == Variant::NoFt || result_.reruns >= opt_.max_reruns) {
    result_.note = std::string(prefix) + e.what();
    return true;
  }
  ++result_.reruns;
  tel_.rerun(result_.reruns, reason);
  const obs::PhaseScope recover(tel_.profile(), obs::Phase::Recover);
  upload();
  return false;
}

void Driver::run_pass() {
  runtime::TaskGraph graph;
  g_ = opt_.runtime == RuntimeMode::Dag ? &graph : nullptr;
  slot_ = 0;
  sanitized_ = nullptr;
  try {
    run_once();
  } catch (...) {
    g_ = nullptr;
    throw;
  }
  g_ = nullptr;
}

void Driver::upload() {
  m_.memcpy_h2d(d_a_, 0, m_.numeric() ? pristine_.data() : nullptr,
                static_cast<std::int64_t>(n_) * n_, s_compute_,
                /*blocking=*/true);
}

void Driver::download() {
  if (!m_.numeric()) return;
  // Outside the timed section: MAGMA's dpotrf_gpu leaves the factor on
  // the device; callers fetch it separately.
  m_.memcpy_d2h(a_->data(), d_a_, 0, static_cast<std::int64_t>(n_) * n_,
                s_compute_, /*blocking=*/true);
}

double* Driver::stored_checksum(int row, int col) {
  return d_cchk_.data() + static_cast<std::int64_t>(col) * (2 * nb_) + row;
}

void Driver::compare_on_host(const std::vector<BlockId>&, fault::Op,
                             std::int64_t) {
  FTLA_CHECK_MSG(false, "this driver compares on the device");
}

void Driver::enable_tracing(obs::TraceStore* store,
                            const obs::TraceContext& ctx) {
  // The driver roots its "factorize" span at the fixed child slot of
  // the caller's context, so the service's attempt span and the
  // driver's spans agree on ids without further coordination.
  if (store == nullptr || !ctx.valid()) return;
  trace_ = store;
  trace_ctx_ = ctx;
  trace_factorize_ = obs::derive_span_id(ctx.span_id, obs::kTraceDriverChild);
}

// ----------------------------------------------------------------------
// Streams, encode and the graph
// ----------------------------------------------------------------------

void Driver::create_streams(bool xfer) {
  s_compute_ = m_.default_stream();
  if (ft_) s_chk_ = m_.create_stream();
  s_update_ = s_chk_;
  if (xfer) s_xfer_ = m_.create_stream();
  xfer_ = xfer;
  if (!ft_) return;
  const int streams =
      opt_.concurrent_recalc ? m_.profile().max_concurrent_kernels : 1;
  for (int i = 0; i < streams; ++i) s_recalc_.push_back(m_.create_stream());
}

std::vector<StreamId> Driver::dag_streams() const {
  std::vector<StreamId> streams{s_compute_};
  if (ft_) streams.push_back(s_chk_);
  // Cholesky's extra lane lets the graph overlap the diagonal staging
  // copies with the previous iteration's trailing update.
  if (xfer_) streams.push_back(s_xfer_);
  if (ft_) streams.insert(streams.end(), s_recalc_.begin(), s_recalc_.end());
  return streams;
}

void Driver::encode(bool lower) {
  if (!ft_) return;
  // Profiler attribution: everything issued here is encode overhead.
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Encode);
  // One BLAS-2 encode step per block, spread across the recalc streams
  // so encoding itself benefits from concurrency.
  if (bulk()) {
    const EventId e_up = m_.record_event(s_compute_);
    for (StreamId s : s_recalc_) m_.stream_wait_event(s, e_up);
  }
  runtime::TaskOptions opts;
  opts.phase = obs::Phase::Encode;
  int q = 0;
  for (int k = 0; k < nb_; ++k) {
    for (int i = lower ? k : 0; i < nb_; ++i) {
      step(
          "encode",
          [&](Footprints& fp) {
            fp.push_back(runtime::read(dtile(i, k)));
            if (col_ != nullptr) fp.push_back(runtime::write(ctile(i, k)));
            if (row_ != nullptr) fp.push_back(runtime::write(rtile(i, k)));
          },
          [this, i, k](const runtime::TaskContext& c) {
            const DMat blk = use(c, runtime::read, data_block(i, k));
            const std::int64_t flops =
                blas::gemv_flops(blk.rows, blk.cols) * 2;
            if (col_ != nullptr) {
              const DMat chk = use(c, runtime::write, cchk_block(i, k));
              m_.launch(c.stream,
                        KernelDesc{col_->encode, KernelClass::Blas2, flops, 0},
                        [blk, chk] {
                          encode_block(ConstMatrixView<double>(blk.view()),
                                       chk.view());
                        });
            }
            if (row_ != nullptr) {
              const DMat chk = use(c, runtime::write, rchk_block(i, k));
              m_.launch(c.stream,
                        KernelDesc{row_->encode, KernelClass::Blas2, flops, 0},
                        [blk, chk] {
                          encode_block_rows(
                              ConstMatrixView<double>(blk.view()),
                              chk.view());
                        });
            }
          },
          opts, s_recalc_[q++ % s_recalc_.size()]);
    }
  }
  if (bulk()) {
    for (StreamId s : s_recalc_) {
      const EventId e = m_.record_event(s);
      m_.stream_wait_event(s_compute_, e);
      m_.stream_wait_event(s_chk_, e);
    }
  }
}

void Driver::run_graph() {
  if (g_ == nullptr) return;
  // Opt-in dynamic footprint sanitizer (docs/static-analysis.md): the
  // executor hands every body a recording TileAccessor, and any access
  // outside a declared footprint — or unordered by happens-before —
  // fails the pass with the tracker's report.
  if (runtime::sanitize_env_enabled()) {
    g_->set_access_tracker(&tracker_);
    sanitized_ = g_;
  }
  runtime::StreamRunOptions ropts;
  ropts.streams = dag_streams();
  ropts.profile = tel_.profile();
  ropts.metrics = opt_.metrics;
  ropts.schedule_seed = opt_.dag_schedule_seed;
  if (trace_ != nullptr) {
    // DAG task spans hang off the current pass span, ids derived from
    // node ids — the same graph traces to the same ids at any schedule.
    ropts.trace = trace_;
    ropts.trace_ctx = trace_ctx_;
    ropts.trace_ctx.span_id = trace_pass_;
  }
  runtime::run_on_streams(*g_, m_, ropts);
  g_ = nullptr;
}

void Driver::finish_pass() {
  run_graph();
  m_.sync_all();
  if (sanitized_ != nullptr && !tracker_.clean()) {
    throw Error(std::string(name_) + " DAG failed footprint sanitizing\n" +
                tracker_.report(*sanitized_));
  }
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

void Driver::count_verified(fault::Op attr, std::size_t blocks) {
  const auto count = static_cast<long long>(blocks);
  switch (attr) {
    case fault::Op::Potf2: result_.verified.potf2_blocks += count; break;
    case fault::Op::Trsm: result_.verified.trsm_blocks += count; break;
    case fault::Op::Syrk: result_.verified.syrk_blocks += count; break;
    case fault::Op::Gemm: result_.verified.gemm_blocks += count; break;
  }
  tel_.verify_scheduled(attr, blocks);
}

void Driver::absorb(const VerifyOutcome& out) {
  result_.errors_detected += out.errors_detected;
  result_.errors_corrected += out.errors_corrected;
  result_.checksum_repairs += out.checksum_repairs;
  if (out.uncorrectable) {
    // One checksum side corrects one error per block column (column
    // sums) or per block row (row sums).
    throw UnrecoverableCorruptionError(
        col_ != nullptr && row_ != nullptr
            ? "more than one error per checksum lane"
        : col_ != nullptr ? "more than one error per block column"
                          : "more than one error per block row");
  }
}

void Driver::verify(const std::vector<BlockId>& blocks, fault::Op attr,
                    Sums sums) {
  if (!ft_ || blocks.empty()) return;
  // Recalc kernels classify as Recalc by name; the scope catches the
  // neutral spans issued here (scratch D2H batch, host repair H2Ds).
  const obs::PhaseScope phase(tel_.profile(), obs::Phase::Verify);
  count_verified(attr, blocks.size());

  if (g_ != nullptr) {
    // A verify task is rw on its block and the block's checksums (a
    // correction through one side re-derives the other) plus a write on
    // a rotating scratch slot, so it waits only on its block's writers.
    const std::int64_t nslots = scratch_capacity_ / (2 * b_);
    runtime::TaskOptions opts;
    opts.phase = obs::Phase::Verify;
    opts.iteration = cur_iter_;
    for (const auto& [bi, bk] : blocks) {
      const int slot = static_cast<int>(slot_++ % nslots);
      const std::int64_t pos = 2LL * slot * b_;
      fp_.clear();
      fp_.push_back(runtime::rw(dtile(bi, bk)));
      if (col_ != nullptr) fp_.push_back(runtime::rw(ctile(bi, bk)));
      if (row_ != nullptr) fp_.push_back(runtime::rw(rtile(bi, bk)));
      fp_.push_back(runtime::write(stile(slot)));
      g_->add_task(
          (sums == Sums::Col ? col_ : row_)->verify, fp_,
          [this, bi, bk, attr, sums, pos,
           iter = cur_iter_](const runtime::TaskContext& c) {
            issue_verify(c, bi, bk, attr, sums, pos, iter);
          },
          opts);
    }
    return;
  }

  // Bulk: recalc kernels must observe the data state after all compute
  // so far and the checksum state after all updates so far.
  const EventId e_comp = m_.record_event(s_compute_);
  const EventId e_chk = m_.record_event(s_update_);
  const int nstreams = std::max(
      1, std::min(static_cast<int>(s_recalc_.size()),
                  static_cast<int>(blocks.size())));
  for (int i = 0; i < nstreams; ++i) {
    m_.stream_wait_event(s_recalc_[i], e_comp);
    m_.stream_wait_event(s_recalc_[i], e_chk);
  }
  // Lay the recalculated checksums side by side in the scratch buffer.
  std::int64_t pos = 0;
  runtime::TaskContext c;
  for (std::size_t q = 0; q < blocks.size(); ++q) {
    const auto [bi, bk] = blocks[q];
    c.stream = s_recalc_[q % nstreams];
    issue_verify(c, bi, bk, attr, sums, pos, cur_iter_);
    pos += 2LL * (sums == Sums::Col ? bs(bk) : bs(bi));
  }
  for (int i = 0; i < nstreams; ++i) {
    const EventId e = m_.record_event(s_recalc_[i]);
    m_.stream_wait_event(s_compute_, e);
    m_.stream_wait_event(s_update_, e);
  }
  if (host_compare_) compare_on_host(blocks, attr, pos);
}

// Recalculates block (bi, bk)'s checksums into the scratch buffer at
// `pos` (doubles) and, unless the batch compares on the host, compares
// them against the stored checksums and corrects in place. Both kernels
// ride `c.stream`, so the compare observes the fresh sums.
void Driver::issue_verify(const runtime::TaskContext& c, int bi, int bk,
                          fault::Op attr, Sums sums, std::int64_t pos,
                          int iter) {
  const StreamId s = c.stream;
  // The compare corrects the block in place.
  const DMat blk = use(c, runtime::rw, data_block(bi, bk));
  const bool col = sums == Sums::Col;
  FTLA_CHECK(pos + 2LL * (col ? blk.cols : blk.rows) <= scratch_capacity_);
  const DMat scratch =
      use(c, runtime::write,
          col ? DMat{&d_scratch_, pos, 2, blk.cols, 2}
              : DMat{&d_scratch_, pos, blk.rows, 2, blk.rows});
  const SumNames& names = col ? *col_ : *row_;
  const std::int64_t rflops = blas::gemv_flops(blk.rows, blk.cols) * 2;
  m_.launch(s, KernelDesc{names.recalc, KernelClass::Blas2, rflops, 0},
            [blk, scratch, col] {
              const ConstMatrixView<double> data(blk.view());
              if (col) {
                encode_block(data, scratch.view());
              } else {
                encode_block_rows(data, scratch.view());
              }
            });
  if (host_compare_) return;

  const DMat chk =
      use(c, runtime::rw, col ? cchk_block(bi, bk) : rchk_block(bi, bk));
  // Blocks that carry both checksum sides re-derive the other side from
  // the repaired data, so the two stay coherent (corrections are rare,
  // so the O(B^2) re-encode is negligible).
  const bool both = col_ != nullptr && row_ != nullptr;
  const DMat other =
      !both ? DMat{}
            : use(c, runtime::write,
                  col ? rchk_block(bi, bk) : cchk_block(bi, bk));
  const int chk_row0 = chk_strikes_ ? 2 * bi : -1;
  m_.launch(s,
            KernelDesc{names.verify, KernelClass::Compare,
                       4LL * (col ? blk.cols : blk.rows), 0},
            [this, blk, chk, other, scratch, col, both, attr, bi, bk,
             rflops, chk_row0, iter] {
              const ConstMatrixView<double> sums_view(scratch.view());
              const VerifyOutcome out =
                  col ? verify_block(blk.view(), chk.view(), sums_view,
                                     Tolerance{})
                      : verify_block_rows(blk.view(), chk.view(), sums_view,
                                          Tolerance{});
              if (both && !out.corrections.empty()) {
                const ConstMatrixView<double> data(blk.view());
                if (col) {
                  encode_block_rows(data, other.view());
                } else {
                  encode_block(data, other.view());
                }
              }
              tel_.block_verified(out, attr, iter, bi, bk, rflops, off(bi),
                                  blk.rows, off(bk), blk.cols, chk_row0);
              absorb(out);
            });
}

void Driver::record(const runtime::TaskContext& c, Mode mode,
                    const DMat& region) const {
  if (region.rows <= 0 || region.cols <= 0) return;
  if (region.buf == &d_scratch_) {
    // Verify slots are 2·b consecutive doubles.
    const std::int64_t last =
        region.off + static_cast<std::int64_t>(region.cols - 1) * region.ld +
        region.rows - 1;
    for (std::int64_t s = region.off / (2 * b_); s <= last / (2 * b_); ++s) {
      c.tiles.record(mode(stile(static_cast<int>(s))));
    }
    return;
  }
  // The matrix and T are tiled b x b, and a checksum block is
  // kChecksumRows rows (column sums) or columns (row sums) of b.
  int space = kTileData;
  int tile_rows = b_;
  int tile_cols = b_;
  if (region.buf == &d_cchk_) {
    space = kTileCchk;
    tile_rows = kChecksumRows;
  } else if (region.buf == &d_rchk_) {
    space = kTileRchk;
    tile_cols = kChecksumRows;
  } else if (region.buf == &d_t_) {
    space = kTileT;
  } else {
    FTLA_CHECK_MSG(region.buf == &d_a_, "a step used an untiled buffer");
  }
  const auto row = static_cast<int>(region.off % region.ld);
  const auto col = static_cast<int>(region.off / region.ld);
  for (int k = col / tile_cols; k <= (col + region.cols - 1) / tile_cols;
       ++k) {
    for (int i = row / tile_rows; i <= (row + region.rows - 1) / tile_rows;
         ++i) {
      c.tiles.record(mode({space, i, k}));
    }
  }
}

// ----------------------------------------------------------------------
// Fault hooks
// ----------------------------------------------------------------------

namespace {

const char* hook_name(fault::FaultType type, fault::Op op) {
  static constexpr const char* kNames[2][4] = {
      {"hook_computing_syrk", "hook_computing_gemm", "hook_computing_potf2",
       "hook_computing_trsm"},
      {"hook_storage_syrk", "hook_storage_gemm", "hook_storage_potf2",
       "hook_storage_trsm"}};
  return kNames[type == fault::FaultType::Storage ? 1 : 0]
               [static_cast<int>(op)];
}

}  // namespace

void Driver::hook(fault::FaultType type, fault::Op op, int j) {
  if (injector_ == nullptr) return;
  if (g_ == nullptr) {
    fire(type, op, j);
    return;
  }
  // Hooks issue no machine work: the empty footprint keeps them out of
  // the dependency structure while insertion order fixes when they fire.
  runtime::TaskOptions opts;
  opts.phase = obs::Phase::Base;
  opts.iteration = j;
  opts.where = runtime::Where::Inline;
  g_->add_task(hook_name(type, op), {},
               [this, type, op, j](const runtime::TaskContext&) {
                 fire(type, op, j);
               },
               opts);
}

void Driver::fire(fault::FaultType type, fault::Op op, int j) {
  for (const fault::FaultSpec& spec : injector_->take(type, op, j)) {
    apply_fault(spec, j);
  }
}

void Driver::apply_fault(const fault::FaultSpec& spec, int j) {
  if (!m_.numeric()) return;
  const auto [bi, bk] = fault_target(spec, j);
  FTLA_CHECK(bi >= 0 && bi < nb_ && bk >= 0 && bk < nb_);
  // Computing errors perturb an output element; storage errors flip bits
  // of an element at rest, in the data or (where the scheme allows it)
  // in the stored checksums.
  const bool storage = spec.type != fault::FaultType::Computing;
  int row = 0;
  int col = 0;
  double* p = nullptr;
  if (storage && spec.target_checksum && ft_ && chk_strikes_) {
    row = 2 * bi + (spec.elem_row & 1);
    col = off(bk) + std::min(spec.elem_col, bs(bk) - 1);
    p = stored_checksum(row, col);
  } else {
    row = off(bi) + std::min(spec.elem_row, bs(bi) - 1);
    col = off(bk) + std::min(spec.elem_col, bs(bk) - 1);
    p = d_a_.data() + static_cast<std::int64_t>(col) * n_ + row;
  }
  const double old_value = *p;
  if (storage) {
    for (int bit : spec.bits) *p = flip_bit(*p, bit);
  } else {
    *p = old_value + spec.magnitude * std::max(1.0, std::abs(old_value));
  }
  injector_->record(spec, old_value, *p, row, col);
}

}  // namespace ftla::abft
