// The shared core of the three fault-tolerant factorization drivers
// (Cholesky, LU, QR).
//
// Each driver writes its iteration once. Every kernel, copy and host
// task in it goes through step():
//
//   * with no graph (RuntimeMode::Bulk — the paper's Algorithm 1 and
//     the conformance oracle), the step runs at once on the stream it
//     names;
//   * with a graph (RuntimeMode::Dag), the step becomes a task with the
//     footprint it declares, placed by the executor (docs/runtime.md).
//
// Inside an iteration the only branches on the runtime are bulk's
// Algorithm-1 fences, each a single machine call. Everything the drivers
// share lives here: block geometry, device buffers, streams and the
// upload; the retry ladder and its trace spans; the Table-I counters;
// verification sites (a fenced bulk batch, or one DAG task per block on
// a rotating scratch slot); the fault hooks and their element
// mutations; and running the graph under the footprint sanitizer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "abft/options.hpp"
#include "abft/telemetry.hpp"
#include "common/matrix.hpp"
#include "fault/fault.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/graph.hpp"
#include "runtime/sanitizer.hpp"
#include "sim/device_matrix.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

/// Block coordinates (block_row, block_col) in the block grid.
using BlockId = std::pair<int, int>;

/// Kernel names of one checksum side: its encode, recalc and compare
/// kernels. The compare name also names the side's DAG verify task.
struct SumNames {
  const char* encode;
  const char* recalc;
  const char* verify;
};

class Driver {
 public:
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
  virtual ~Driver() = default;

  /// Allocates, uploads, and runs passes under the retry ladder.
  CholeskyResult execute();

 protected:
  /// `name` labels sanitizer reports; the useful work is
  /// `flop_multiple`·n³/3 flops; `col` / `row` name the checksum sides
  /// the algorithm keeps (nullptr = none).
  Driver(sim::Machine& m, Matrix<double>* a, int n, const DriverOptions& opt,
         fault::Injector* injector, const char* name, double flop_multiple,
         const SumNames* col, const SumNames* row);

  // ---- what each algorithm supplies ----------------------------------
  virtual void allocate() = 0;
  /// One attempt: encode, iterate, sweep, then finish_pass().
  virtual void run_once() = 0;
  /// The block a fault spec strikes when it leaves one unspecified.
  [[nodiscard]] virtual BlockId fault_target(const fault::FaultSpec& spec,
                                             int j) const = 0;
  /// Uploads the pristine input (the start of every pass).
  virtual void upload();
  /// Fetches the factor after a successful run (Numeric mode).
  virtual void download();
  /// Where stored checksum element (row, col) lives, for storage faults
  /// that strike checksums (only when `chk_strikes_`).
  [[nodiscard]] virtual double* stored_checksum(int row, int col);
  /// Compares a recalculated batch on the host (only when
  /// `host_compare_`); `used` is the batch's scratch extent in doubles.
  virtual void compare_on_host(const std::vector<BlockId>& blocks,
                               fault::Op attr, std::int64_t used);

  // ---- geometry ------------------------------------------------------
  [[nodiscard]] int bs(int i) const { return std::min(b_, n_ - i * b_); }
  [[nodiscard]] int off(int i) const { return i * b_; }
  /// Rectangular region of the data matrix in element coordinates.
  [[nodiscard]] sim::DMat data_region(int row, int col, int rows, int cols) {
    return sim::DMat{&d_a_, static_cast<std::int64_t>(col) * n_ + row, rows,
                     cols, n_};
  }
  [[nodiscard]] sim::DMat data_block(int i, int k) {
    return data_region(off(i), off(k), bs(i), bs(k));
  }
  /// Column checksums of block (i, k): 2 rows of the (2nb x n) matrix.
  [[nodiscard]] sim::DMat cchk_block(int i, int k) {
    return cchk_strip(i, i + 1, off(k), bs(k));
  }
  /// Column-checksum rows of block-rows [i0, i1) over element columns
  /// [col, col+cols).
  [[nodiscard]] sim::DMat cchk_strip(int i0, int i1, int col, int cols) {
    return sim::DMat{&d_cchk_,
                     static_cast<std::int64_t>(col) * (2 * nb_) + 2 * i0,
                     2 * (i1 - i0), cols, 2 * nb_};
  }
  /// Row checksums of block (i, k): 2 columns of the (n x 2nb) matrix.
  [[nodiscard]] sim::DMat rchk_block(int i, int k) {
    return rchk_strip(off(i), bs(i), k, k + 1);
  }
  /// Row-checksum columns of block-columns [k0, k1) over element rows
  /// [row, row+rows).
  [[nodiscard]] sim::DMat rchk_strip(int row, int rows, int k0, int k1) {
    return sim::DMat{&d_rchk_, static_cast<std::int64_t>(2 * k0) * n_ + row,
                     rows, 2 * (k1 - k0), n_};
  }

  // Tile namespaces for dependency inference: data blocks, column and
  // row checksum blocks, the QR T factor, the reused host staging
  // buffer (one tile, so cross-iteration reuse hazards serialize), and
  // recalc scratch slots.
  enum TileSpace : int { kTileData = 0, kTileCchk, kTileRchk, kTileT,
                         kTileHost, kTileScratch };
  [[nodiscard]] static runtime::TileKey dtile(int i, int k) {
    return {kTileData, i, k};
  }
  [[nodiscard]] static runtime::TileKey ctile(int i, int k) {
    return {kTileCchk, i, k};
  }
  [[nodiscard]] static runtime::TileKey rtile(int i, int k) {
    return {kTileRchk, i, k};
  }
  [[nodiscard]] static runtime::TileKey ttile() { return {kTileT, 0, 0}; }
  [[nodiscard]] static runtime::TileKey htile() { return {kTileHost, 0, 0}; }
  [[nodiscard]] static runtime::TileKey stile(int slot) {
    return {kTileScratch, slot, 0};
  }

  // ---- what a step body uses -----------------------------------------
  /// An operand's access mode: runtime::read, runtime::write or
  /// runtime::rw.
  using Mode = runtime::Footprint (*)(runtime::TileKey);
  /// A step body passes every device region it hands to a kernel or a
  /// copy through use(), with that operand's mode, and gets the region
  /// back. Under an armed sanitizer it records each tile the region
  /// covers, which the tracker checks against the step's footprint;
  /// otherwise it costs a pointer test.
  sim::DMat use(const runtime::TaskContext& c, Mode mode,
                const sim::DMat& region) const {
    if (c.tiles.armed()) record(c, mode, region);
    return region;
  }
  /// The host staging buffers are one tile (htile()): a host step
  /// records it, and a copy records its host side `host`, which it
  /// returns.
  double* staging(const runtime::TaskContext& c, Mode mode,
                  double* host = nullptr) const {
    if (c.tiles.armed()) c.tiles.record(mode(htile()));
    return host;
  }

  // ---- passes and steps ----------------------------------------------
  [[nodiscard]] bool bulk() const { return g_ == nullptr; }

  /// The footprint buffer a step's builder appends to.
  using Footprints = std::vector<runtime::Footprint>;

  /// One step of an iteration, written once for both runtimes. Bulk: the
  /// body runs now on `stream` under `opts.phase`. DAG: it becomes a
  /// task with the footprint `fp(Footprints&)` appends to an emptied,
  /// reused buffer. `fp` runs only while a graph is built, so it may
  /// capture by reference; `body` must capture by value, because the
  /// graph runs it later. `name` must have static storage (graph.hpp).
  template <class Fp, class Body>
  void step(const char* name, Fp&& fp, Body&& body,
            const runtime::TaskOptions& opts, sim::StreamId stream) {
    if (g_ != nullptr) {
      fp_.clear();
      fp(fp_);
      g_->add_task(name, fp_, std::forward<Body>(body), opts);
      return;
    }
    const obs::PhaseScope phase(tel_.profile(), opts.phase);
    runtime::TaskContext c;
    c.stream = stream;
    body(c);
  }

  /// Creates the streams: s_chk_ and the recalc pool when FT is on,
  /// s_xfer_ when `xfer`. Checksum updates go to s_chk_ by default.
  void create_streams(bool xfer);
  /// Initial checksum encode of every block (or the lower triangle).
  void encode(bool lower);
  /// Marks the outer iteration (-1 = outside the loop) for telemetry.
  void begin_iteration(int j) {
    cur_iter_ = j;
    tel_.begin_iteration(j);
  }
  /// DAG: issues the graph built so far; the rest of the pass runs as
  /// bulk does. No-op in bulk or once issued.
  void run_graph();
  /// Ends a pass: issues any pending graph, syncs the machine, and fails
  /// the pass if the armed sanitizer found a violation.
  void finish_pass();

  // ---- verification --------------------------------------------------
  /// Which checksum side a verification recomputes.
  enum class Sums { Col, Row };
  /// The list a verification site fills: one reused buffer, emptied
  /// (and seeded with block (i, k) when given), so issuing a site
  /// allocates nothing once the buffer has grown.
  [[nodiscard]] std::vector<BlockId>& block_list() {
    blocks_.clear();
    return blocks_;
  }
  [[nodiscard]] std::vector<BlockId>& block_list(int i, int k) {
    block_list().emplace_back(i, k);
    return blocks_;
  }
  /// A verification site. Bulk: one batch fenced against all compute
  /// and checksum updates so far (paper Algorithm 1). DAG: one task per
  /// block that waits only on that block's writers.
  void verify(const std::vector<BlockId>& blocks, fault::Op attr,
              Sums sums = Sums::Col);
  /// Bumps the Table-I counter and its metric mirror at issue time.
  void count_verified(fault::Op attr, std::size_t blocks);
  /// Adds a verification's outcome to the result; throws on
  /// uncorrectable damage.
  void absorb(const VerifyOutcome& out);

  // ---- faults --------------------------------------------------------
  /// Fires the injector's (type, op, j) faults at this program point.
  /// DAG: an Inline task with an empty footprint, so insertion order
  /// alone fixes when it fires.
  void hook(fault::FaultType type, fault::Op op, int j);
  /// Applies one fault to the element it strikes.
  void apply_fault(const fault::FaultSpec& spec, int j);

  /// Turns on causal tracing: a "factorize" span under `ctx`, one
  /// "pass" span per attempt, and one span per DAG task.
  void enable_tracing(obs::TraceStore* store, const obs::TraceContext& ctx);

  sim::Machine& m_;
  Matrix<double>* a_;
  int n_;
  const DriverOptions& opt_;
  fault::Injector* injector_;
  Telemetry tel_;
  int b_ = 0;
  int nb_ = 0;
  bool ft_ = false;
  /// Outer iteration being issued; -1 outside the loop (encode, sweeps).
  int cur_iter_ = -1;
  /// Outer iteration a resumed run starts at (panel checkpoints).
  int resume_from_ = 0;
  /// Storage faults may strike the stored column checksums.
  bool chk_strikes_ = false;
  /// Bulk batches compare on the host (compare_on_host) instead of on
  /// the device.
  bool host_compare_ = false;

  sim::DeviceBuffer d_a_;
  sim::DeviceBuffer d_cchk_;  ///< column checksums, 2nb x n
  sim::DeviceBuffer d_rchk_;  ///< row checksums, n x 2nb
  sim::DeviceBuffer d_scratch_;
  std::int64_t scratch_capacity_ = 0;  ///< doubles
  sim::DeviceBuffer d_t_;  ///< QR's block reflector factor T (b x b)
  Matrix<double> pristine_;  ///< host copy of the input, for reruns

  sim::StreamId s_compute_ = 0;
  sim::StreamId s_chk_ = 0;
  sim::StreamId s_xfer_ = 0;
  /// Where checksum updates run; verification batches fence on it.
  sim::StreamId s_update_ = 0;
  std::vector<sim::StreamId> s_recalc_;

  obs::TraceStore* trace_ = nullptr;  ///< null = tracing off
  obs::TraceContext trace_ctx_;
  obs::SpanId trace_factorize_ = 0;  ///< the driver's root span id
  obs::SpanId trace_pass_ = 0;       ///< current pass span id

  CholeskyResult result_;

 private:
  void run_pass();
  /// Ends a failed pass: reruns, or gives up with `prefix` + what().
  /// Returns true when the ladder is done.
  bool retry(const Error& e, const char* prefix, const char* reason);
  void fire(fault::FaultType type, fault::Op op, int j);
  void issue_verify(const runtime::TaskContext& c, int bi, int bk,
                    fault::Op attr, Sums sums, std::int64_t pos, int iter);
  /// Records the tiles `region` covers with `mode` (see use()).
  void record(const runtime::TaskContext& c, Mode mode,
              const sim::DMat& region) const;
  [[nodiscard]] std::vector<sim::StreamId> dag_streams() const;

  const char* name_;
  double flop_multiple_;
  const SumNames* col_;
  const SumNames* row_;
  bool xfer_ = false;
  double trace_pass_start_ = 0.0;
  int trace_pass_count_ = 0;

  std::vector<BlockId> blocks_;  ///< see block_list()
  Footprints fp_;  ///< the footprint of the task being added, reused
  runtime::TaskGraph* g_ = nullptr;  ///< the pass's graph; null = bulk
  /// Round-robin scratch-slot cursor for DAG verify tasks (each slot is
  /// 2·b doubles; slot reuse serializes through the slot tile).
  std::int64_t slot_ = 0;
  runtime::AccessTracker tracker_;
  const runtime::TaskGraph* sanitized_ = nullptr;  ///< issued, tracker armed
};

}  // namespace ftla::abft
