// Public configuration and result types for the fault-tolerant
// factorization drivers.
#pragma once

#include <cstdint>
#include <string>

#include "abft/checksum.hpp"
#include "common/matrix.hpp"
#include "obs/trace.hpp"

namespace ftla::obs {
class EventSink;
class MetricsRegistry;
class SpanStore;
class TimeSeriesStore;
}  // namespace ftla::obs

namespace ftla::abft {

/// Which fault-tolerance scheme the driver runs.
enum class Variant {
  NoFt,           ///< plain MAGMA-style hybrid Cholesky (baseline)
  Offline,        ///< Huang & Abraham: encode once, verify at the end
  Online,         ///< post-update verification (FT-ScaLAPACK style)
  EnhancedOnline  ///< this paper: pre-reference verification + Opts 1-3
};

[[nodiscard]] const char* to_string(Variant v);

/// Where checksum *updating* executes (paper Opt 2).
enum class UpdatePlacement {
  Blocking,  ///< on the compute stream (the un-optimized baseline)
  Gpu,       ///< separate GPU stream, overlapped via concurrent kernels
  Cpu,       ///< host-side mirror updated by the otherwise-idle CPU
  /// Pick Gpu/Cpu with the paper's performance model under
  /// RuntimeMode::Bulk; Gpu under RuntimeMode::Dag, whose graph does not
  /// model the host mirror (dag_refusal in abft/cholesky.hpp).
  Auto
};

[[nodiscard]] const char* to_string(UpdatePlacement p);

/// How the driver recovers when verification finds unrecoverable
/// corruption (or positive definiteness breaks).
enum class Recovery {
  /// Restart the whole factorization (the paper's behaviour — what the
  /// 2x columns of Tables VII/VIII measure).
  Rerun,
  /// Roll back to a periodic on-device snapshot and resume from there
  /// (composing ABFT with checkpointing, the paper's citation [11]).
  /// Offline-ABFT ignores this: its end-of-run detection cannot tell
  /// which checkpoint predates the corruption.
  Checkpoint,
};

[[nodiscard]] const char* to_string(Recovery r);

/// Which execution structure the driver uses (docs/runtime.md).
enum class RuntimeMode {
  /// Paper Algorithm 1: bulk-synchronous iterations, verification
  /// batches fenced against all prior compute. The conformance oracle.
  Bulk,
  /// Dependency-driven task graph (src/runtime): the same kernels as
  /// first-class task nodes with inferred RAW/WAR/WAW edges, scheduled
  /// with cross-iteration lookahead so trailing updates, checksum
  /// updates and per-block verifications overlap. Bit-identical to
  /// Bulk fault-free; strictly shorter simulated makespan. The
  /// Cholesky driver refuses the configurations the graph does not
  /// model (CPU-side checksum mirror, checkpoint recovery, panel
  /// checkpoints; dag_refusal in abft/cholesky.hpp) instead of running
  /// them bulk.
  Dag,
};

[[nodiscard]] const char* to_string(RuntimeMode m);

/// Host-side panel checkpoint for resumable factorization (fleet
/// device-loss recovery, docs/fleet.md). Left-looking blocked Cholesky
/// never rewrites a block column after its own iteration retires it,
/// and columns right of the current panel stay pristine until their
/// iteration — so the completed panel columns alone reconstruct the
/// full mid-run state: re-upload the pristine input, overwrite columns
/// [0, iterations*block) with the stored slab, re-encode checksums, and
/// continue the outer loop at `iterations`. The panels were verified
/// before they retired (that is the ABFT invariant), so checkpointing
/// them costs one D2H copy per cadence and zero extra verification.
struct PanelCheckpoint {
  int n = 0;
  int block = 0;
  /// Completed outer iterations covered by `columns` (block columns).
  int iterations = 0;
  /// n x n column-major store; columns [0, iterations*block) are valid.
  Matrix<double> columns;

  void reset() noexcept { iterations = 0; }
  /// True when the stored slab can seed a resume of an (n_, block_) run.
  [[nodiscard]] bool usable(int n_, int block_) const noexcept {
    return iterations > 0 && n == n_ && block == block_;
  }
};

/// The options every factorization driver takes (Cholesky, LU, QR).
struct DriverOptions {
  /// Fault-tolerance scheme. LU and QR implement NoFt and EnhancedOnline.
  Variant variant = Variant::EnhancedOnline;

  /// Block size B; 0 selects the machine profile's MAGMA default.
  int block_size = 0;

  /// Opt 3: verify GEMM/TRSM inputs only every K-th outer iteration.
  /// SYRK inputs are always verified (errors entering the diagonal block
  /// are unrecoverable). K = 1 verifies everything every iteration.
  int verify_interval = 1;

  /// Opt 1: run checksum-recalculation kernels concurrently on the
  /// device's concurrent-kernel limit of streams. When false, they
  /// serialize on the compute stream.
  bool concurrent_recalc = true;

  /// How many times an unrecoverable corruption may trigger a full
  /// restart before the driver gives up.
  int max_reruns = 2;

  /// Execution structure: bulk-synchronous (the oracle) or the
  /// dependency-driven task-graph runtime.
  RuntimeMode runtime = RuntimeMode::Bulk;
  /// RuntimeMode::Dag only: 0 = insertion order; nonzero =
  /// issue the DAG in the seeded random topological order drawn by
  /// TaskGraph::random_schedule. The schedule-permutation fuzzer's
  /// knob — numerics are bit-identical for every seed.
  std::uint64_t dag_schedule_seed = 0;

  /// Observability hooks (optional, not owned). When set, the driver
  /// emits structured telemetry events (verifications, detections,
  /// corrections, placement decisions, recovery) and mirrors the
  /// Table-I verification counters into the registry. See
  /// docs/observability.md for the event taxonomy and metric names.
  obs::EventSink* event_sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  /// Profiler span store (optional, not owned). Wire the same store
  /// into Machine::set_span_store so machine spans and driver
  /// phase/iteration tags meet in one place (docs/observability.md,
  /// "Simulated-time profiler").
  obs::SpanStore* profile = nullptr;

  /// Time-series store (optional, not owned): the telemetry layer
  /// samples verification progress and detection latencies over
  /// virtual time into it (docs/observability.md, "Analytics &
  /// postmortems").
  obs::TimeSeriesStore* timeseries = nullptr;
};

struct CholeskyOptions : DriverOptions {
  /// Opt 2: placement of checksum updating.
  UpdatePlacement placement = UpdatePlacement::Auto;

  /// Recovery strategy on unrecoverable corruption.
  Recovery recovery = Recovery::Rerun;
  /// Iterations between device snapshots (Recovery::Checkpoint).
  int checkpoint_interval = 8;

  /// Transfer-fault hardening (fault campaigns; off by default so the
  /// verification counts of the paper's Table I are unchanged). Adds
  /// two verifications per run path that close the PCIe windows the
  /// in-loop scheme cannot see: an arrival check of the diagonal block
  /// (and its checksum rows) on the host after the D2H staging copy and
  /// before POTF2 consumes it, and — on the last block column, where no
  /// TRSM re-reads the factor block — one device-side verification
  /// after the factor's return H2D copy.
  bool transfer_guard = false;

  /// Causal-trace store + context (optional, not owned). With both set,
  /// the driver records a "factorize" span under trace_ctx.span_id,
  /// one "pass" span per execution attempt (reruns included), resume
  /// markers, per-checkpoint-save spans carrying the D2H byte count,
  /// and — in RuntimeMode::Dag — one span per DAG task node
  /// (docs/observability.md, "Causal tracing & SLOs").
  obs::TraceStore* trace = nullptr;
  obs::TraceContext trace_ctx;

  /// Panel-checkpoint store (optional, not owned; Numeric mode only,
  /// RuntimeMode::Bulk only).
  /// Every `checkpoint_interval` completed iterations the driver
  /// appends the newly retired panel columns to it; when the store
  /// already matches (n, block) and holds iterations > 0, the run
  /// *resumes* after those iterations instead of starting cold — the
  /// fleet service hands a dead device's checkpoint to the retry on a
  /// surviving device (docs/fleet.md).
  PanelCheckpoint* panel_checkpoint = nullptr;
};

/// Instrumented verification counts, one row of the paper's Table I.
struct VerificationCounters {
  long long potf2_blocks = 0;
  long long trsm_blocks = 0;
  long long syrk_blocks = 0;
  long long gemm_blocks = 0;

  [[nodiscard]] long long total() const noexcept {
    return potf2_blocks + trsm_blocks + syrk_blocks + gemm_blocks;
  }
};

struct CholeskyResult {
  bool success = false;
  /// Total virtual time, including any recovery reruns.
  double seconds = 0.0;
  /// Useful-work rate n^3/3 / seconds, in GFLOP/s.
  double gflops = 0.0;

  int errors_detected = 0;
  int errors_corrected = 0;
  int checksum_repairs = 0;
  /// Full restarts performed after unrecoverable corruption.
  int reruns = 0;
  /// Checkpoint rollbacks performed (Recovery::Checkpoint).
  int rollbacks = 0;
  /// Outer iterations skipped by seeding from a panel checkpoint
  /// (options.panel_checkpoint); 0 for a cold start.
  int resumed_iterations = 0;
  /// Bytes streamed into the panel checkpoint (D2H), all saves summed.
  std::int64_t checkpoint_bytes = 0;
  /// True when an injected fault slipped past the scheme (possible for
  /// NoFt / Offline / Online under storage errors — the paper's point).
  bool fail_stop_observed = false;

  VerificationCounters verified;
  UpdatePlacement chosen_placement = UpdatePlacement::Gpu;
  std::string note;
};

}  // namespace ftla::abft
