// Telemetry: the one place the three factorization drivers (Cholesky,
// LU, QR) turn their fault-tolerance machinery into structured events
// and metrics.
//
// The recorder is deliberately passive — constructed with whatever the
// caller wired into the options (event sink, metrics registry, both or
// neither) and a no-op when nothing is attached and no injector is
// passed, so the drivers carry zero overhead in the common
// un-instrumented path. An injector alone still gets its clock and its
// detections matched: that is fault accounting, which must not depend
// on whether anyone watches.
//
// Responsibilities:
//   * mirror the Table-I verification counters into the metrics
//     registry at the *same program points* where the drivers update
//     CholeskyResult, so exports reconcile exactly;
//   * emit one Verification event per verified block (pass/fail,
//     attribution, recalc cost) from inside the verify kernel bodies;
//   * match a failed verification back to the pending fault injection
//     whose coordinates fall inside the verified block, stamp the
//     injector record, and emit a Detection event carrying the
//     detection latency (virtual time from injection to detection);
//   * emit Opt-2 placement decisions (with the model's predicted
//     costs), Opt-3 skips, corrections, checksum repairs, checkpoints,
//     rollbacks and reruns.
//
// Thread safety: a mutex serializes the recording methods, so kernels
// running on thread-pool workers may report through a shared Telemetry;
// the attached sink and injector are only ever touched under that lock.
// The pointers themselves are wired once at construction and immutable
// after, and the locking is annotated for clang's -Wthread-safety
// (docs/static-analysis.md).
#pragma once

#include <cstdint>

#include "abft/checksum.hpp"
#include "common/thread_annotations.hpp"
#include "abft/options.hpp"
#include "fault/fault.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

/// Histogram name for the injection-to-detection virtual-time gap.
inline constexpr const char* kDetectionLatencyMetric =
    "abft.detection_latency_s";

class Telemetry {
 public:
  /// All pointers optional and not owned. A non-null `injector` is
  /// wired to the machine's virtual clock (and to `sink`, if any), so
  /// injection records carry timestamps and dirty verifications are
  /// matched to them whether or not anything observes the run.
  /// `profile` is the profiler span store the driver tags
  /// phases/iterations on.
  Telemetry(sim::Machine& m, obs::EventSink* sink,
            obs::MetricsRegistry* metrics, fault::Injector* injector,
            obs::SpanStore* profile = nullptr,
            obs::TimeSeriesStore* timeseries = nullptr);

  [[nodiscard]] bool active() const noexcept {
    return sink_ != nullptr || metrics_ != nullptr ||
           timeseries_ != nullptr;
  }

  /// The attached profiler store (nullptr when profiling is off);
  /// drivers hand it to obs::PhaseScope around ABFT program phases.
  [[nodiscard]] obs::SpanStore* profile() const noexcept { return profile_; }

  /// Stamps the outer iteration subsequent profiler spans belong to
  /// (-1 = outside the factorization loop). No-op when unattached.
  void begin_iteration(int iteration) {
    if (profile_ != nullptr) profile_->set_iteration(iteration);
  }

  /// A verification batch was scheduled (issue time, both execution
  /// modes) — bumps the "abft.verify.<op>_blocks" counter that mirrors
  /// VerificationCounters.
  void verify_scheduled(fault::Op attr, std::size_t blocks);

  /// Opt 3 skipped a verification site this iteration.
  void verify_skipped(fault::Op attr, std::size_t blocks, int iteration);

  /// One block was verified (called from inside a verify body, Numeric
  /// mode). The block's global element range is rows [row0, row0+rows)
  /// x cols [col0, col0+cols); chk_row0 >= 0 additionally gives its row
  /// range [chk_row0, chk_row0+2) in checksum space for schemes whose
  /// faults can target stored checksums (-1 otherwise).
  void block_verified(const VerifyOutcome& out, fault::Op attr,
                      int iteration, int block_row, int block_col,
                      std::int64_t recalc_flops, int row0, int rows,
                      int col0, int cols, int chk_row0 = -1);

  /// Opt-2 decision, with the analytic model's predicted times.
  void placement_decided(UpdatePlacement requested, UpdatePlacement chosen,
                         double t_pick_gpu_s, double t_pick_cpu_s);

  void checkpoint_taken(int next_iteration);
  void rollback(int to_iteration);
  void rerun(int rerun_count, const char* reason);

 private:
  /// Oldest still-latent injection whose target lies in the given
  /// ranges; -1 when none. Reads the injector's records, so the caller
  /// must hold the recording lock.
  [[nodiscard]] std::int64_t match_injection(int row0, int rows, int col0,
                                             int cols, int chk_row0) const
      FTLA_REQUIRES(mu_);

  mutable common::Mutex mu_;
  sim::Machine& m_;
  obs::EventSink* const sink_;
  obs::MetricsRegistry* const metrics_;
  fault::Injector* const injector_;
  obs::SpanStore* const profile_;
  obs::TimeSeriesStore* const timeseries_;
  double last_detection_latency_ FTLA_GUARDED_BY(mu_) = 0.0;
};

}  // namespace ftla::abft
