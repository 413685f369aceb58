// Simulated-time profiler spans: the raw material of profile reports.
//
// A Span is one completed simulated activity — kernel, host task or DMA
// copy — with its virtual-time window, the resource lane it occupied
// (stream, copy engine or host CPU), its modeled cost, and two profiler
// attributions stamped at record time:
//   * an ABFT phase (checksum encoding / recalculation / updating /
//     verification / recovery, or base factorization work), derived
//     from the kernel name and, for neutrally-named work such as the
//     checksum-strip GEMMs or staging copies, from a driver-pushed
//     phase scope (abft::Telemetry / PhaseScope);
//   * the driver's outer iteration (-1 outside the factorization loop).
//
// The store is fed by sim::Machine (see Machine::set_span_store) and is
// the machine's one record of what ran: profiles, the Chrome trace, the
// trace summary and the occupancy series all read it. It is
// deliberately sim-agnostic: the kernel class arrives as its string
// name so obs keeps no dependency on sim headers. Everything is virtual
// time; nothing here reads a wall clock, so identical runs produce
// identical spans — the byte-stability contract of profile reports
// rests on this.
//
// Thread safety: mutators are serialized by an internal mutex (kernels
// may be issued while thread-pool workers report telemetry), annotated
// for clang's -Wthread-safety. snapshot() copies under the same lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/event.hpp"

namespace ftla::obs {

/// ABFT phase attribution, mirroring the paper's overhead decomposition
/// (Tables II-VI): base factorization work vs. the five ABFT costs.
enum class Phase {
  Base,     ///< the factorization itself (POTF2/TRSM/SYRK/GEMM, staging)
  Encode,   ///< initial checksum encoding (Algorithm 1 prologue)
  Recalc,   ///< checksum recalculation before a verification
  Update,   ///< checksum updating alongside the trailing update (Opt 2)
  Verify,   ///< recalculated-vs-stored comparison (incl. final sweeps)
  Recover,  ///< checkpoints, rollbacks and rerun re-uploads
};

[[nodiscard]] const char* to_string(Phase p);

/// Name-based phase classification, shared by every driver: kernel
/// naming is a cross-layer convention ("encode_*", "recalc_*",
/// "verify*", "ckpt_*"/"restore_*", "*chk*"), and anything neutral is
/// Base — which a surrounding PhaseScope may override at record time.
[[nodiscard]] Phase classify_span_name(const std::string& name);

struct Span {
  EventKind kind = EventKind::Kernel;  ///< Kernel, HostTask or Copy
  std::string name;  ///< kernel/copy label ("syrk", "h2d_2d", ...)
  std::string cls;   ///< sim::KernelClass name ("blas3", "host_potf2", ...)
  int lane = 0;      ///< stream id, or kHostLane/kH2dLane/kD2hLane
  double start = 0.0;  ///< virtual seconds
  double end = 0.0;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
  int units = 0;  ///< SM units occupied (kernels)
  Phase phase = Phase::Base;
  int iteration = -1;
  /// Task-graph node that issued this span (-1 = outside a task). With
  /// the DAG runtime, iterations interleave in virtual time, so the
  /// task node — not the iteration — is the unit that partitions work.
  int task = -1;
};

class SpanStore {
 public:
  /// Default cap on retained spans: long TimingOnly sweeps issue
  /// millions of operations, so recording stops at the cap and further
  /// spans are only counted.
  static constexpr std::size_t kDefaultLimit = 1u << 20;

  explicit SpanStore(std::size_t limit = kDefaultLimit) : limit_(limit) {}

  /// Records one completed activity. The phase is classified from
  /// `name`; a Base result is overridden by the innermost active
  /// PhaseScope, and the current iteration is stamped.
  void record(EventKind kind, const std::string& name, const char* cls,
              int lane, double start, double end, std::int64_t flops,
              std::int64_t bytes, int units);

  /// Driver tagging (normally via abft::Telemetry): the outer iteration
  /// subsequent spans belong to (-1 = outside the loop).
  void set_iteration(int iteration);
  /// Task-graph tagging (normally via runtime::TaskScope): the graph
  /// node subsequent spans belong to. Returns the previous value so a
  /// scope can restore it.
  int set_task(int task);
  void push_phase(Phase p);
  void pop_phase();

  /// Retained spans in record order (copy taken under the lock).
  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::size_t size() const;
  /// Spans discarded because the store was at its cap.
  [[nodiscard]] std::size_t dropped() const;
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }

 private:
  mutable common::Mutex mu_;
  const std::size_t limit_;
  std::vector<Span> spans_ FTLA_GUARDED_BY(mu_);
  std::vector<Phase> phase_stack_ FTLA_GUARDED_BY(mu_);
  int iteration_ FTLA_GUARDED_BY(mu_) = -1;
  int task_ FTLA_GUARDED_BY(mu_) = -1;
  std::size_t dropped_ FTLA_GUARDED_BY(mu_) = 0;
};

/// Null-safe RAII phase override: spans recorded while the scope lives
/// and classified Base by name are attributed to `p` instead. Scopes
/// nest; the innermost wins.
class PhaseScope {
 public:
  PhaseScope(SpanStore* store, Phase p) : store_(store) {
    if (store_ != nullptr) store_->push_phase(p);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    if (store_ != nullptr) store_->pop_phase();
  }

 private:
  SpanStore* store_;
};

/// Null-safe RAII task attribution: spans recorded while the scope
/// lives carry `task` as their graph-node id. Restores the previous
/// task on exit (scopes nest, the innermost wins), including during
/// exception unwind — verification tasks may throw at issue time.
class TaskScope {
 public:
  TaskScope(SpanStore* store, int task) : store_(store) {
    if (store_ != nullptr) prev_ = store_->set_task(task);
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;
  ~TaskScope() {
    if (store_ != nullptr) store_->set_task(prev_);
  }

 private:
  SpanStore* store_;
  int prev_ = -1;
};

}  // namespace ftla::obs
