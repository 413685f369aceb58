// Executor: issues a TaskGraph onto the simulator's streams.
//
// run_on_streams walks the tasks in insertion order, which is a
// topological order because every edge is inferred and points forward
// (graph.hpp). Each Device task runs on the least-loaded stream of the
// pool (tie: pool order) with stream_wait_event fences on its
// cross-stream predecessors, each Host task syncs its device
// predecessors' events before running, and Inline tasks run with no
// machine interaction. Same-stream program order and the monotonic host
// clock make the remaining fences implicit. Bodies run eagerly at
// issue time (that is how the simulator executes numerics), so any
// topological issue order produces bit-identical numerics; the order
// only shapes virtual time. StreamRunOptions::schedule_seed draws a
// seeded random valid topological order instead — the
// schedule-permutation fuzzer's lever for testing exactly that
// equivalence-class property. Bodies may throw (verification tasks do
// on unrecoverable corruption); the exception unwinds out of the
// executor with span scopes restored.
//
// The executor honors an armed sanitizer (TaskGraph::
// set_access_tracker): it calls begin_run/begin_task and hands every
// body a recording TileAccessor via TaskContext::tiles — see
// sanitizer.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/graph.hpp"
#include "sim/machine.hpp"

namespace ftla::runtime {

struct StreamRunOptions {
  /// Stream pool for Device tasks; empty = {machine.default_stream()}.
  std::vector<sim::StreamId> streams;
  /// Optional span store: every span a task issues is stamped with the
  /// task's node id, phase and iteration (per-task-node attribution).
  obs::SpanStore* profile = nullptr;
  /// Optional `runtime.*` counters.
  obs::MetricsRegistry* metrics = nullptr;
  /// 0 = insertion order. Nonzero = issue in the seeded random
  /// topological order TaskGraph::random_schedule(seed) draws;
  /// numerics stay bit-identical (eager-at-issue bodies), only the
  /// virtual-time shape and fence counts may change.
  std::uint64_t schedule_seed = 0;
  /// Optional causal tracing (docs/observability.md): with a store and
  /// a valid context, every executed task records one TraceSpan under
  /// trace_ctx.span_id, its id derived from the node id (so the same
  /// graph traces to the same ids at any schedule). Device spans cover
  /// the task's stream-end window, Host spans the host-clock window,
  /// Inline tasks record zero-duration markers.
  obs::TraceStore* trace = nullptr;
  obs::TraceContext trace_ctx;
};

struct StreamRunStats {
  int tasks = 0;
  int device_tasks = 0;
  int host_tasks = 0;
  int inline_tasks = 0;
  std::int64_t edges = 0;
  /// Cross-stream event fences issued (same-stream edges are free).
  std::int64_t stream_waits = 0;
  /// Host-side event syncs issued for Host-task predecessors.
  std::int64_t host_syncs = 0;
  /// Fences skipped because the producer had already retired (its
  /// stream end never exceeded the consumer's) — each saves one host
  /// call of overhead without changing any timestamp.
  std::int64_t waits_elided = 0;
  /// Host syncs skipped because the producer ended at or before the
  /// current host clock.
  std::int64_t syncs_elided = 0;
};

/// Issues every task onto `machine`; rethrows task-body exceptions.
StreamRunStats run_on_streams(const TaskGraph& graph, sim::Machine& machine,
                              const StreamRunOptions& opts = {});

}  // namespace ftla::runtime
