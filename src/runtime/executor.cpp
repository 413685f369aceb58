#include "runtime/executor.hpp"

#include <cstddef>

#include "runtime/sanitizer.hpp"

namespace ftla::runtime {

StreamRunStats run_on_streams(const TaskGraph& graph, sim::Machine& machine,
                              const StreamRunOptions& opts) {
  // Empty = insertion order, which needs no table.
  const std::vector<int> order =
      opts.schedule_seed != 0 ? graph.random_schedule(opts.schedule_seed)
                              : std::vector<int>{};
  std::vector<sim::StreamId> pool = opts.streams;
  if (pool.empty()) pool.push_back(machine.default_stream());

  AccessTracker* tracker = graph.access_tracker();
  if (tracker != nullptr) tracker->begin_run(graph);

  StreamRunStats stats;
  stats.tasks = graph.size();
  stats.edges = graph.edge_count();

  // Per node: its completion event, the stream it was recorded on, and
  // the producer stream's end time at issue (-1 event = no event: Host
  // and Inline tasks order via the host clock, and terminal Device tasks
  // skip the record — the caller's final sync covers them).
  //
  // Wait elision: every stream_wait_event / record_event costs one host
  // call (profile.host_call_overhead_s), and dense iterations produce
  // tasks with dozens of predecessors that are long retired. A wait is
  // a timing no-op whenever the producer's kernels ended at or before
  // the consumer stream's current end — the event's host-clock
  // component is always dominated by the consumer's own (monotonically
  // later) issue time — so those waits are skipped instead of issued.
  struct Issued {
    sim::EventId event = -1;
    sim::StreamId stream = -1;
    double end = 0.0;
  };
  std::vector<Issued> issued(static_cast<std::size_t>(graph.size()));

  const bool tracing = opts.trace != nullptr && opts.trace_ctx.valid();

  for (int i = 0; i < graph.size(); ++i) {
    const int id = order.empty() ? i : order[static_cast<std::size_t>(i)];
    const TaskOptions& task = graph.options(id);
    if (opts.profile != nullptr) opts.profile->set_iteration(task.iteration);
    obs::TaskScope task_scope(opts.profile, id);
    obs::PhaseScope phase_scope(opts.profile, task.phase);

    if (tracker != nullptr) tracker->begin_task(id);
    TaskContext ctx;
    ctx.task = id;
    ctx.tiles = TileAccessor{tracker, id};
    double span_begin = 0.0;
    double span_end = 0.0;
    switch (task.where) {
      case Where::Inline:
        ++stats.inline_tasks;
        span_begin = machine.host_now();
        graph.run(id, ctx);
        span_end = span_begin;
        break;
      case Where::Host: {
        ++stats.host_tasks;
        for (const int p : graph.preds(id)) {
          const Issued& pred = issued[static_cast<std::size_t>(p)];
          // A host/inline pred has no event: the host clock orders us.
          if (pred.event < 0) continue;
          if (pred.end <= machine.host_now()) {
            ++stats.syncs_elided;
            continue;
          }
          machine.sync_event(pred.event);
          ++stats.host_syncs;
        }
        span_begin = machine.host_now();
        graph.run(id, ctx);
        span_end = machine.host_now();
        break;
      }
      case Where::Device: {
        ++stats.device_tasks;
        const sim::StreamId s = machine.least_loaded_stream(pool);
        double s_end = machine.stream_end(s);
        for (const int p : graph.preds(id)) {
          const Issued& pred = issued[static_cast<std::size_t>(p)];
          // A host/inline pred has no event: the host clock orders us.
          if (pred.event < 0) continue;
          if (pred.stream == s) continue;  // FIFO order
          if (pred.end <= s_end) {
            ++stats.waits_elided;
            continue;
          }
          machine.stream_wait_event(s, pred.event);
          s_end = machine.stream_end(s);
          ++stats.stream_waits;
        }
        ctx.stream = s;
        span_begin = s_end;
        graph.run(id, ctx);
        span_end = machine.stream_end(s);
        Issued& mine = issued[static_cast<std::size_t>(id)];
        if (graph.has_successor(id)) mine.event = machine.record_event(s);
        mine.stream = s;
        mine.end = span_end;
        break;
      }
    }
    if (tracing) {
      obs::record_span(
          opts.trace, opts.trace_ctx,
          obs::derive_span_id(
              opts.trace_ctx.span_id,
              obs::kTraceTaskChildBase + static_cast<std::uint64_t>(id)),
          opts.trace_ctx.span_id, graph.name(id), "task", span_begin,
          span_end, "ok");
    }
  }
  if (opts.profile != nullptr) opts.profile->set_iteration(-1);

  if (opts.metrics != nullptr) {
    opts.metrics->add_counter("runtime.tasks", stats.tasks);
    opts.metrics->add_counter("runtime.tasks_device", stats.device_tasks);
    opts.metrics->add_counter("runtime.tasks_host", stats.host_tasks);
    opts.metrics->add_counter("runtime.tasks_inline", stats.inline_tasks);
    opts.metrics->add_counter("runtime.edges", stats.edges);
    opts.metrics->add_counter("runtime.stream_waits", stats.stream_waits);
    opts.metrics->add_counter("runtime.host_syncs", stats.host_syncs);
    opts.metrics->add_counter("runtime.waits_elided", stats.waits_elided);
    opts.metrics->add_counter("runtime.syncs_elided", stats.syncs_elided);
    if (tracker != nullptr) {
      opts.metrics->add_counter("runtime.sanitize.accesses",
                                tracker->accesses());
      opts.metrics->add_counter(
          "runtime.sanitize.violations",
          static_cast<long long>(tracker->violations().size()));
    }
  }
  return stats;
}

}  // namespace ftla::runtime
