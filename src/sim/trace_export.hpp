// Trace export for the simulated node.
//
// A Machine with an obs::SpanStore attached (Machine::set_span_store)
// records every kernel, host task and DMA transfer with its virtual
// start/end times. These helpers turn that record into:
//   * Chrome tracing JSON ("catapult" format) — open in
//     chrome://tracing or https://ui.perfetto.dev to see the GPU
//     streams, copy engines and host lane as a real timeline, including
//     how POTF2 hides under the trailing GEMM and how Opt-1's recalc
//     kernels fan out across streams.
//   * a compact per-lane ASCII utilization summary for terminals.
// Telemetry events captured through the obs layer can be merged into
// the same timeline: semantic events (fault injections, verifications,
// detections, corrections, placement decisions, recovery) appear as
// instant events on their lane, and each injection -> detection ->
// correction chain is connected with Chrome flow arrows keyed by the
// injection id, so a fault's latency window is visible as an arrow
// across the timeline.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/span.hpp"

namespace ftla::sim {

/// Writes the spans as Chrome tracing JSON merged with telemetry
/// events: semantic events become instant events ("ph":"i") with their
/// fields as args, and correlated fault chains become flow arrows
/// ("ph":"s"/"t"/"f"). Kernel/copy/sync events from the obs stream are
/// skipped — the spans already provide those. With no events, the file
/// holds the spans and the counter tracks alone.
void write_chrome_trace(const obs::SpanStore& spans,
                        const std::vector<obs::Event>& events,
                        std::ostream& os);

/// Convenience: writes the JSON to a file; returns false on I/O error.
bool write_chrome_trace_file(const obs::SpanStore& spans,
                             const std::vector<obs::Event>& events,
                             const std::string& path);

/// Prints a per-lane summary (op count, busy time, utilization over
/// [0, makespan]) plus an ASCII occupancy strip per lane.
void print_trace_summary(const obs::SpanStore& spans, double makespan,
                         std::ostream& os, int strip_width = 72);

/// One resource's occupancy over virtual time: (time, level) after
/// every change, in time order.
using OccupancySteps = std::vector<std::pair<double, long long>>;

/// The step functions behind the Chrome counter tracks and the
/// timeseries.sim.* series (sim/profiler.hpp), derived from the spans'
/// start/end deltas in a canonical sorted order.
struct Occupancy {
  OccupancySteps sm_units;       ///< SM units held by kernels and d2d
  OccupancySteps h2d_copies;     ///< copies in flight on the H2D engine
  OccupancySteps d2h_copies;     ///< copies in flight on the D2H engine
  OccupancySteps verifications;  ///< recalc* / verify* spans in flight
};

[[nodiscard]] Occupancy derive_occupancy(const std::vector<obs::Span>& spans);

}  // namespace ftla::sim
