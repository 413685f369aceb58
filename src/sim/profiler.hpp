// Simulator-side profile assembly: marries a SpanStore snapshot with
// the Machine's resource accounting (SM pool busy unit-seconds, copy
// engine seconds, host busy seconds) and hands both to the obs
// analyzer. Lives in sim because obs must not depend on sim headers —
// the analyzer sees resources as plain named capacities.
//
// Wiring convention (mirrors the event-sink hooks): the caller creates
// one obs::SpanStore, attaches it with Machine::set_span_store() AND
// passes it to the driver options (CholeskyOptions::profile etc.) so
// driver phase/iteration tags and machine spans land in the same store.
#pragma once

#include "obs/profile_report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"

namespace ftla::sim {

/// Analyzes one finished run: call after the factorization returns.
/// Resources reported: "gpu_sm" (the SM pool, capacity sm_count +
/// coexec_spare_units), "h2d_engine"/"d2h_engine" (one DMA engine
/// each), "host_cpu" (one CPU doing modeled host work).
[[nodiscard]] obs::ProfileReport build_profile(const Machine& machine,
                                               const obs::SpanStore& spans,
                                               int top_k = 12);

/// Derives resource-occupancy gauge series from a finished run's spans
/// and appends them to `out` (the step functions of the Chrome-trace
/// counter tracks, sim/trace_export.hpp): timeseries.sim.sm_units_in_use,
/// timeseries.sim.h2d_copies_in_flight,
/// timeseries.sim.d2h_copies_in_flight and
/// timeseries.sim.outstanding_verifications, each sampled at every
/// level change and closed with a final sample at `makespan`.
void append_machine_timeseries(const obs::SpanStore& spans, double makespan,
                               obs::TimeSeriesStore* out);

}  // namespace ftla::sim
