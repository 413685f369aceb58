#include "sim/profiler.hpp"

#include <map>
#include <string>

#include "sim/trace_export.hpp"

namespace ftla::sim {

obs::ProfileReport build_profile(const Machine& machine,
                                 const obs::SpanStore& spans, int top_k) {
  const SimStats& stats = machine.stats();
  std::map<std::string, obs::ResourceProfile> resources;
  resources["gpu_sm"] = obs::ResourceProfile{
      machine.gpu_busy_sm_seconds(),
      static_cast<double>(machine.profile().sm_count +
                          machine.profile().coexec_spare_units)};
  resources["h2d_engine"] = obs::ResourceProfile{stats.h2d_seconds, 1.0};
  resources["d2h_engine"] = obs::ResourceProfile{stats.d2h_seconds, 1.0};
  resources["host_cpu"] = obs::ResourceProfile{stats.host_busy_seconds, 1.0};
  return obs::build_profile(spans.snapshot(), machine.makespan(), resources,
                            spans.dropped(), top_k);
}

void append_machine_timeseries(const obs::SpanStore& spans, double makespan,
                               obs::TimeSeriesStore* out) {
  const Occupancy occ = derive_occupancy(spans.snapshot());
  const auto series = [&](const char* name, const OccupancySteps& steps) {
    if (steps.empty()) return;
    for (const auto& [t, level] : steps) {
      out->sample_gauge(name, t, static_cast<double>(level));
    }
    // Close the series at the makespan so the final (idle) level is
    // visible in the last rollup window.
    if (steps.back().first < makespan) {
      out->sample_gauge(name, makespan,
                        static_cast<double>(steps.back().second));
    }
  };
  series("timeseries.sim.sm_units_in_use", occ.sm_units);
  series("timeseries.sim.h2d_copies_in_flight", occ.h2d_copies);
  series("timeseries.sim.d2h_copies_in_flight", occ.d2h_copies);
  series("timeseries.sim.outstanding_verifications", occ.verifications);
}

}  // namespace ftla::sim
