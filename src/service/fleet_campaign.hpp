// Fleet-wide fault-campaign engine (docs/fleet.md).
//
// A *fleet scenario* is one service run end to end: an N-device fleet,
// a FIFO workload of factorization jobs, a device-fault plan (losses /
// stalls / degradations sampled against the workload's fault-free
// makespan) and optional element-level soft-error pressure. The engine
// runs the scenario twice —
//
//   1. a TimingOnly dry run of the same workload on a pristine twin
//      fleet, whose makespan is the horizon device faults are sampled
//      against (losses land mid-run, not after everything finished);
//   2. the Numeric run with the plan armed, classified per job.
//
// Per-job verdicts extend the service outcomes with the oracle's view:
// a job whose claimed success fails the independent residual check is
// `sdc`, whatever the service thought. The campaign-level invariants —
// what the CI smoke job and the certification test enforce — are:
//
//   * zero SDC: every claimed success has a clean residual;
//   * zero dropped jobs: every admitted job is accounted with exactly
//     one outcome, reconciled between summary, metrics and report.
//
// Determinism matches fault::run_campaign: scenarios are pre-drawn
// serially from the campaign seed, executed on a thread pool with a
// grain of 1, and merged in draw order, so a parallel campaign's
// summary is byte-identical to the serial one. A failing scenario is
// replayable from its one-line serialization (format_fleet_scenario):
// every random choice inside a scenario derives from its own seed.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace ftla::obs {
class SloEngine;
}  // namespace ftla::obs

namespace ftla::service {

/// Per-tenant accounting rollup (jobs, device-seconds, checkpoint
/// bytes, retries) — the campaign aggregates one per tenant name.
struct TenantUsage {
  long long jobs = 0;
  long long retries = 0;
  long long migrations = 0;
  double device_seconds = 0.0;
  long long checkpoint_bytes = 0;
};

/// Per-job verdict: the service outcome, overridden by the oracle.
enum class FleetVerdict {
  Completed,
  Migrated,
  Degraded,
  ExhaustedRetries,
  FailStop,
  Sdc,
};
inline constexpr int kFleetVerdictCount = 6;
[[nodiscard]] const char* to_string(FleetVerdict v);

/// One fleet-campaign scenario, fully seed-determined and replayable.
struct FleetScenario {
  int devices = 3;
  int link_capacity = 1;
  int jobs = 2;
  /// Device-fault plan shape (losses are capped at devices - 1).
  int loss_count = 1;
  int stall_count = 0;
  int degrade_count = 0;
  /// Job-size distribution: n = block * uniform[min_blocks, max_blocks].
  int block = 16;
  int min_blocks = 3;
  int max_blocks = 5;
  /// Soft-error pressure per job (<= 0 disables the arrival process).
  double mtbf_s = 0.0;
  int max_arrivals = 6;
  int max_retries = 3;
  /// Master seed: job shapes, matrix/fault seeds and the device-fault
  /// plan all derive from it.
  std::uint64_t seed = 1;
};

struct FleetScenarioResult {
  int jobs_admitted = 0;
  /// admitted - accounted; the zero-dropped invariant says 0, always.
  int dropped = 0;
  int sdc_jobs = 0;
  std::array<long long, kFleetVerdictCount> verdicts{};
  int device_losses = 0;
  int migrations = 0;
  int retries_spent = 0;
  long long faults_fired = 0;
  long long faults_detected = 0;
  /// Fault-free makespan of the dry run (the fault-sampling horizon).
  double horizon_s = 0.0;
  /// Makespan of the faulted numeric run.
  double makespan_s = 0.0;
  std::vector<JobResult> jobs;
  /// Per-tenant rollup of the numeric run.
  std::map<std::string, TenantUsage> tenants;
  /// Causal-trace spans of the numeric run (collect_trace only) — the
  /// campaign merges them into one store in draw order, so the merged
  /// trace is byte-identical serial vs parallel.
  std::vector<obs::TraceSpan> trace_spans;
};

/// Runs one fleet scenario end to end (dry horizon run + faulted run).
/// With collect_trace, the numeric run records causal-trace spans
/// (trace ids derived from the scenario seed + job sequence) into
/// FleetScenarioResult::trace_spans.
FleetScenarioResult run_fleet_scenario(const FleetScenario& sc,
                                       bool collect_trace = false);

struct FleetCampaignOptions {
  int scenarios = 500;
  std::uint64_t seed = 1;
  /// Scenario axes: fleet size, workload size, fault-plan shape.
  int min_devices = 2;
  int max_devices = 4;
  int min_jobs = 1;
  int max_jobs = 3;
  int max_losses = 2;
  /// Scenario-level parallelism (see fault::CampaignOptions::threads);
  /// the summary is bit-identical at every thread count.
  int threads = 1;
  /// Stop after this many scenarios (0 = run all); the completed prefix
  /// equals the same-seed full campaign's.
  int abort_after = 0;
};

/// Draws a randomized fleet scenario from the campaign distribution.
FleetScenario random_fleet_scenario(Rng& rng,
                                    const FleetCampaignOptions& opt);

/// A scenario that violated a campaign invariant, replayable as-is.
struct FleetCampaignFailure {
  FleetScenario scenario;
  FleetScenarioResult result;
  std::string reason;  ///< "sdc" or "dropped_jobs"
};

struct FleetCampaignSummary {
  int scenarios_run = 0;
  long long jobs_admitted = 0;
  long long sdc_jobs = 0;
  long long dropped_jobs = 0;
  std::array<long long, kFleetVerdictCount> verdicts{};
  long long device_losses = 0;
  long long migrations = 0;
  long long retries_spent = 0;
  long long faults_fired = 0;
  long long faults_detected = 0;
  std::map<std::string, TenantUsage> tenants;
  std::vector<FleetCampaignFailure> failures;
  bool aborted = false;

  [[nodiscard]] bool clean() const noexcept { return failures.empty(); }
};

/// Runs the fleet campaign. When `metrics` is given, totals, verdict
/// counters and per-tenant rollups are exported under "fleet.*" /
/// "tenant.*" (docs/fleet.md). `progress`, when non-null, receives one
/// line every `progress_every` scenarios from the draw-order merge, the
/// same at every thread count. When `trace` is given, every
/// scenario's numeric run records causal-trace spans, merged in draw
/// order — the merged trace is byte-identical at any thread count. When
/// `slo` is given, every drained job feeds it in draw order (virtual
/// end-time stamps), again thread-count independent.
FleetCampaignSummary run_fleet_campaign(const FleetCampaignOptions& opt,
                                        obs::MetricsRegistry* metrics = nullptr,
                                        std::ostream* progress = nullptr,
                                        int progress_every = 100,
                                        obs::TraceStore* trace = nullptr,
                                        obs::SloEngine* slo = nullptr);

/// One-line key=value serialization; round-trips via
/// parse_fleet_scenario, so a failing scenario replays byte-for-byte.
std::string format_fleet_scenario(const FleetScenario& sc);
bool parse_fleet_scenario(const std::string& text, FleetScenario* out,
                          std::string* error);

}  // namespace ftla::service
