// Stochastic fault-campaign engine with an independent SDC oracle.
//
// A *scenario* is one factorization run under fault: an algorithm
// (Cholesky / LU / QR), a scheme variant, a recovery policy, a matrix,
// and a fault load — either a stochastic Poisson process (process.hpp)
// or an explicit planned FaultSpec list (deterministic replay). The
// engine runs scenarios end to end and classifies each with an oracle
// that does NOT trust the scheme's own claims: it reconstructs the
// factorization product against the pristine input (cholesky_residual /
// lu_residual / qr_residual) and calls anything that passed with a bad
// residual `sdc` — silent data corruption, the failure mode the paper's
// Enhanced Online-ABFT exists to eliminate.
//
// Verdicts (exactly one per scenario):
//   corrected   — finished, clean residual, no recovery escalation
//                 (in-place correction or no effective fault)
//   rolled_back — finished clean but used >= 1 checkpoint rollback
//   rerun       — finished clean but needed >= 1 full restart
//   fail_stop   — did not produce a result (the honest failure mode)
//   sdc         — produced a WRONG result claimed as success
//
// On an unexpected verdict (sdc for the guarded variant, or fail_stop
// with zero faults fired) the campaign shrinks the scenario: the
// stochastic run's injection records give a deterministic planned twin,
// which is then greedily minimized (drop faults, reduce bit widths,
// canonicalize elements) while it still reproduces the verdict. The
// result is a replayable plan, printable with format_scenario and
// loadable with parse_scenario.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "abft/options.hpp"
#include "common/exit_codes.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace ftla::fault {

// Exit-code contract shared by every CLI tool; canonical definitions
// live in common/exit_codes.hpp (re-exported here for existing users).
using common::kExitFailStop;
using common::kExitIoError;
using common::kExitSdc;
using common::kExitSuccess;
using common::kExitUsage;

enum class Algo { Cholesky, Lu, Qr };
enum class Verdict { Corrected, RolledBack, Rerun, FailStop, Sdc };
inline constexpr int kVerdictCount = 5;

[[nodiscard]] const char* to_string(Algo a);
[[nodiscard]] const char* to_string(Verdict v);

/// The variant carrying the zero-SDC invariant: any sdc verdict for it
/// is a campaign failure (and gets shrunk).
inline constexpr abft::Variant kGuardedVariant =
    abft::Variant::EnhancedOnline;

/// One fault-campaign run, fully self-describing and replayable.
struct Scenario {
  Algo algo = Algo::Cholesky;
  abft::Variant variant = abft::Variant::EnhancedOnline;
  abft::Recovery recovery = abft::Recovery::Rerun;
  abft::UpdatePlacement placement = abft::UpdatePlacement::Gpu;
  /// Execution structure (docs/runtime.md): bulk-synchronous oracle or
  /// the dependency-driven task-graph runtime. Dag scenarios put the
  /// graph drivers under the same fault load and SDC oracle as bulk.
  abft::RuntimeMode runtime = abft::RuntimeMode::Bulk;
  int n = 64;
  int block = 16;
  int verify_interval = 1;
  int checkpoint_interval = 4;
  std::uint64_t matrix_seed = 1;
  bool transfer_guard = false;
  bool ecc = false;
  /// Stochastic load: mean time between faults in virtual seconds;
  /// <= 0 disables the arrival process (planned-only scenario).
  double mtbf_s = 0.0;
  std::uint64_t fault_seed = 1;
  int max_arrivals = 8;
  /// Planned faults (replay / shrinking); may be combined with mtbf_s.
  std::vector<FaultSpec> plan;

  [[nodiscard]] int nblocks() const { return (n + block - 1) / block; }
};

struct ScenarioResult {
  Verdict verdict = Verdict::FailStop;
  bool success = false;
  /// The oracle's residual; NaN/Inf count as corrupt.
  double residual = 0.0;
  /// Virtual makespan of the run (simulated seconds).
  double seconds = 0.0;
  int faults_fired = 0;
  int faults_detected = 0;
  int ecc_absorbed = 0;
  int transfer_faults = 0;
  long long errors_corrected = 0;
  int rollbacks = 0;
  int reruns = 0;
  /// Concrete specs of every fired fault, in firing order: running them
  /// as `plan` (with the process disabled) is the scenario's
  /// deterministic twin, the starting point for shrinking.
  std::vector<FaultSpec> fired_plan;
  /// Full injection records (inject/detect timestamps) for the same
  /// faults, for per-fault triage of a replayed scenario.
  std::vector<InjectionRecord> records;
  std::string note;
};

/// Runs one scenario end to end and classifies it with the oracle.
ScenarioResult run_scenario(const Scenario& sc);

struct CampaignOptions {
  int scenarios = 200;
  std::uint64_t seed = 1;
  /// Matrix sizes are multiples of the 16-wide block drawn from
  /// [min_blocks, max_blocks]; a quarter of the scenarios run the LU/QR
  /// extensions (NoFt/EnhancedOnline, rerun recovery only).
  int min_blocks = 3;
  int max_blocks = 7;
  /// Share of scenarios running the task-graph runtime instead of the
  /// bulk oracle (docs/runtime.md). Cholesky dag draws pin placement to
  /// Gpu and recovery to rerun — the combinations the graph models — so
  /// every dag scenario genuinely exercises the graph path.
  double dag_share = 0.25;
  /// Shrink each failure (at most 64 scenario runs apiece).
  bool shrink_failures = true;
  /// Scenario-level parallelism (0 = all hardware threads). Scenarios
  /// run on common::run_draw_ordered: drawn serially from the campaign
  /// seed, executed on `threads` pool lanes and merged in draw order, so
  /// every per-scenario verdict, fired plan and the whole summary
  /// (including shrinking, which runs in the merge) is bit-identical at
  /// every thread count.
  int threads = 1;
  /// Retain one ScenarioObservation per scenario for cross-scenario
  /// analytics (analytics.hpp). Off by default: a large campaign's
  /// observations are only needed when --analytics-out is requested.
  bool collect_observations = false;
  /// Stop after this many scenarios (0 = run all). An aborted campaign
  /// is the deterministic "killed mid-flight" case: the completed
  /// prefix is identical to the same-seed full campaign's, and the
  /// summary is flagged `aborted` so callers exit nonzero and dump a
  /// postmortem bundle.
  int abort_after = 0;
};

/// Draws a randomized scenario (algorithm, variant, recovery, size,
/// fault load) from the campaign distribution.
Scenario random_scenario(Rng& rng, const CampaignOptions& opt);

struct CampaignFailure {
  Scenario scenario;        ///< deterministic twin of the failing run
  ScenarioResult result;    ///< the unexpected outcome
  Scenario shrunk;          ///< minimal reproducer (== scenario if the
                            ///< twin did not reproduce or shrinking off)
  bool reproduced = false;  ///< twin reproduced the verdict
  int shrink_runs = 0;
};

/// One detected fault's latency sample, tagged by fault type.
struct DetectionSample {
  FaultType type = FaultType::Computing;
  double latency_s = 0.0;
};

/// Per-scenario record kept (only when CampaignOptions::
/// collect_observations) for cross-scenario aggregation. Deliberately
/// small — the analytics layer wants distributions, not replays.
struct ScenarioObservation {
  Algo algo = Algo::Cholesky;
  abft::Variant variant = abft::Variant::EnhancedOnline;
  abft::Recovery recovery = abft::Recovery::Rerun;
  Verdict verdict = Verdict::FailStop;
  int n = 0;
  int block = 0;
  double seconds = 0.0;
  int faults_fired = 0;
  std::vector<DetectionSample> detections;
};

struct CampaignSummary {
  int scenarios_run = 0;
  long long faults_fired = 0;
  long long faults_detected = 0;
  long long ecc_absorbed = 0;
  long long transfer_faults = 0;
  /// Verdict histogram keyed "algo/variant", indexed by Verdict.
  std::map<std::string, std::array<long long, kVerdictCount>> verdicts;
  long long guarded_sdc = 0;           ///< sdc count for the guarded variant
  long long unexpected_fail_stop = 0;  ///< fail-stop with zero faults fired
  std::vector<CampaignFailure> failures;
  /// Per-scenario observations, in draw order (empty unless
  /// CampaignOptions::collect_observations).
  std::vector<ScenarioObservation> observations;
  /// The campaign stopped at CampaignOptions::abort_after before
  /// covering every drawn scenario.
  bool aborted = false;

  [[nodiscard]] bool clean() const noexcept { return failures.empty(); }
};

/// Runs the campaign. When `metrics` is given, verdict counters and
/// totals are exported under "campaign.*" (see docs/fault-model.md for
/// the report schema). `progress`, when non-null, receives one status
/// line every `progress_every` scenarios, printed from the draw-order
/// merge, so the lines are the same at every thread count.
CampaignSummary run_campaign(const CampaignOptions& opt,
                             obs::MetricsRegistry* metrics = nullptr,
                             std::ostream* progress = nullptr,
                             int progress_every = 100);

struct ShrinkOutcome {
  Scenario scenario;  ///< the minimal scenario found
  int runs = 0;       ///< scenario executions spent shrinking
};

/// Greedy ddmin-style minimizer: drops planned faults one at a time,
/// then narrows each survivor (single bit, canonical element, default
/// magnitude), keeping a candidate only when run_scenario still returns
/// `target`. `seed_scenario` must be a planned (deterministic) scenario
/// that already reproduces `target`.
ShrinkOutcome shrink_scenario(const Scenario& seed_scenario, Verdict target,
                              int max_runs = 64);

/// Human-readable AND machine-parsable scenario serialization: one
/// `scenario ...` header line plus one `fault ...` line per planned
/// fault. Round-trips through parse_scenario.
std::string format_scenario(const Scenario& sc);
bool parse_scenario(const std::string& text, Scenario* out,
                    std::string* error);

}  // namespace ftla::fault
