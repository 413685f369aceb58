// Resilient factorization service over a simulated device fleet
// (docs/fleet.md).
//
// The service owns a deterministic FIFO queue of factorization jobs and
// drives them to completion on a sim::Fleet under device-level faults:
//
//   * placement    — least-loaded: the device with the earliest virtual
//                    clock (lowest id tie-break) among devices not yet
//                    discovered lost;
//   * checkpoints  — the ABFT driver streams completed panel columns
//                    into a host-side abft::PanelCheckpoint every
//                    kCheckpointInterval iterations (host memory, so it
//                    survives the device);
//   * migration    — a sim::DeviceLostError unwinding out of a job
//                    marks the device lost and re-places the job on a
//                    surviving device, resuming from the checkpoint
//                    instead of restarting cold;
//   * retry        — re-placements after mid-run losses are bounded
//                    (max_retries) with deterministic exponential
//                    backoff on the virtual clock;
//   * degradation  — jobs admitted on an already-shrunken fleet report
//                    the Degraded outcome; devices marked degraded run
//                    with an elevated per-device soft-error rate
//                    (fault::FaultProcess rate multiplier).
//
// Every decision is emitted through the observability layer
// (obs::EventKind::Note events, service.* / fleet.* metrics), and every
// admitted job ends in exactly one JobOutcome — the zero-dropped-jobs
// invariant the fleet campaign certifies (fleet_campaign.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "abft/options.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"

namespace ftla::obs {
class EventSink;
class FlightRecorder;
class MetricsRegistry;
class SloEngine;
}  // namespace ftla::obs

namespace ftla::service {

/// One factorization request. Everything is seeded, so a job (and the
/// whole service run) is deterministic and replayable.
struct JobSpec {
  int id = 0;
  int n = 64;
  int block = 16;
  std::uint64_t matrix_seed = 1;
  /// Accounting principal. Empty = untenanted (no tenant.* metrics).
  std::string tenant;
  /// Causal-trace context (docs/observability.md). Zero trace_id +
  /// tracing enabled on the service = derive one from
  /// ServiceOptions::trace_seed and the admission sequence.
  obs::TraceContext trace;

  abft::Variant variant = abft::Variant::EnhancedOnline;
  abft::Recovery recovery = abft::Recovery::Rerun;
  abft::UpdatePlacement placement = abft::UpdatePlacement::Auto;
  int verify_interval = 1;
  /// Close the PCIe windows so stochastic transfer faults stay
  /// detectable (the fleet campaign's zero-SDC invariant needs it).
  bool transfer_guard = true;
  bool ecc = false;

  /// Soft-error pressure while the job runs: mean time between faults
  /// in virtual seconds (<= 0 disables the arrival process). Degraded
  /// devices multiply the arrival rate per fault::ProcessConfig.
  double mtbf_s = 0.0;
  std::uint64_t fault_seed = 1;
  int max_arrivals = 8;

  [[nodiscard]] int nblocks() const { return (n + block - 1) / block; }
};

/// Exactly one per admitted job (the zero-dropped invariant).
enum class JobOutcome {
  Completed,        ///< finished on the first device it started on
  Migrated,         ///< lost >= 1 device mid-run, finished elsewhere
  Degraded,         ///< admitted on a shrunken fleet, still finished
  ExhaustedRetries, ///< device losses outran the retry budget
  FailStop,         ///< the factorization itself failed (honest failure)
};
inline constexpr int kJobOutcomeCount = 5;
[[nodiscard]] const char* to_string(JobOutcome o);

struct JobResult {
  int job_id = 0;
  JobOutcome outcome = JobOutcome::FailStop;
  bool success = false;
  /// Independent oracle residual (Numeric mode; NaN in TimingOnly).
  double residual = 0.0;
  /// Oracle disagreed with a claimed success — silent data corruption.
  bool sdc = false;

  int attempts = 0;    ///< factorization attempts actually started
  int device = -1;     ///< device of the final attempt
  int migrations = 0;  ///< mid-run device losses survived
  /// Outer iterations the final attempt skipped by resuming from the
  /// panel checkpoint (0 = cold start).
  int resumed_iterations = 0;

  double submit_time = 0.0;  ///< virtual admission instant
  double start_time = 0.0;   ///< first attempt's start
  double end_time = 0.0;     ///< completion (or give-up) instant
  /// Queue + service latency on the virtual clock.
  [[nodiscard]] double latency() const noexcept {
    return end_time - submit_time;
  }
  /// Virtual seconds of the final attempt (driver-reported makespan).
  double seconds = 0.0;

  int faults_fired = 0;  ///< element-level faults landed (all attempts)
  int faults_detected = 0;
  int reruns = 0;
  int rollbacks = 0;
  std::string note;

  std::string tenant;          ///< copied from the spec (accounting key)
  obs::TraceId trace_id = 0;   ///< 0 when tracing was off
  /// Device-occupancy seconds across every attempt (virtual clock):
  /// the per-tenant device-seconds accounting unit.
  double device_seconds = 0.0;
  /// Bytes streamed into the host panel checkpoint, all attempts.
  std::int64_t checkpoint_bytes = 0;
};

/// Panel-checkpoint cadence in outer iterations (also the driver's
/// device-snapshot cadence for Recovery::Checkpoint).
inline constexpr int kCheckpointInterval = 2;

struct ServiceOptions {
  /// Re-placements allowed after mid-run device losses; attempt count
  /// is bounded by 1 + max_retries.
  int max_retries = 3;
  /// When false, retries restart cold (no panel checkpoint is kept) —
  /// the baseline the recovered-makespan acceptance test compares
  /// against.
  bool checkpoint_resume = true;

  /// Observability hooks (optional, not owned). The sink also receives
  /// each attempt's driver events (injections, verifications,
  /// detections, corrections); the registry stays service-level.
  obs::EventSink* event_sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Causal-trace store; with it set, every job records a span tree
  /// (submit → queue → attempts → driver → complete) and propagates its
  /// context into the ABFT driver (docs/observability.md).
  obs::TraceStore* trace = nullptr;
  /// Seed trace ids derive from (with the admission sequence) when a
  /// submitted spec does not carry one.
  std::uint64_t trace_seed = 1;
  /// SLO engine fed one record per drained job (availability, latency,
  /// zero-SDC), evaluated on the virtual clock.
  obs::SloEngine* slo = nullptr;
  /// Flight recorder for breadcrumbs along the recovery paths
  /// (place → device_lost → migrate → resume), reconcilable with the
  /// postmortem bundle.
  obs::FlightRecorder* recorder = nullptr;
};

class FactorizationService {
 public:
  FactorizationService(sim::Fleet& fleet, ServiceOptions options);

  /// Admits a job at the current fleet instant (FIFO order).
  void submit(JobSpec spec);
  [[nodiscard]] int queued() const noexcept {
    return static_cast<int>(queue_.size());
  }

  /// Arms a device-fault plan (fail-stop / stall / degrade) on the
  /// fleet. Degrade specs take effect immediately; losses and stalls
  /// fire when a device's clock reaches them.
  void apply(const std::vector<fault::DeviceFaultSpec>& plan);

  /// Runs every queued job to completion, in admission order. Returns
  /// one JobResult per admitted job — drained jobs are never dropped,
  /// whatever the fleet does.
  std::vector<JobResult> drain();

 private:
  struct QueuedJob {
    JobSpec spec;
    double submit_time = 0.0;
  };

  JobResult run_job(const JobSpec& spec, double submit_time);
  /// Least-loaded usable device, or -1 when the whole fleet is lost.
  [[nodiscard]] int pick_device() const;
  /// Records the scheduler-side discovery of a device loss (idempotent).
  void discover_loss(int device, double time, int job_id,
                     const char* where);
  void note(double time, const std::string& name,
            const std::string& detail);
  void counter(const std::string& name, long long delta);
  /// Per-tenant accounting folded after each drained job.
  void account(const JobResult& r);

  sim::Fleet& fleet_;
  ServiceOptions opt_;
  std::deque<QueuedJob> queue_;
  int admitted_ = 0;
  /// Running per-tenant device-seconds, exported as gauges at drain end
  /// (counters are integral; occupancy is a double).
  std::map<std::string, double> tenant_device_seconds_;
};

}  // namespace ftla::service
