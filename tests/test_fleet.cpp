// Tests for the device-fleet simulator (sim::Fleet, device-level
// faults on sim::Machine) and the resilient factorization service
// (service::FactorizationService) — docs/fleet.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "service/fleet_campaign.hpp"
#include "service/service.hpp"
#include "sim/fleet.hpp"
#include "sim/profile.hpp"

namespace ftla {
namespace {

using service::FactorizationService;
using service::JobOutcome;
using service::JobResult;
using service::JobSpec;
using service::ServiceOptions;
using sim::DeviceLostError;
using sim::DeviceState;
using sim::ExecutionMode;
using sim::Fleet;
using sim::FleetProfile;
using sim::Machine;

FleetProfile small_fleet(int devices, int link_capacity = 1) {
  FleetProfile fp;
  fp.device = sim::test_rig();
  fp.devices = devices;
  fp.link_capacity = link_capacity;
  return fp;
}

// ----- device-level faults on a single Machine -----------------------

TEST(MachineFaults, FailStopThrowsFromTheArmedInstantOn) {
  Machine m(sim::test_rig(), ExecutionMode::TimingOnly);
  m.set_device_id(3);
  m.set_fail_at(1.0);
  m.host_advance(0.5);
  EXPECT_FALSE(m.lost());
  // Issued strictly before the instant: completes (in-flight work is
  // not clawed back), but the clock crosses the loss.
  m.host_advance(1.0);
  EXPECT_TRUE(m.lost());
  try {
    m.host_advance(0.1);
    FAIL() << "expected DeviceLostError";
  } catch (const DeviceLostError& e) {
    EXPECT_EQ(e.device(), 3);
    EXPECT_DOUBLE_EQ(e.at(), 1.0);
  }
  // The device stays dead: every further entry point throws too.
  EXPECT_THROW(m.sync_all(), DeviceLostError);
  EXPECT_THROW(m.alloc(8), DeviceLostError);
}

TEST(MachineFaults, StallWindowHoldsIssuedWorkUntilItCloses) {
  Machine m(sim::test_rig(), ExecutionMode::TimingOnly);
  m.add_stall(1.0, 2.0);
  m.host_advance(1.5);  // issued at t=0, lands inside the window
  m.host_advance(0.0);  // issued inside [1, 2): held until 2.0
  EXPECT_DOUBLE_EQ(m.host_now(), 2.0);
  // Past the window the device behaves normally again (no exception —
  // a stall is a hang, not a loss).
  m.host_advance(0.25);
  EXPECT_DOUBLE_EQ(m.host_now(), 2.25);
}

TEST(MachineFaults, ChainedStallWindowsApplyInOnePass) {
  Machine m(sim::test_rig(), ExecutionMode::TimingOnly);
  m.add_stall(2.0, 3.0);
  m.add_stall(1.0, 2.5);
  m.host_advance(1.2);
  m.host_advance(0.0);  // 1.2 -> 2.5 (first window) -> 3.0 (second)
  EXPECT_DOUBLE_EQ(m.host_now(), 3.0);
}

// ----- fleet clock / link / health bookkeeping ------------------------

TEST(FleetSim, SharedHostLinkSerializesSiblingTransfers) {
  // Two devices each issue one identical blocking H2D copy at t=0. With
  // one shared link slot the copies serialize; with two they overlap.
  const std::int64_t n = 1 << 20;
  auto upload_on_each = [&](int link_capacity) {
    Fleet fleet(small_fleet(2, link_capacity), ExecutionMode::TimingOnly);
    for (int d = 0; d < fleet.size(); ++d) {
      Machine& m = fleet.device(d);
      sim::DeviceBuffer buf = m.alloc(n);
      m.memcpy_h2d(buf, 0, nullptr, n, m.default_stream(),
                   /*blocking=*/true);
    }
    return fleet.makespan();
  };
  const double serialized = upload_on_each(1);
  const double overlapped = upload_on_each(2);
  EXPECT_GT(serialized, 1.5 * overlapped);
}

TEST(FleetSim, ClockIsTheLatestDeviceInstant) {
  Fleet fleet(small_fleet(3), ExecutionMode::TimingOnly);
  fleet.device(1).host_advance(2.0);
  fleet.device(2).host_advance(0.5);
  EXPECT_DOUBLE_EQ(fleet.now(), 2.0);
}

TEST(FleetSim, HealthBookkeeping) {
  Fleet fleet(small_fleet(3), ExecutionMode::TimingOnly);
  EXPECT_EQ(fleet.usable_count(), 3);
  EXPECT_EQ(fleet.state(0), DeviceState::Healthy);

  fleet.mark_degraded(1, 4.0);
  EXPECT_EQ(fleet.state(1), DeviceState::Degraded);
  EXPECT_DOUBLE_EQ(fleet.degrade_factor(1), 4.0);
  EXPECT_EQ(fleet.usable_count(), 3);  // degraded still serves jobs

  fleet.mark_lost(2);
  EXPECT_EQ(fleet.state(2), DeviceState::Lost);
  EXPECT_EQ(fleet.usable_count(), 2);
  EXPECT_EQ(fleet.losses_discovered(), 1);
  fleet.mark_lost(2);  // idempotent
  EXPECT_EQ(fleet.losses_discovered(), 1);

  fleet.arm_loss(0, 1.0);  // armed on the underlying machine
  fleet.device(0).host_advance(2.0);  // issued before the instant: lands
  EXPECT_THROW(fleet.device(0).host_advance(0.1), DeviceLostError);
}

// ----- the factorization service -------------------------------------

JobSpec basic_job(int n, int block = 16) {
  JobSpec spec;
  spec.id = 0;
  spec.n = n;
  spec.block = block;
  spec.matrix_seed = 12345;
  return spec;
}

/// Fault-free makespan of `spec` on a fresh single-device fleet — the
/// horizon device-loss instants are placed against. Measured without
/// panel checkpointing so a kill instant derived from it lands mid-run
/// whether or not the faulted run checkpoints (the checkpointed run is
/// strictly slower per iteration).
double fault_free_makespan(const JobSpec& spec) {
  Fleet fleet(small_fleet(1), ExecutionMode::Numeric);
  ServiceOptions so;
  so.checkpoint_resume = false;
  FactorizationService svc(fleet, so);
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs[0].success);
  return fleet.makespan();
}

TEST(Service, FaultFreeJobCompletesOnFirstDevice) {
  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  FactorizationService svc(fleet, ServiceOptions{});
  svc.submit(basic_job(96));
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].outcome, JobOutcome::Completed);
  EXPECT_TRUE(rs[0].success);
  EXPECT_EQ(rs[0].attempts, 1);
  EXPECT_EQ(rs[0].migrations, 0);
  EXPECT_EQ(rs[0].resumed_iterations, 0);
  EXPECT_FALSE(rs[0].sdc);
  EXPECT_LT(rs[0].residual, 1e-12);
}

TEST(Service, MidRunDeviceLossMigratesAndResumesFromPanelCheckpoint) {
  const JobSpec spec = basic_job(512);  // 32 outer iterations
  const double horizon = fault_free_makespan(spec);

  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  // Kill the device the job will start on (both clocks are 0; the
  // scheduler tie-breaks to device 0) deep into the factorization.
  fleet.arm_loss(0, 0.6 * horizon);
  FactorizationService svc(fleet, ServiceOptions{});
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();

  ASSERT_EQ(rs.size(), 1u);
  const JobResult& r = rs[0];
  EXPECT_EQ(r.outcome, JobOutcome::Migrated);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.device, 1);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.migrations, 1);
  // The retry seeded from the host-side panel checkpoint instead of
  // restarting cold: the loss at 0.6 * horizon postdates several
  // checkpoint cadences (interval 2 of 32 iterations).
  EXPECT_GT(r.resumed_iterations, 0);
  EXPECT_LT(r.resumed_iterations, 32);
  EXPECT_FALSE(r.sdc);
  EXPECT_LT(r.residual, 1e-12);
  EXPECT_EQ(fleet.losses_discovered(), 1);
  EXPECT_EQ(fleet.state(0), DeviceState::Lost);
}

TEST(Service, CheckpointResumeBeatsColdRerunAtScale) {
  // Acceptance bar (ISSUE 7): killing a device mid-Cholesky at n >= 1024
  // recovers from the last panel checkpoint, and the recovered run is
  // strictly cheaper than restarting cold.
  const JobSpec spec = basic_job(1024, 32);  // 32 outer iterations
  const double horizon = fault_free_makespan(spec);

  auto run_with_loss = [&](bool checkpoint_resume) {
    Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
    fleet.arm_loss(0, 0.7 * horizon);
    ServiceOptions so;
    so.checkpoint_resume = checkpoint_resume;
    FactorizationService svc(fleet, so);
    svc.submit(spec);
    const std::vector<JobResult> rs = svc.drain();
    EXPECT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0].outcome, JobOutcome::Migrated);
    EXPECT_TRUE(rs[0].success);
    EXPECT_FALSE(rs[0].sdc);
    if (checkpoint_resume) {
      EXPECT_GT(rs[0].resumed_iterations, 0);
    } else {
      EXPECT_EQ(rs[0].resumed_iterations, 0);
    }
    return fleet.makespan();
  };

  const double recovered = run_with_loss(true);
  const double cold = run_with_loss(false);
  EXPECT_LT(recovered, cold);
}

TEST(Service, LossBeforePlacementIsReplacementNotRetry) {
  // The device dies before the job would start there: discovering that
  // during placement costs no attempt and no retry budget.
  const JobSpec spec = basic_job(96);
  // Device 0 is least-loaded but already dead when the job is admitted
  // at t=1: the placement clock catch-up (not the factorization itself)
  // discovers the loss.
  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  fleet.device(0).host_advance(0.6);
  fleet.device(1).host_advance(1.0);
  fleet.arm_loss(0, 0.5);  // armed after the clock passed it: next op throws
  ServiceOptions so;
  so.max_retries = 0;  // any mid-run migration would exhaust retries
  FactorizationService svc(fleet, so);
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].outcome, JobOutcome::Completed);
  EXPECT_EQ(rs[0].attempts, 1);
  EXPECT_EQ(rs[0].migrations, 0);
  EXPECT_EQ(rs[0].device, 1);
  EXPECT_EQ(fleet.losses_discovered(), 1);
}

TEST(Service, LosingTheWholeFleetIsAnHonestFailStop) {
  const JobSpec spec = basic_job(96);
  Fleet fleet(small_fleet(1), ExecutionMode::Numeric);
  fleet.arm_loss(0, 0.0);  // dead on arrival
  FactorizationService svc(fleet, ServiceOptions{});
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].outcome, JobOutcome::FailStop);
  EXPECT_FALSE(rs[0].success);
  EXPECT_FALSE(rs[0].sdc);
}

TEST(Service, RetryBudgetExhaustsWhenEveryDeviceDies) {
  const JobSpec spec = basic_job(256);
  const double horizon = fault_free_makespan(spec);
  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  fleet.arm_loss(0, 0.3 * horizon);
  fleet.arm_loss(1, 0.3 * horizon);
  ServiceOptions so;
  so.max_retries = 1;
  FactorizationService svc(fleet, so);
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  // Both devices die mid-run: either the retry budget runs out or the
  // re-placement finds an empty fleet — never a dropped job, never a
  // claimed success.
  EXPECT_TRUE(rs[0].outcome == JobOutcome::ExhaustedRetries ||
              rs[0].outcome == JobOutcome::FailStop);
  EXPECT_FALSE(rs[0].success);
  EXPECT_GE(rs[0].migrations, 1);
  EXPECT_EQ(fleet.usable_count(), 0);
}

TEST(Service, JobsAdmittedOnAShrunkenFleetReportDegraded) {
  const JobSpec spec = basic_job(96);
  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  fleet.mark_lost(0);  // the fleet already lost a device
  FactorizationService svc(fleet, ServiceOptions{});
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].outcome, JobOutcome::Degraded);
  EXPECT_TRUE(rs[0].success);
  EXPECT_FALSE(rs[0].sdc);
}

TEST(Service, SharedLinkStaysPrunedAcrossJobsAndADeviceLoss) {
  // Every placement prunes the shared link to the earliest host clock
  // among devices that are not lost, so the link holds only the recent
  // transfers of the live devices however many jobs drain. Device 0
  // dies after a few jobs; its frozen clock must not pin the horizon.
  const JobSpec spec = basic_job(64);
  const double horizon = fault_free_makespan(spec);
  Fleet fleet(small_fleet(3, 2), ExecutionMode::Numeric);
  fleet.arm_loss(0, 2.5 * horizon);
  FactorizationService svc(fleet, ServiceOptions{});
  std::size_t first_job = 0;
  std::size_t most = 0;
  for (int id = 0; id < 60; ++id) {
    JobSpec job = spec;
    job.id = id;
    svc.submit(job);
    const std::vector<JobResult> rs = svc.drain();
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].success) << "job " << id;
    if (id == 0) first_job = fleet.link().breakpoints();
    most = std::max(most, fleet.link().breakpoints());
  }
  EXPECT_EQ(fleet.state(0), DeviceState::Lost);
  EXPECT_GT(first_job, 0u);
  EXPECT_LE(most, 4 * first_job);
}

// ----- deterministic-twin replay -------------------------------------

/// Field-by-field equality of two scenario results; doubles compare
/// exactly because the whole pipeline is seeded and wall-clock-free.
void expect_identical(const service::FleetScenarioResult& a,
                      const service::FleetScenarioResult& b) {
  EXPECT_EQ(a.jobs_admitted, b.jobs_admitted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.sdc_jobs, b.sdc_jobs);
  EXPECT_EQ(a.device_losses, b.device_losses);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.retries_spent, b.retries_spent);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.horizon_s, b.horizon_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  for (int v = 0; v < service::kFleetVerdictCount; ++v) {
    EXPECT_EQ(a.verdicts[static_cast<std::size_t>(v)],
              b.verdicts[static_cast<std::size_t>(v)]);
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].outcome, b.jobs[i].outcome);
    EXPECT_EQ(a.jobs[i].attempts, b.jobs[i].attempts);
    EXPECT_EQ(a.jobs[i].device, b.jobs[i].device);
    EXPECT_EQ(a.jobs[i].migrations, b.jobs[i].migrations);
    EXPECT_EQ(a.jobs[i].resumed_iterations, b.jobs[i].resumed_iterations);
    EXPECT_EQ(a.jobs[i].end_time, b.jobs[i].end_time);
    EXPECT_EQ(a.jobs[i].residual, b.jobs[i].residual);
    EXPECT_EQ(a.jobs[i].faults_fired, b.jobs[i].faults_fired);
  }
}

TEST(FleetReplay, DeviceLossScenarioReplaysIdentically) {
  // A loss-heavy scenario with soft-error pressure: replaying it must
  // reproduce the run exactly — outcomes, virtual times, residual bits.
  service::FleetScenario sc;
  sc.devices = 3;
  sc.jobs = 2;
  sc.loss_count = 2;
  sc.stall_count = 1;
  sc.degrade_count = 1;
  sc.min_blocks = 6;
  sc.max_blocks = 8;
  sc.mtbf_s = 5e-5;
  sc.seed = 987654321;
  const service::FleetScenarioResult once = service::run_fleet_scenario(sc);
  const service::FleetScenarioResult twice = service::run_fleet_scenario(sc);
  expect_identical(once, twice);
  EXPECT_EQ(once.jobs_admitted, 2);
  EXPECT_EQ(once.dropped, 0);
  EXPECT_EQ(once.sdc_jobs, 0);
}

TEST(FleetReplay, ScenarioFormatRoundTrips) {
  service::FleetScenario sc;
  sc.devices = 4;
  sc.link_capacity = 2;
  sc.jobs = 3;
  sc.loss_count = 2;
  sc.stall_count = 1;
  sc.degrade_count = 1;
  sc.block = 16;
  sc.min_blocks = 4;
  sc.max_blocks = 7;
  sc.mtbf_s = 3.141592653589793e-5;
  sc.max_arrivals = 9;
  sc.max_retries = 2;
  sc.seed = 0xdeadbeefULL;

  const std::string text = service::format_fleet_scenario(sc);
  service::FleetScenario back;
  std::string err;
  ASSERT_TRUE(service::parse_fleet_scenario(text, &back, &err)) << err;
  EXPECT_EQ(back.devices, sc.devices);
  EXPECT_EQ(back.link_capacity, sc.link_capacity);
  EXPECT_EQ(back.jobs, sc.jobs);
  EXPECT_EQ(back.loss_count, sc.loss_count);
  EXPECT_EQ(back.stall_count, sc.stall_count);
  EXPECT_EQ(back.degrade_count, sc.degrade_count);
  EXPECT_EQ(back.block, sc.block);
  EXPECT_EQ(back.min_blocks, sc.min_blocks);
  EXPECT_EQ(back.max_blocks, sc.max_blocks);
  EXPECT_EQ(back.mtbf_s, sc.mtbf_s);  // exact: printed at precision 17
  EXPECT_EQ(back.max_arrivals, sc.max_arrivals);
  EXPECT_EQ(back.max_retries, sc.max_retries);
  EXPECT_EQ(back.seed, sc.seed);
}

// ----- causal tracing along the recovery path -------------------------

const obs::TraceNode* find_child(const obs::TraceNode& node,
                                 const std::string& name, int nth = 0) {
  int seen = 0;
  for (const auto& child : node.children) {
    if (child.span->name == name && seen++ == nth) return &child;
  }
  return nullptr;
}

TEST(ServiceTrace, MidRunLossTraceReconstructsTheRecoveryChain) {
  // The tentpole acceptance path: a forced mid-run device loss must
  // leave a trace from which submit → place → loss → migrate → resume →
  // complete reconstructs with parentage intact across devices.
  const JobSpec base = basic_job(512);  // 32 outer iterations
  const double horizon = fault_free_makespan(base);

  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  fleet.arm_loss(0, 0.6 * horizon);
  obs::TraceStore trace;
  ServiceOptions so;
  so.trace = &trace;
  so.trace_seed = 99;
  FactorizationService svc(fleet, so);
  JobSpec spec = base;
  spec.tenant = "alpha";
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();

  ASSERT_EQ(rs.size(), 1u);
  const JobResult& r = rs[0];
  EXPECT_EQ(r.outcome, JobOutcome::Migrated);
  EXPECT_GT(r.resumed_iterations, 0);
  EXPECT_EQ(r.trace_id, obs::derive_trace_id(99, 0));
  EXPECT_EQ(r.tenant, "alpha");
  EXPECT_GT(r.device_seconds, 0.0);
  EXPECT_GT(r.checkpoint_bytes, 0);

  const obs::TraceReport report = obs::TraceReport::build(trace);
  const auto trees = obs::assemble_traces(report);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].trace_id, r.trace_id);
  EXPECT_EQ(trees[0].missing_parents, 0);
  ASSERT_EQ(trees[0].roots.size(), 1u);
  const obs::TraceNode& job = trees[0].roots[0];
  EXPECT_EQ(job.span->kind, "job");
  EXPECT_EQ(job.span->tenant, "alpha");
  EXPECT_EQ(job.span->parent_span, 0u);

  ASSERT_NE(find_child(job, "submit"), nullptr);
  ASSERT_NE(find_child(job, "queue"), nullptr);

  // First attempt on device 0 ends in the loss; its driver span closes
  // with "loss" too (the unwind must not orphan open spans).
  const obs::TraceNode* first = find_child(job, "attempt", 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->span->device, 0);
  EXPECT_EQ(first->span->status, "loss");
  ASSERT_NE(find_child(*first, "place"), nullptr);
  ASSERT_NE(find_child(*first, "loss"), nullptr);
  const obs::TraceNode* lost_drv = find_child(*first, "factorize");
  ASSERT_NE(lost_drv, nullptr);
  EXPECT_EQ(lost_drv->span->status, "loss");

  const obs::TraceNode* migrate = find_child(job, "migrate");
  ASSERT_NE(migrate, nullptr);
  EXPECT_NE(migrate->span->detail.find("from=0"), std::string::npos);

  // Second attempt on the surviving device resumes from the panel
  // checkpoint: the driver carries a resume marker and checkpoint
  // spans, all parented under the device-1 attempt.
  const obs::TraceNode* second = find_child(job, "attempt", 1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->span->device, 1);
  EXPECT_EQ(second->span->status, "ok");
  const obs::TraceNode* drv = find_child(*second, "factorize");
  ASSERT_NE(drv, nullptr);
  EXPECT_EQ(drv->span->device, 1);
  ASSERT_NE(find_child(*drv, "resume"), nullptr);
  const obs::TraceNode* pass = find_child(*drv, "pass");
  ASSERT_NE(pass, nullptr);
  EXPECT_NE(find_child(*pass, "checkpoint"), nullptr);

  const obs::TraceNode* complete = find_child(job, "complete");
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->span->status, "migrated");

  // The whole story is one job: every span shares the trace id and the
  // tenant, wherever it was recorded.
  for (const auto& s : report.spans) {
    EXPECT_EQ(s.trace_id, r.trace_id);
    EXPECT_EQ(s.tenant, "alpha");
  }
}

TEST(ServiceTrace, CallerProvidedContextIsKept) {
  Fleet fleet(small_fleet(1), ExecutionMode::Numeric);
  obs::TraceStore trace;
  ServiceOptions so;
  so.trace = &trace;
  FactorizationService svc(fleet, so);
  JobSpec spec = basic_job(96);
  spec.trace.trace_id = obs::derive_trace_id(555, 42);
  spec.trace.span_id = spec.trace.trace_id;
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].trace_id, obs::derive_trace_id(555, 42));
}

TEST(ServiceTrace, TracingOffRecordsNothingAndChangesNothing) {
  const JobSpec spec = basic_job(96);
  Fleet traced_fleet(small_fleet(1), ExecutionMode::Numeric);
  obs::TraceStore trace;
  ServiceOptions so;
  so.trace = &trace;
  FactorizationService traced(traced_fleet, so);
  traced.submit(spec);
  const std::vector<JobResult> a = traced.drain();

  Fleet plain_fleet(small_fleet(1), ExecutionMode::Numeric);
  FactorizationService plain(plain_fleet, ServiceOptions{});
  plain.submit(spec);
  const std::vector<JobResult> b = plain.drain();

  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(b[0].trace_id, 0u);
  // Tracing is pure observation: virtual timings are identical.
  EXPECT_EQ(a[0].end_time, b[0].end_time);
  EXPECT_EQ(a[0].seconds, b[0].seconds);
  EXPECT_EQ(traced_fleet.makespan(), plain_fleet.makespan());
}

// ----- flight-recorder breadcrumbs along recovery paths ---------------

TEST(ServiceBreadcrumbs, RecoveryPathLeavesAReconcilableTrail) {
  // Satellite (ISSUE 10): a forced mid-run device loss must leave the
  // breadcrumb chain placement → loss discovered → re-placement →
  // resume-from-panel in the flight recorder, and the postmortem bundle
  // must reconcile with it.
  const JobSpec spec = basic_job(512);
  const double horizon = fault_free_makespan(spec);

  Fleet fleet(small_fleet(2), ExecutionMode::Numeric);
  fleet.arm_loss(0, 0.6 * horizon);
  obs::FlightRecorder recorder;
  ServiceOptions so;
  so.recorder = &recorder;
  FactorizationService svc(fleet, so);
  svc.submit(spec);
  const std::vector<JobResult> rs = svc.drain();
  ASSERT_EQ(rs.size(), 1u);
  ASSERT_EQ(rs[0].outcome, JobOutcome::Migrated);
  ASSERT_GT(rs[0].resumed_iterations, 0);

  std::ostringstream bundle_text;
  recorder.write_bundle(bundle_text, /*exit_code=*/3, "forced loss");
  std::istringstream in(bundle_text.str());
  obs::FlightBundle bundle;
  ASSERT_TRUE(obs::read_flight_bundle(in, &bundle));
  EXPECT_EQ(bundle.exit_code, 3);

  // The chain, in order, within the bundle's breadcrumb trail:
  // placement → loss discovered → migration → re-placement →
  // resume-from-panel → finish.
  const std::vector<std::pair<std::string, std::string>> chain = {
      {"service:admit", ""},
      {"service:place", "device=0"},
      {"service:device_lost", "device=0"},
      {"service:migrate", "from=0"},
      {"service:place", "device=1"},
      {"service:resume", "iterations="},
      {"service:finish", "outcome=migrated"},
  };
  std::size_t at = 0;
  for (const auto& want : chain) {
    bool found = false;
    for (; at < bundle.breadcrumbs.size(); ++at) {
      const std::string& crumb = bundle.breadcrumbs[at];
      if (crumb.find(want.first) != std::string::npos &&
          crumb.find(want.second) != std::string::npos) {
        found = true;
        ++at;
        break;
      }
    }
    EXPECT_TRUE(found) << "breadcrumb chain broken at \"" << want.first
                       << " ... " << want.second << "\"\nbundle:\n"
                       << bundle_text.str();
  }
}

}  // namespace
}  // namespace ftla
