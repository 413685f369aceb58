// Fleet-campaign certification tests (docs/fleet.md): the >= 500
// scenario sweep that certifies the resilient service's invariants —
// zero silent data corruption and zero silently dropped jobs — plus
// the serial-vs-parallel determinism twin.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "service/fleet_campaign.hpp"

namespace ftla::service {
namespace {

void expect_identical(const FleetCampaignSummary& a,
                      const FleetCampaignSummary& b) {
  EXPECT_EQ(a.scenarios_run, b.scenarios_run);
  EXPECT_EQ(a.jobs_admitted, b.jobs_admitted);
  EXPECT_EQ(a.sdc_jobs, b.sdc_jobs);
  EXPECT_EQ(a.dropped_jobs, b.dropped_jobs);
  EXPECT_EQ(a.device_losses, b.device_losses);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.retries_spent, b.retries_spent);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.aborted, b.aborted);
  for (int v = 0; v < kFleetVerdictCount; ++v) {
    EXPECT_EQ(a.verdicts[static_cast<std::size_t>(v)],
              b.verdicts[static_cast<std::size_t>(v)]);
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(format_fleet_scenario(a.failures[i].scenario),
              format_fleet_scenario(b.failures[i].scenario));
    EXPECT_EQ(a.failures[i].reason, b.failures[i].reason);
  }
}

long long counter_or_zero(const obs::MetricsRegistry& reg,
                          const std::string& name) {
  for (const auto& [key, value] : reg.counters()) {
    if (key == name) return value;
  }
  return 0;
}

TEST(FleetCampaign, FiveHundredScenariosCertifyTheInvariants) {
  // The acceptance sweep (ISSUE 7): across >= 500 randomized fleet
  // scenarios — device counts, workloads, loss/stall/degrade plans,
  // soft-error pressure — no job is silently corrupted and no admitted
  // job goes unaccounted.
  FleetCampaignOptions opt;
  opt.scenarios = 500;
  opt.seed = 20260808;
  opt.threads = 0;  // all cores; the summary is schedule-independent

  obs::MetricsRegistry metrics;
  const FleetCampaignSummary sum = run_fleet_campaign(opt, &metrics);

  EXPECT_EQ(sum.scenarios_run, 500);
  EXPECT_TRUE(sum.clean());
  EXPECT_EQ(sum.sdc_jobs, 0);
  EXPECT_EQ(sum.dropped_jobs, 0);
  EXPECT_EQ(sum.verdicts[static_cast<std::size_t>(FleetVerdict::Sdc)], 0);

  // Every admitted job carries exactly one verdict.
  long long accounted = 0;
  for (int v = 0; v < kFleetVerdictCount; ++v) {
    accounted += sum.verdicts[static_cast<std::size_t>(v)];
  }
  EXPECT_EQ(accounted, sum.jobs_admitted);

  // The campaign must actually exercise the recovery machinery, not
  // vacuously pass on fault-free scenarios.
  EXPECT_GT(sum.device_losses, 100);
  EXPECT_GT(sum.migrations, 0);
  EXPECT_GT(sum.faults_fired, 0);
  EXPECT_GT(sum.verdicts[static_cast<std::size_t>(FleetVerdict::Migrated)],
            0);

  // Reconciliation: the exported metrics tell the same story as the
  // summary (what the flight-recorder postmortem embeds).
  EXPECT_EQ(counter_or_zero(metrics, "fleet.scenarios"), sum.scenarios_run);
  EXPECT_EQ(counter_or_zero(metrics, "fleet.jobs.admitted"),
            sum.jobs_admitted);
  EXPECT_EQ(counter_or_zero(metrics, "fleet.jobs.sdc"), 0);
  EXPECT_EQ(counter_or_zero(metrics, "fleet.jobs.dropped"), 0);
  EXPECT_EQ(counter_or_zero(metrics, "fleet.device_losses"),
            sum.device_losses);
  EXPECT_EQ(counter_or_zero(metrics, "fleet.migrations"), sum.migrations);
  EXPECT_EQ(counter_or_zero(metrics, "fleet.failures"), 0);
  long long metric_verdicts = 0;
  for (int v = 0; v < kFleetVerdictCount; ++v) {
    metric_verdicts += counter_or_zero(
        metrics, std::string("fleet.verdict.") +
                     to_string(static_cast<FleetVerdict>(v)));
  }
  EXPECT_EQ(metric_verdicts, sum.jobs_admitted);
}

TEST(FleetCampaign, ParallelSummaryIsBitIdenticalToSerial) {
  // The deterministic twin. Same seed, serial vs four worker threads —
  // the campaign summary (and any failure dump) must match field for
  // field, and so must the progress lines the draw-order merge prints.
  FleetCampaignOptions opt;
  opt.scenarios = 60;
  opt.seed = 424242;

  opt.threads = 1;
  std::ostringstream serial_progress;
  const FleetCampaignSummary serial =
      run_fleet_campaign(opt, nullptr, &serial_progress, 7);
  opt.threads = 4;
  std::ostringstream parallel_progress;
  const FleetCampaignSummary parallel =
      run_fleet_campaign(opt, nullptr, &parallel_progress, 7);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial_progress.str(), parallel_progress.str());
  EXPECT_NE(serial_progress.str().find("[fleet] 56/60 scenarios, "),
            std::string::npos);
}

TEST(FleetCampaign, AbortAfterTruncatesDeterministically) {
  FleetCampaignOptions opt;
  opt.scenarios = 40;
  opt.seed = 7;
  const FleetCampaignSummary full = run_fleet_campaign(opt);

  opt.abort_after = 15;
  const FleetCampaignSummary cut = run_fleet_campaign(opt);
  EXPECT_TRUE(cut.aborted);
  EXPECT_EQ(cut.scenarios_run, 15);
  EXPECT_FALSE(full.aborted);
  // The truncated campaign is a prefix of the full one, so it can never
  // see more of anything.
  EXPECT_LE(cut.jobs_admitted, full.jobs_admitted);
  EXPECT_LE(cut.device_losses, full.device_losses);
}

TEST(FleetCampaign, TenantAccountingReconcilesWithMetrics) {
  // Tentpole (ISSUE 10): every campaign job is billed to a tenant, and
  // the tenant.* metrics tell the same story as the summary.
  FleetCampaignOptions opt;
  opt.scenarios = 40;
  opt.seed = 20260808;
  obs::MetricsRegistry metrics;
  const FleetCampaignSummary sum = run_fleet_campaign(opt, &metrics);

  ASSERT_FALSE(sum.tenants.empty());
  long long tenant_jobs = 0;
  long long tenant_retries = 0;
  double tenant_device_seconds = 0.0;
  long long tenant_checkpoint_bytes = 0;
  for (const auto& [name, usage] : sum.tenants) {
    EXPECT_FALSE(name.empty());
    EXPECT_GT(usage.jobs, 0) << name;
    EXPECT_GE(usage.retries, 0);
    EXPECT_GE(usage.device_seconds, 0.0);
    tenant_jobs += usage.jobs;
    tenant_retries += usage.retries;
    tenant_device_seconds += usage.device_seconds;
    tenant_checkpoint_bytes += usage.checkpoint_bytes;

    EXPECT_EQ(counter_or_zero(metrics, "tenant." + name + ".jobs"),
              usage.jobs);
    EXPECT_EQ(counter_or_zero(metrics, "tenant." + name + ".retries"),
              usage.retries);
    EXPECT_EQ(counter_or_zero(metrics, "tenant." + name + ".migrations"),
              usage.migrations);
    EXPECT_EQ(
        counter_or_zero(metrics, "tenant." + name + ".checkpoint_bytes"),
        usage.checkpoint_bytes);
    EXPECT_DOUBLE_EQ(
        metrics.gauges().at("tenant." + name + ".device_seconds"),
        usage.device_seconds);
  }
  // Billing is total: every admitted job lands in exactly one tenant
  // bucket, and nothing else leaks into the totals.
  EXPECT_EQ(tenant_jobs, sum.jobs_admitted);
  EXPECT_EQ(tenant_retries, sum.retries_spent);
  EXPECT_GT(tenant_device_seconds, 0.0);
  EXPECT_GT(tenant_checkpoint_bytes, 0);
}

TEST(FleetCampaign, TraceIsByteIdenticalAcrossThreadCounts) {
  // Acceptance (ISSUE 10): the reassembled trace JSON of a campaign run
  // is byte-identical between a serial and a --threads 4 run of the
  // same seed.
  FleetCampaignOptions opt;
  opt.scenarios = 12;
  opt.seed = 424242;

  opt.threads = 1;
  obs::TraceStore serial_trace;
  const FleetCampaignSummary serial =
      run_fleet_campaign(opt, nullptr, nullptr, 100, &serial_trace);
  opt.threads = 4;
  obs::TraceStore parallel_trace;
  const FleetCampaignSummary parallel =
      run_fleet_campaign(opt, nullptr, nullptr, 100, &parallel_trace);

  expect_identical(serial, parallel);
  ASSERT_GT(serial_trace.size(), 0u);
  const std::string a = obs::TraceReport::build(serial_trace).to_string();
  const std::string b = obs::TraceReport::build(parallel_trace).to_string();
  EXPECT_EQ(a, b);
  // And the structural diff agrees with the byte-level one.
  const auto diff =
      obs::diff_traces(obs::TraceReport::build(serial_trace),
                       obs::TraceReport::build(parallel_trace));
  EXPECT_TRUE(diff.identical());
}

TEST(FleetCampaign, SloFeedIsDeterministicAcrossThreadCounts) {
  // The SLO engine sees every admitted job exactly once, in draw order,
  // so its state is independent of the worker-thread count.
  FleetCampaignOptions opt;
  opt.scenarios = 12;
  opt.seed = 424242;

  opt.threads = 1;
  obs::SloEngine serial_slo;
  for (const auto& spec : obs::SloEngine::default_fleet_slos(0.05)) {
    serial_slo.add(spec);
  }
  const FleetCampaignSummary serial =
      run_fleet_campaign(opt, nullptr, nullptr, 100, nullptr, &serial_slo);

  opt.threads = 4;
  obs::SloEngine parallel_slo;
  for (const auto& spec : obs::SloEngine::default_fleet_slos(0.05)) {
    parallel_slo.add(spec);
  }
  const FleetCampaignSummary parallel = run_fleet_campaign(
      opt, nullptr, nullptr, 100, nullptr, &parallel_slo);

  expect_identical(serial, parallel);
  const auto sa = serial_slo.states();
  const auto sb = parallel_slo.states();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].total, sb[i].total);
    EXPECT_EQ(sa[i].bad, sb[i].bad);
    EXPECT_EQ(sa[i].total, serial.jobs_admitted);
  }
  EXPECT_EQ(serial_slo.latency_p99(), parallel_slo.latency_p99());
}

TEST(FleetCampaign, ParseRejectsFieldsTheServiceWouldAbortOn) {
  const std::string base = "fleet_scenario devices=2 jobs=1 ";
  for (const std::string bad :
       {"min_blocks=5 max_blocks=3", "min_blocks=0", "max_retries=-1",
        "max_arrivals=-1", "losses=-1", "stalls=-1", "degrades=-1"}) {
    FleetScenario sc;
    std::string err;
    EXPECT_FALSE(parse_fleet_scenario(base + bad + "\n", &sc, &err)) << bad;
    EXPECT_NE(err.find("line 1"), std::string::npos) << bad << ": " << err;
  }
  FleetScenario sc;
  std::string err;
  EXPECT_TRUE(parse_fleet_scenario(
      base + "min_blocks=4 max_blocks=4 max_retries=0 max_arrivals=0\n",
      &sc, &err))
      << err;
}

TEST(FleetCampaign, FailingScenarioDumpReplays) {
  // Any scenario the campaign would dump must replay through the same
  // entry point the CLI's --replay uses. Use a healthy scenario (the
  // campaign is clean) and check the round trip end to end.
  FleetCampaignOptions opt;
  Rng rng(99);
  const FleetScenario sc = random_fleet_scenario(rng, opt);
  const std::string text = format_fleet_scenario(sc);

  FleetScenario back;
  std::string err;
  ASSERT_TRUE(parse_fleet_scenario(text, &back, &err)) << err;
  const FleetScenarioResult a = run_fleet_scenario(sc);
  const FleetScenarioResult b = run_fleet_scenario(back);
  EXPECT_EQ(a.jobs_admitted, b.jobs_admitted);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.device_losses, b.device_losses);
  EXPECT_EQ(a.migrations, b.migrations);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].residual, b.jobs[i].residual);
    EXPECT_EQ(a.jobs[i].end_time, b.jobs[i].end_time);
  }
}

}  // namespace
}  // namespace ftla::service
