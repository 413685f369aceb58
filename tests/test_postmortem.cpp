// Tests for the flight recorder: bundle round-trips in process, and —
// the property the recorder exists for — real CLI processes dying with
// each nonzero contract code (1 I/O, 2 usage, 3 fail-stop, 4 SDC)
// leave behind a parseable postmortem bundle that reconciles with the
// metrics report. The exit-3 case kills a campaign mid-flight with
// --abort-after, the "run died partway" acceptance scenario. The same
// spawned-binary harness checks ftla_cli's runtime label and the
// saved-profile perf gate.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/exit_codes.hpp"
#include "fault/campaign.hpp"
#include "obs/event_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"

namespace ftla::obs {
namespace {

Event note_at(double t, const std::string& name) {
  Event e;
  e.kind = EventKind::Note;
  e.time = t;
  e.name = name;
  return e;
}

// ------------------------------ in-process ----------------------------

TEST(FlightRecorder, BundleRoundTripsAndReconciles) {
  RingBufferSink sink;
  MetricsRegistry metrics;
  SpanStore spans;
  sink.post(note_at(0.25, "first"));
  sink.post(note_at(0.75, "second"));
  metrics.counter("test.count") = 42;
  metrics.set_gauge("test.gauge", 1.5);

  FlightRecorder rec;
  rec.attach_events(&sink);
  rec.attach_metrics(&metrics);
  rec.attach_spans(&spans);
  rec.set_meta("tool", "unit");
  rec.note("started");
  rec.note("failed");

  std::ostringstream os;
  rec.write_bundle(os, common::kExitFailStop, "because");
  std::istringstream is(os.str());
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle(is, &b));
  EXPECT_EQ(b.flight_version, 1);
  EXPECT_EQ(b.exit_code, common::kExitFailStop);
  EXPECT_EQ(b.reason, "because");
  EXPECT_EQ(b.meta.at("tool"), "unit");
  ASSERT_EQ(b.breadcrumbs.size(), 2u);
  EXPECT_EQ(b.breadcrumbs[1], "failed");
  EXPECT_EQ(b.counters.at("test.count"), 42);
  EXPECT_DOUBLE_EQ(b.gauges.at("test.gauge"), 1.5);
  EXPECT_EQ(b.events_posted, 2);
  ASSERT_EQ(b.events.size(), 2u);
  EXPECT_EQ(b.events[0].name, "first");
  EXPECT_DOUBLE_EQ(b.events[1].time, 0.75);
}

TEST(FlightRecorder, TailIsBoundedToNewestEvents) {
  RingBufferSink sink;
  FlightRecorder rec;
  rec.attach_events(&sink);
  rec.set_event_tail(3);
  for (int i = 0; i < 10; ++i) {
    sink.post(note_at(i * 0.1, "e" + std::to_string(i)));
  }
  std::ostringstream os;
  rec.write_bundle(os, 1, "x");
  std::istringstream is(os.str());
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle(is, &b));
  EXPECT_EQ(b.events_posted, 10);
  ASSERT_EQ(b.events.size(), 3u);
  EXPECT_EQ(b.events.front().name, "e7");
  EXPECT_EQ(b.events.back().name, "e9");
}

TEST(FlightRecorder, DumpIsByteStable) {
  RingBufferSink sink;
  MetricsRegistry metrics;
  sink.post(note_at(0.5, "only"));
  metrics.counter("test.count") = 7;
  FlightRecorder rec;
  rec.attach_events(&sink);
  rec.attach_metrics(&metrics);
  std::ostringstream a;
  std::ostringstream b;
  rec.write_bundle(a, 3, "r");
  rec.write_bundle(b, 3, "r");
  EXPECT_EQ(a.str(), b.str());
}

// ------------------------------ CLI matrix ----------------------------
//
// Each case spawns the real binary (paths injected by CMake), asserts
// the contract exit code, and validates the dumped bundle.

int run_cmd(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "ftla_postmortem_" + name;
}

TEST(CliPostmortem, IoErrorDumpsBundleViaEnv) {
  const std::string bundle = tmp_path("io.json");
  std::remove(bundle.c_str());
  const int code = run_cmd("FTLA_POSTMORTEM=" + bundle + " " +
                           FTLA_CAMPAIGN_BIN +
                           " --replay /nonexistent/plan.txt 2>/dev/null");
  EXPECT_EQ(code, common::kExitIoError);
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle_file(bundle, &b));
  EXPECT_EQ(b.exit_code, common::kExitIoError);
  EXPECT_EQ(b.meta.at("tool"), "fault_campaign_cli");
}

TEST(CliPostmortem, UsageErrorDumpsBundle) {
  const std::string bundle = tmp_path("usage.json");
  std::remove(bundle.c_str());
  const int code = run_cmd(std::string(FTLA_CLI_BIN) + " --postmortem-out " +
                           bundle + " --bogus-flag 2>/dev/null");
  EXPECT_EQ(code, common::kExitUsage);
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle_file(bundle, &b));
  EXPECT_EQ(b.exit_code, common::kExitUsage);
  EXPECT_NE(b.reason.find("usage error"), std::string::npos);
}

TEST(CliPostmortem, AbortedCampaignBundleReconcilesWithReport) {
  // The acceptance scenario: a campaign is killed mid-flight
  // (--abort-after), exits fail-stop, and the flight-recorder bundle
  // must agree with the metrics report about how far it got.
  const std::string bundle = tmp_path("abort.json");
  const std::string report = tmp_path("abort_report.json");
  std::remove(bundle.c_str());
  std::remove(report.c_str());
  const int code = run_cmd(std::string(FTLA_CAMPAIGN_BIN) +
                           " --scenarios 12 --abort-after 3 --quiet" +
                           " --report " + report + " --postmortem-out " +
                           bundle + " >/dev/null");
  EXPECT_EQ(code, common::kExitFailStop);

  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle_file(bundle, &b));
  EXPECT_EQ(b.exit_code, common::kExitFailStop);
  EXPECT_NE(b.reason.find("abort"), std::string::npos);
  EXPECT_EQ(b.meta.at("abort_after"), "3");
  ASSERT_FALSE(b.breadcrumbs.empty());
  EXPECT_EQ(b.breadcrumbs.back(), "campaign aborted early");

  MetricsDoc doc;
  ASSERT_TRUE(read_metrics_json_file(report, &doc));
  // Both artifacts agree the campaign stopped after exactly 3 scenarios.
  EXPECT_EQ(b.counters.at("campaign.scenarios"), 3);
  EXPECT_EQ(doc.counters.at("campaign.scenarios"), 3);
  // Every campaign counter in the report appears identically in the
  // bundle: the recorder snapshots the same registry the report is
  // written from.
  for (const auto& [name, value] : doc.counters) {
    ASSERT_TRUE(b.counters.count(name)) << name;
    EXPECT_EQ(b.counters.at(name), value) << name;
  }
}

TEST(CliPostmortem, SdcReplayDumpsBundleViaEnv) {
  // A deterministic SDC: unguarded (NoFt) Cholesky with one planned
  // storage bit-flip nothing detects — small enough to keep the matrix
  // positive definite (the run "succeeds") but far above the oracle's
  // residual threshold. Verified in process first, then replayed
  // through the CLI, which must exit 4 and dump the bundle.
  fault::Scenario sc;
  sc.algo = fault::Algo::Cholesky;
  sc.variant = abft::Variant::NoFt;
  sc.recovery = abft::Recovery::Rerun;
  sc.n = 64;
  sc.block = 16;
  fault::FaultSpec spec;
  spec.type = fault::FaultType::Storage;
  spec.iteration = 1;
  spec.op = fault::Op::Gemm;
  spec.bits = {46};
  sc.plan.push_back(spec);
  const fault::ScenarioResult res = fault::run_scenario(sc);
  ASSERT_EQ(res.verdict, fault::Verdict::Sdc)
      << "scenario no longer yields sdc; residual " << res.residual;

  const std::string plan = tmp_path("sdc_plan.txt");
  {
    std::ofstream out(plan);
    out << fault::format_scenario(sc);
  }
  const std::string bundle = tmp_path("sdc.json");
  std::remove(bundle.c_str());
  const int code =
      run_cmd("FTLA_POSTMORTEM=" + bundle + " " + FTLA_CAMPAIGN_BIN +
              " --replay " + plan + " >/dev/null");
  EXPECT_EQ(code, common::kExitSdc);
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle_file(bundle, &b));
  EXPECT_EQ(b.exit_code, common::kExitSdc);
  EXPECT_NE(b.reason.find("sdc"), std::string::npos);
}

/// Writes `text` to a temporary file and returns its path.
std::string write_plan(const std::string& name, const std::string& text) {
  const std::string path = tmp_path(name);
  std::ofstream out(path);
  out << text;
  return path;
}

/// Runs `cmd` with FTLA_POSTMORTEM=`bundle_name` armed and expects a
/// usage error whose bundle names `reason`. Each test uses its own
/// bundle name: ctest runs the cases as concurrent processes.
void expect_usage_bundle(const std::string& cmd, const std::string& reason,
                         const std::string& bundle_name) {
  const std::string bundle = tmp_path(bundle_name);
  std::remove(bundle.c_str());
  EXPECT_EQ(run_cmd("FTLA_POSTMORTEM=" + bundle + " " + cmd +
                    " >/dev/null 2>&1"),
            common::kExitUsage)
      << cmd;
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle_file(bundle, &b)) << cmd;
  EXPECT_EQ(b.exit_code, common::kExitUsage) << cmd;
  EXPECT_NE(b.reason.find(reason), std::string::npos) << b.reason;
}

TEST(CliPostmortem, CampaignReplayRejectsOutOfRangeScenario) {
  for (const std::string field : {"k=0", "ckpt=0"}) {
    const std::string plan = write_plan(
        "range_plan.txt", "scenario algo=cholesky n=64 block=16 " + field +
                              "\n");
    expect_usage_bundle(std::string(FTLA_CAMPAIGN_BIN) + " --replay " + plan,
                        "k and ckpt must be >= 1", "range_plan.json");
  }
}

TEST(CliPostmortem, FleetReplayRejectsOutOfRangeScenario) {
  for (const std::string fields : {"min_blocks=5 max_blocks=3",
                                   "max_retries=-1"}) {
    const std::string plan =
        write_plan("range_fleet.txt",
                   "fleet_scenario devices=2 jobs=1 " + fields + "\n");
    expect_usage_bundle(std::string(FTLA_FLEET_BIN) + " --replay " + plan,
                        "unparsable replay scenario: line 1",
                        "range_fleet.json");
  }
}

TEST(CliPostmortem, CkptIntervalBelowOneIsUsageError) {
  expect_usage_bundle(std::string(FTLA_CLI_BIN) +
                          " --machine test --n 64 --ckpt-interval 0",
                      "--ckpt-interval must be positive", "range_ckpt.json");
}

TEST(CliPostmortem, NegativeBlockIsUsageError) {
  // --block 0 keeps meaning the machine's MAGMA default.
  expect_usage_bundle(std::string(FTLA_CLI_BIN) + " --machine test --n 64 " +
                          "--block -4",
                      "--block must be >= 0", "range_block.json");
  EXPECT_EQ(run_cmd(std::string(FTLA_CLI_BIN) +
                    " --machine test --n 64 --block 0 >/dev/null"),
            common::kExitSuccess);
}

TEST(CliPostmortem, SuccessfulRunWritesBundleOnlyWhenAsked) {
  // --postmortem-out dumps on success too (exit_code 0); the env-var
  // path must NOT fire for a clean exit.
  const std::string asked = tmp_path("ok.json");
  const std::string env_only = tmp_path("ok_env.json");
  std::remove(asked.c_str());
  std::remove(env_only.c_str());
  int code = run_cmd(std::string(FTLA_CLI_BIN) +
                     " --machine test --n 32 --postmortem-out " + asked +
                     " >/dev/null");
  EXPECT_EQ(code, common::kExitSuccess);
  FlightBundle b;
  ASSERT_TRUE(read_flight_bundle_file(asked, &b));
  EXPECT_EQ(b.exit_code, common::kExitSuccess);
  EXPECT_EQ(b.reason, "success");

  code = run_cmd("FTLA_POSTMORTEM=" + env_only + " " + FTLA_CLI_BIN +
                 " --machine test --n 32 >/dev/null");
  EXPECT_EQ(code, common::kExitSuccess);
  std::ifstream probe(env_only);
  EXPECT_FALSE(probe.good());
}

// ------------------------------ CLI labels ----------------------------

/// stdout of a successful ftla_cli run.
std::string cli_stdout(const std::string& args) {
  const std::string out = tmp_path("stdout.txt");
  EXPECT_EQ(run_cmd(std::string(FTLA_CLI_BIN) + " " + args + " > " + out),
            common::kExitSuccess)
      << args;
  std::ifstream in(out);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CliRuntimeLabel, RejectsDagForVariantsWithNoGraphDriver) {
  // cula, dmr and tmr have no task-graph driver, and the Cholesky graph
  // models neither the CPU checksum mirror nor checkpoint recovery, so
  // --runtime dag with one of them is a usage error rather than a bulk
  // run; the same flags without it still run.
  const std::string run = "--machine tardis --n 1024 --mode timing ";
  for (const std::string flags :
       {"--variant cula", "--variant dmr", "--variant tmr",
        "--placement cpu", "--recovery checkpoint"}) {
    EXPECT_EQ(run_cmd(std::string(FTLA_CLI_BIN) + " " + run + flags +
                      " --runtime dag > /dev/null 2>&1"),
              common::kExitUsage)
        << flags;
    const std::string bulk = cli_stdout(run + flags);
    EXPECT_NE(bulk.find("runtime = bulk\n"), std::string::npos) << bulk;
  }
  // With the default placement (Auto, which resolves to Gpu under the
  // graph) the task graph runs.
  const std::string dag =
      cli_stdout("--machine tardis --n 2048 --mode timing --runtime dag");
  EXPECT_NE(dag.find("runtime = dag\n"), std::string::npos) << dag;
}

// --------------------------- saved-profile gate ------------------------

TEST(CliProfileGate, GatesSavedProfilesAndRunsNothing) {
  // The perf gate reads what ftla_cli --profile-out saved: a profile
  // gates clean against itself, a run with a different verification
  // interval drifts beyond the tolerance, and the profile tool has no
  // run mode of its own.
  const std::string base = tmp_path("gate_k1.json");
  const std::string perturbed = tmp_path("gate_k4.json");
  const std::string run = std::string(FTLA_CLI_BIN) +
                          " --mode timing --machine test --n 512 --block 64"
                          " --variant enhanced";
  ASSERT_EQ(run_cmd(run + " --profile-out " + base + " >/dev/null"),
            common::kExitSuccess);
  ASSERT_EQ(run_cmd(run + " --k 4 --profile-out " + perturbed + " >/dev/null"),
            common::kExitSuccess);
  const std::string gate =
      std::string(FTLA_PROFILE_BIN) + " --check-against " + base + " --from ";
  EXPECT_EQ(run_cmd(gate + base + " >/dev/null"), common::kExitSuccess);
  EXPECT_EQ(run_cmd(gate + perturbed + " >/dev/null"), common::kExitFailStop);

  expect_usage_bundle(std::string(FTLA_PROFILE_BIN) + " --from " + base +
                          " --machine test",
                      "unknown option --machine", "gate_machine.json");
  expect_usage_bundle(std::string(FTLA_PROFILE_BIN) + " --n 1024",
                      "unknown option --n", "gate_n.json");
  expect_usage_bundle(FTLA_PROFILE_BIN, "--from is required",
                      "gate_no_from.json");
}

}  // namespace
}  // namespace ftla::obs
