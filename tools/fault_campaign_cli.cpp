// fault_campaign_cli — stochastic fault-injection campaigns with an
// independent SDC oracle (docs/fault-model.md).
//
// Campaign mode (default): run N randomized scenarios across the four
// Cholesky variants (plus the LU/QR extensions) and both recovery
// policies, classify each end to end, print the verdict table, and
// shrink any unexpected outcome to a minimal replayable plan.
//
// Replay mode (--replay FILE): run one scenario from a file written by
// --failures-out (format_scenario text), exit by the verdict.
//
// With FTLA_POSTMORTEM=FILE.json in the environment (or --postmortem-out),
// the flight-recorder bundle is dumped on exit (docs/observability.md,
// "Analytics & postmortems").
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fault/analytics.hpp"
#include "fault/campaign.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace {

using namespace ftla;

// Flight recorder shared with usage(): whatever was attached by the
// time the tool exits is what the postmortem bundle shows.
obs::FlightRecorder g_recorder;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: fault_campaign_cli [options]\n"
      "  --scenarios N        randomized scenarios to run (default 200)\n"
      "  --seed S             campaign seed (default 1)\n"
      "  --blocks LO:HI       matrix size range in 16-wide blocks "
      "(default 3:7)\n"
      "  --threads N          run scenarios on N worker threads\n"
      "                       (0 = all cores; default 1). Verdicts and\n"
      "                       fired plans are bit-identical to serial\n"
      "  --report FILE.json   write the campaign metrics report\n"
      "  --analytics-out FILE write cross-scenario analytics JSON\n"
      "                       (detection-latency histograms per fault\n"
      "                       type, verdict breakdowns, overhead\n"
      "                       percentiles; render with ftla_report_cli)\n"
      "  --abort-after N      stop after N scenarios (deterministic\n"
      "                       truncation; exits 3 to flag the abort)\n"
      "  --postmortem-out FILE write the flight-recorder bundle at exit\n"
      "  --failures-out FILE  write shrunk failure plans (replayable)\n"
      "  --replay FILE        run one scenario from FILE instead of a\n"
      "                       campaign; exits by its verdict\n"
      "  --no-shrink          skip minimization of failing scenarios\n"
      "  --quiet              suppress progress lines\n"
      "\n"
      "exit codes:\n"
      "  0  campaign clean / replay finished with a clean result\n"
      "  1  I/O error (could not read or write a file)\n"
      "  2  usage error\n"
      "  3  fail-stop (replay: run gave up; campaign: unexpected\n"
      "     fail-stop with zero faults fired, or --abort-after cut the\n"
      "     campaign short)\n"
      "  4  silent data corruption (replay: corrupt result claimed as\n"
      "     success; campaign: any sdc verdict for the guarded variant)\n");
  std::exit(g_recorder.finish(
      fault::kExitUsage,
      msg != nullptr ? std::string("usage error: ") + msg : "usage error"));
}

int replay_exit_code(fault::Verdict v) {
  switch (v) {
    case fault::Verdict::FailStop: return fault::kExitFailStop;
    case fault::Verdict::Sdc: return fault::kExitSdc;
    default: return fault::kExitSuccess;
  }
}

}  // namespace

int main(int argc, char** argv) {
  fault::CampaignOptions opt;
  std::string report_path;
  std::string analytics_path;
  std::string failures_path;
  std::string replay_path;
  bool quiet = false;

  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenarios") opt.scenarios = std::atoi(need(i));
    else if (arg == "--seed") opt.seed = std::strtoull(need(i), nullptr, 10);
    else if (arg == "--threads") opt.threads = std::atoi(need(i));
    else if (arg == "--blocks") {
      const std::string v = need(i);
      if (std::sscanf(v.c_str(), "%d:%d", &opt.min_blocks,
                      &opt.max_blocks) != 2) {
        usage("--blocks expects LO:HI");
      }
    } else if (arg == "--report") report_path = need(i);
    else if (arg == "--analytics-out") analytics_path = need(i);
    else if (arg == "--abort-after") opt.abort_after = std::atoi(need(i));
    else if (arg == "--postmortem-out")
      g_recorder.set_postmortem_path(need(i));
    else if (arg == "--failures-out") failures_path = need(i);
    else if (arg == "--replay") replay_path = need(i);
    else if (arg == "--no-shrink") opt.shrink_failures = false;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (opt.scenarios <= 0) usage("--scenarios must be positive");
  if (opt.threads < 0) usage("--threads must be >= 0");
  if (opt.min_blocks < 1 || opt.max_blocks < opt.min_blocks) {
    usage("--blocks range is empty");
  }
  if (!analytics_path.empty()) opt.collect_observations = true;

  g_recorder.set_meta("tool", "fault_campaign_cli");
  g_recorder.set_meta("scenarios", std::to_string(opt.scenarios));
  g_recorder.set_meta("seed", std::to_string(opt.seed));
  g_recorder.set_meta("threads", std::to_string(opt.threads));
  if (opt.abort_after > 0) {
    g_recorder.set_meta("abort_after", std::to_string(opt.abort_after));
  }
  g_recorder.note("args parsed");

  if (!replay_path.empty()) {
    g_recorder.set_meta("replay", replay_path);
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return g_recorder.finish(fault::kExitIoError, "cannot read replay file");
    }
    std::ostringstream text;
    text << in.rdbuf();
    fault::Scenario sc;
    std::string err;
    if (!fault::parse_scenario(text.str(), &sc, &err)) {
      std::fprintf(stderr, "%s: %s\n", replay_path.c_str(), err.c_str());
      return g_recorder.finish(fault::kExitUsage,
                               "unparsable replay scenario: " + err);
    }
    const fault::ScenarioResult res = fault::run_scenario(sc);
    std::printf("verdict   : %s\n", fault::to_string(res.verdict));
    std::printf("residual  : %.3e\n", res.residual);
    std::printf("faults    : %d fired, %d detected, %d via transfer, "
                "%d ECC-absorbed\n",
                res.faults_fired, res.faults_detected, res.transfer_faults,
                res.ecc_absorbed);
    std::printf("recovery  : %lld corrected, %d rollbacks, %d reruns\n",
                res.errors_corrected, res.rollbacks, res.reruns);
    if (!res.note.empty()) std::printf("note      : %s\n", res.note.c_str());
    for (const auto& rec : res.records) {
      std::printf("  [%lld] t=%.3e %s op=%s iter=%d block=%d,%d "
                  "elem=%d,%d xfer=%lld -> %s",
                  static_cast<long long>(rec.id), rec.inject_time,
                  fault::to_string(rec.spec.type),
                  fault::to_string(rec.spec.op), rec.spec.iteration,
                  rec.spec.block_row, rec.spec.block_col,
                  rec.spec.elem_row, rec.spec.elem_col,
                  static_cast<long long>(rec.spec.transfer_index),
                  rec.detected() ? "detected" : "LATENT");
      if (rec.detected()) {
        std::printf(" (latency %.3e s)", rec.detection_latency());
      }
      std::printf("\n");
    }
    const int code = replay_exit_code(res.verdict);
    return g_recorder.finish(code, std::string("replay verdict: ") +
                            fault::to_string(res.verdict));
  }

  obs::MetricsRegistry metrics;
  g_recorder.attach_metrics(&metrics);
  const fault::CampaignSummary sum = fault::run_campaign(
      opt, &metrics, quiet ? nullptr : &std::cout, 100);
  g_recorder.note(sum.aborted ? "campaign aborted early"
                              : "campaign complete");

  std::printf("scenarios : %d\n", sum.scenarios_run);
  std::printf("faults    : %lld fired, %lld detected, %lld via transfer, "
              "%lld ECC-absorbed\n",
              sum.faults_fired, sum.faults_detected, sum.transfer_faults,
              sum.ecc_absorbed);
  std::printf("%-36s %9s %11s %7s %9s %5s\n", "algo/variant", "corrected",
              "rolled_back", "rerun", "fail_stop", "sdc");
  for (const auto& [key, row] : sum.verdicts) {
    std::printf("%-36s %9lld %11lld %7lld %9lld %5lld\n", key.c_str(),
                row[0], row[1], row[2], row[3], row[4]);
  }
  if (!sum.failures.empty()) {
    std::printf("\n%zu unexpected outcome(s):\n", sum.failures.size());
    for (const auto& f : sum.failures) {
      std::printf("--- verdict=%s reproduced=%s shrunk_to=%zu fault(s) "
                  "(%d shrink runs)\n",
                  fault::to_string(f.result.verdict),
                  f.reproduced ? "yes" : "no", f.shrunk.plan.size(),
                  f.shrink_runs);
      std::fputs(fault::format_scenario(f.shrunk).c_str(), stdout);
      if (!f.reproduced) {
        // The twin diverged; the seeded stochastic original is still
        // replayable verbatim — print it for offline debugging.
        std::printf("original (stochastic, replayable):\n");
        std::fputs(fault::format_scenario(f.scenario).c_str(), stdout);
      }
    }
  }

  if (!failures_path.empty() && !sum.failures.empty()) {
    std::ofstream out(failures_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", failures_path.c_str());
      return g_recorder.finish(fault::kExitIoError,
                               "cannot write failures file");
    }
    for (const auto& f : sum.failures) {
      out << "# verdict=" << fault::to_string(f.result.verdict)
          << " reproduced=" << (f.reproduced ? "yes" : "no") << "\n"
          << fault::format_scenario(f.shrunk) << "\n";
    }
  }

  if (!report_path.empty()) {
    obs::MetricsReport report;
    report.add_meta("tool", "fault_campaign_cli");
    report.add_meta("scenarios", std::to_string(opt.scenarios));
    report.add_meta("seed", std::to_string(opt.seed));
    report.add_meta("threads", std::to_string(opt.threads));
    report.add_meta("guarded_variant",
                    abft::to_string(fault::kGuardedVariant));
    report.metrics = metrics;
    if (!obs::write_metrics_json_file(report, report_path)) {
      std::fprintf(stderr, "failed to write %s\n", report_path.c_str());
      return g_recorder.finish(fault::kExitIoError, "failed to write report");
    }
    std::printf("report    : %s\n", report_path.c_str());
  }

  if (!analytics_path.empty()) {
    fault::CampaignAnalytics analytics = fault::aggregate_campaign(sum);
    analytics.meta["tool"] = "fault_campaign_cli";
    analytics.meta["scenarios"] = std::to_string(opt.scenarios);
    analytics.meta["seed"] = std::to_string(opt.seed);
    analytics.meta["threads"] = std::to_string(opt.threads);
    analytics.meta["guarded_variant"] =
        abft::to_string(fault::kGuardedVariant);
    if (!fault::write_analytics_json_file(analytics, analytics_path)) {
      std::fprintf(stderr, "failed to write %s\n", analytics_path.c_str());
      return g_recorder.finish(fault::kExitIoError,
                               "failed to write analytics");
    }
    std::printf("analytics : %s (render with ftla_report_cli)\n",
                analytics_path.c_str());
  }

  // --abort-after truncation is reported as a fail-stop: the campaign
  // did not finish, and scripts must not read a clean verdict into a
  // partial run.
  if (sum.guarded_sdc > 0) {
    return g_recorder.finish(fault::kExitSdc, "guarded variant saw sdc");
  }
  if (sum.unexpected_fail_stop > 0) {
    return g_recorder.finish(fault::kExitFailStop, "unexpected fail-stop");
  }
  if (sum.aborted) {
    return g_recorder.finish(fault::kExitFailStop,
                             "campaign aborted by --abort-after");
  }
  return g_recorder.finish(fault::kExitSuccess, "campaign clean");
}
