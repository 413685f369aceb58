// ftla_profile_cli — inspect, rewrite and gate saved simulated-time
// profiles.
//
// It runs nothing: the profile comes from a --profile-out flag
// (ftla_cli, the benches), e.g.
//   ftla_cli --mode timing --machine tardis --n 1024 --profile-out p.json
//
//   --from FILE.json     the saved profile to read (required)
//
// Outputs:
//   (default)            human-readable phase/resource/critical-path
//                        tables on stdout
//   --json-out FILE      the profile rewritten as byte-stable schema-v1
//                        JSON
//
// Regression gate:
//   --check-against BASELINE.json [--tolerance T]
//     compares the profile against a checked-in baseline: relative
//     makespan drift plus absolute drift of each phase's critical-path
//     and busy fractions. Findings are printed and the process exits
//     with the findings-reported code.
//
// exit codes: 0 success / within tolerance, 1 I/O error, 2 usage error,
// 3 drift beyond tolerance (kExitFailStop doubles as "findings").
//
// With FTLA_POSTMORTEM=FILE.json in the environment (or --postmortem-out),
// the flight-recorder bundle is dumped on exit (docs/observability.md,
// "Analytics & postmortems").
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profile_report.hpp"

namespace {

using namespace ftla;

// Flight recorder shared with usage(): whatever was attached by the
// time the tool exits is what the postmortem bundle shows.
obs::FlightRecorder g_recorder;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: ftla_profile_cli --from FILE.json\n"
      "  [--json-out FILE.json] [--postmortem-out FILE.json]\n"
      "  [--check-against BASELINE.json] [--tolerance T]\n"
      "\n"
      "Analyzes a profile saved by --profile-out (ftla_cli, the benches).\n"
      "--check-against turns the tool into the perf-regression gate:\n"
      "drift beyond the tolerance exits with the findings code.\n"
      "\n"
      "exit codes:\n"
      "  0  success / within tolerance\n"
      "  1  I/O error (unreadable or unwritable profile file)\n"
      "  2  usage error\n"
      "  3  drift beyond tolerance (findings reported)\n");
  std::exit(g_recorder.finish(
      common::kExitUsage,
      msg != nullptr ? std::string("usage error: ") + msg : "usage error"));
}

struct Args {
  std::string from_path;
  std::string json_path;
  std::string baseline_path;
  double tolerance = 0.01;
};

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--from") a.from_path = need(i);
    else if (opt == "--json-out") a.json_path = need(i);
    else if (opt == "--postmortem-out")
      g_recorder.set_postmortem_path(need(i));
    else if (opt == "--check-against") a.baseline_path = need(i);
    else if (opt == "--tolerance") a.tolerance = std::atof(need(i));
    else if (opt == "--help" || opt == "-h") usage();
    else usage(("unknown option " + opt).c_str());
  }
  if (a.from_path.empty()) usage("--from is required");
  if (a.tolerance < 0.0) usage("--tolerance must be >= 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  g_recorder.set_meta("tool", "ftla_profile_cli");
  g_recorder.set_meta("source", args.from_path);
  g_recorder.note("args parsed");

  obs::ProfileReport report;
  if (!obs::read_profile_json_file(args.from_path, &report)) {
    std::fprintf(stderr, "cannot read profile %s\n", args.from_path.c_str());
    return g_recorder.finish(common::kExitIoError, "cannot read profile");
  }

  if (!args.json_path.empty()) {
    if (!obs::write_profile_json_file(report, args.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return g_recorder.finish(common::kExitIoError,
                               "failed to write profile");
    }
    std::printf("profile report    : %s\n", args.json_path.c_str());
  }

  if (!args.baseline_path.empty()) {
    obs::ProfileReport baseline;
    if (!obs::read_profile_json_file(args.baseline_path, &baseline)) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   args.baseline_path.c_str());
      return g_recorder.finish(common::kExitIoError, "cannot read baseline");
    }
    const std::vector<std::string> findings =
        obs::compare_profiles(baseline, report, args.tolerance);
    if (findings.empty()) {
      std::printf("perf gate: within tolerance %g of %s\n", args.tolerance,
                  args.baseline_path.c_str());
      return g_recorder.finish(common::kExitSuccess, "within tolerance");
    }
    std::printf("perf gate: %zu finding(s) against %s (tolerance %g)\n",
                findings.size(), args.baseline_path.c_str(), args.tolerance);
    for (const std::string& f : findings) {
      g_recorder.note(f);
      std::printf("  %s\n", f.c_str());
    }
    return g_recorder.finish(common::kExitFailStop, "drift beyond tolerance");
  }

  obs::write_profile_text(report, std::cout);
  return g_recorder.finish(common::kExitSuccess, "success");
}
