// ftla_profile_cli — inspect and gate simulated-time profiles.
//
// Sources (pick one):
//   run mode (default)   run one factorization under the profiler and
//                        analyze it in place
//   --from FILE.json     load a profile previously written by a
//                        --profile-out flag (ftla_cli, the benches)
//
// Run-mode options (a subset of ftla_cli's):
//   --machine tardis|bulldozer64|test   simulated node (default tardis)
//   --n N                               matrix size (default 2048)
//   --block B                           block size (default: MAGMA's)
//   --algo cholesky|lu|qr               factorization (default cholesky)
//   --variant enhanced|online|offline|noft
//   --k K                               Opt-3 verification interval
//   --placement auto|cpu|gpu|blocking   Opt-2 placement (cholesky)
//   --mode timing|numeric               execution mode (default timing:
//                                       virtual time is identical and
//                                       TimingOnly runs are much faster)
//   --threads N                         host BLAS worker threads
//   --seed S                            matrix seed (numeric mode)
//   --top K                             span aggregates to keep (12)
//
// Outputs:
//   (default)            human-readable phase/resource/critical-path
//                        tables on stdout
//   --json-out FILE      byte-stable schema-v1 profile JSON
//
// Regression gate:
//   --check-against BASELINE.json [--tolerance T]
//     compares the current profile (run or --from) against a checked-in
//     baseline: relative makespan drift plus absolute drift of each
//     phase's critical-path and busy fractions. Findings are printed
//     and the process exits with the findings-reported code.
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

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "common/exit_codes.hpp"
#include "common/spd.hpp"
#include "common/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profile_report.hpp"
#include "obs/span.hpp"
#include "sim/profile.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace ftla;

// Flight recorder shared with usage(): whatever was attached by the
// time the tool exits is what the postmortem bundle shows.
obs::FlightRecorder g_recorder;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: ftla_profile_cli [--from FILE.json]\n"
      "  [--machine tardis|bulldozer64|test] [--n N] [--block B]\n"
      "  [--algo cholesky|lu|qr] [--variant enhanced|online|offline|noft]\n"
      "  [--k K] [--placement auto|cpu|gpu|blocking]\n"
      "  [--mode timing|numeric] [--threads N] [--seed S] [--top K]\n"
      "  [--json-out FILE.json] [--postmortem-out FILE.json]\n"
      "  [--check-against BASELINE.json] [--tolerance T]\n"
      "\n"
      "Without --from, runs one factorization under the simulated-time\n"
      "profiler; with it, analyzes a saved profile document instead.\n"
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
  std::string machine = "tardis";
  std::string algo = "cholesky";
  std::string variant = "enhanced";
  std::string placement = "auto";
  std::string mode = "timing";
  int n = 2048;
  int block = 0;
  int k = 1;
  int threads = 1;
  int top = 12;
  std::uint64_t seed = 42;
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
    else if (opt == "--machine") a.machine = need(i);
    else if (opt == "--algo") a.algo = need(i);
    else if (opt == "--variant") a.variant = need(i);
    else if (opt == "--placement") a.placement = need(i);
    else if (opt == "--mode") a.mode = need(i);
    else if (opt == "--n") a.n = std::atoi(need(i));
    else if (opt == "--block") a.block = std::atoi(need(i));
    else if (opt == "--k") a.k = std::atoi(need(i));
    else if (opt == "--threads") a.threads = std::atoi(need(i));
    else if (opt == "--top") a.top = std::atoi(need(i));
    else if (opt == "--seed") a.seed = std::strtoull(need(i), nullptr, 10);
    else if (opt == "--json-out") a.json_path = need(i);
    else if (opt == "--postmortem-out")
      g_recorder.set_postmortem_path(need(i));
    else if (opt == "--check-against") a.baseline_path = need(i);
    else if (opt == "--tolerance") a.tolerance = std::atof(need(i));
    else if (opt == "--help" || opt == "-h") usage();
    else usage(("unknown option " + opt).c_str());
  }
  if (a.n <= 0) usage("--n must be positive");
  if (a.k <= 0) usage("--k must be positive");
  if (a.threads < 0) usage("--threads must be >= 0");
  if (a.top < 0) usage("--top must be >= 0");
  if (a.tolerance < 0.0) usage("--tolerance must be >= 0");
  if (a.mode != "timing" && a.mode != "numeric") usage("unknown --mode");
  return a;
}

/// Runs one factorization with the profiler attached and analyzes it.
obs::ProfileReport run_and_profile(const Args& args) {
  common::set_global_threads(args.threads);

  sim::MachineProfile profile;
  if (args.machine == "tardis") profile = sim::tardis();
  else if (args.machine == "bulldozer64") profile = sim::bulldozer64();
  else if (args.machine == "test") profile = sim::test_rig();
  else usage("unknown --machine");

  const bool numeric = args.mode == "numeric";
  sim::Machine machine(profile, numeric ? sim::ExecutionMode::Numeric
                                        : sim::ExecutionMode::TimingOnly);
  obs::SpanStore spans;
  machine.set_span_store(&spans);

  Matrix<double> a;
  if (numeric) {
    a = Matrix<double>(args.n, args.n);
    make_spd_diag_dominant(a, args.seed);
  }
  Matrix<double>* ap = numeric ? &a : nullptr;

  auto variant = [&]() -> abft::Variant {
    if (args.variant == "enhanced") return abft::Variant::EnhancedOnline;
    if (args.variant == "online") return abft::Variant::Online;
    if (args.variant == "offline") return abft::Variant::Offline;
    if (args.variant == "noft") return abft::Variant::NoFt;
    usage("unknown --variant");
  };

  if (args.algo == "cholesky") {
    abft::CholeskyOptions opt;
    opt.variant = variant();
    opt.block_size = args.block;
    opt.verify_interval = args.k;
    if (args.placement == "auto") opt.placement = abft::UpdatePlacement::Auto;
    else if (args.placement == "cpu") opt.placement = abft::UpdatePlacement::Cpu;
    else if (args.placement == "gpu") opt.placement = abft::UpdatePlacement::Gpu;
    else if (args.placement == "blocking")
      opt.placement = abft::UpdatePlacement::Blocking;
    else usage("unknown --placement");
    opt.profile = &spans;
    abft::cholesky(machine, ap, args.n, opt);
  } else if (args.algo == "lu") {
    if (args.variant != "enhanced" && args.variant != "noft") {
      usage("--algo lu supports --variant enhanced|noft");
    }
    abft::LuOptions opt;
    opt.variant = variant();
    opt.block_size = args.block;
    opt.verify_interval = args.k;
    opt.profile = &spans;
    abft::lu(machine, ap, args.n, opt);
  } else if (args.algo == "qr") {
    if (args.variant != "enhanced" && args.variant != "noft") {
      usage("--algo qr supports --variant enhanced|noft");
    }
    abft::QrOptions opt;
    opt.variant = variant();
    opt.block_size = args.block;
    opt.verify_interval = args.k;
    opt.profile = &spans;
    std::vector<double> tau;
    abft::qr(machine, ap, numeric ? &tau : nullptr, args.n, opt);
  } else {
    usage("unknown --algo");
  }

  obs::ProfileReport report = sim::build_profile(machine, spans, args.top);
  report.meta["machine"] = profile.name;
  report.meta["mode"] = args.mode;
  report.meta["algo"] = args.algo;
  report.meta["variant"] = args.variant;
  report.meta["n"] = std::to_string(args.n);
  report.meta["k"] = std::to_string(args.k);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  g_recorder.set_meta("tool", "ftla_profile_cli");
  g_recorder.set_meta(
      "source", args.from_path.empty() ? std::string("run") : args.from_path);
  g_recorder.note("args parsed");

  obs::ProfileReport report;
  if (!args.from_path.empty()) {
    if (!obs::read_profile_json_file(args.from_path, &report)) {
      std::fprintf(stderr, "cannot read profile %s\n", args.from_path.c_str());
      return g_recorder.finish(common::kExitIoError, "cannot read profile");
    }
  } else {
    report = run_and_profile(args);
    g_recorder.note("profiled run complete");
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
