// Shared helpers for the experiment harnesses in bench/.
//
// Each bench binary regenerates one table or figure of the paper. The
// figure benches sweep paper-scale matrix sizes in TimingOnly mode (the
// full call schedule is priced on the virtual clock without numeric
// payloads); the fault-capability tables run full numerics with real
// injected faults at a reduced size and combine the measured behaviour
// ratios with paper-scale baseline times.
// The benches that export measurements accept `--metrics-out FILE` to
// additionally dump them as a schema-versioned MetricsReport (see
// docs/observability.md), so table regeneration is machine-diffable,
// and `--profile-out FILE` to save the simulated-time profile of one
// representative run (the largest fully optimized configuration) as a
// schema-versioned ProfileReport for the perf-regression gate. The
// performance bench also accepts `--timeseries-out FILE` for a
// windowed occupancy TimeSeriesReport of that representative run. All
// three artifacts are inputs to ftla_report_cli, which fuses them into
// the self-contained HTML run report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/cula_like.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/profile_report.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/profiler.hpp"

namespace ftla::bench {

/// The paper's sweep for each testbed (Section VII-A).
inline std::vector<int> tardis_sizes() {
  return {5120, 7680, 10240, 12800, 15360, 17920, 20480, 23040};
}
inline std::vector<int> bulldozer_sizes() {
  return {5120, 10240, 15360, 20480, 25600, 30720};
}

/// Virtual seconds of one TimingOnly factorization.
inline double timing_run(const sim::MachineProfile& profile, int n,
                         const abft::CholeskyOptions& opt) {
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  auto res = abft::cholesky(m, nullptr, n, opt);
  if (!res.success) {
    std::cerr << "timing run failed: " << res.note << "\n";
    std::exit(1);
  }
  return res.seconds;
}

/// Like timing_run, but with the simulated-time profiler attached:
/// `*out` receives the analyzed ProfileReport of the run.
inline double timing_run_profiled(const sim::MachineProfile& profile, int n,
                                  abft::CholeskyOptions opt,
                                  obs::ProfileReport* out) {
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  opt.profile = &spans;
  auto res = abft::cholesky(m, nullptr, n, opt);
  if (!res.success) {
    std::cerr << "timing run failed: " << res.note << "\n";
    std::exit(1);
  }
  *out = sim::build_profile(m, spans);
  return res.seconds;
}

inline abft::CholeskyOptions noft_options() {
  abft::CholeskyOptions opt;
  opt.variant = abft::Variant::NoFt;
  return opt;
}

/// The per-system Opt-2 placement the paper uses (§VII-D).
inline abft::UpdatePlacement paper_placement(
    const sim::MachineProfile& profile) {
  return profile.name == "tardis" ? abft::UpdatePlacement::Cpu
                                  : abft::UpdatePlacement::Gpu;
}

/// Fully optimized Enhanced Online-ABFT configuration for a system.
inline abft::CholeskyOptions enhanced_options(
    const sim::MachineProfile& profile, int verify_interval = 1) {
  abft::CholeskyOptions opt;
  opt.variant = abft::Variant::EnhancedOnline;
  opt.verify_interval = verify_interval;
  opt.concurrent_recalc = true;
  opt.placement = paper_placement(profile);
  return opt;
}

inline abft::CholeskyOptions variant_options(
    const sim::MachineProfile& profile, abft::Variant v,
    int verify_interval = 1) {
  abft::CholeskyOptions opt = enhanced_options(profile, verify_interval);
  opt.variant = v;
  return opt;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

inline void print_table(const Table& t, bool csv = true) {
  t.print(std::cout);
  if (csv) {
    std::cout << "\ncsv:\n";
    t.print_csv(std::cout);
  }
  std::cout << std::endl;
}

/// Exits with a usage error unless argv is `--flag value` pairs whose
/// flags are all in `flags`, so a mistyped or retired flag (such as the
/// figure benches' old `--runtime`) is refused instead of ignored.
inline void require_flags(int argc, char** argv,
                          std::initializer_list<const char*> flags) {
  for (int i = 1; i < argc; i += 2) {
    bool known = false;
    for (const char* f : flags) known = known || std::strcmp(argv[i], f) == 0;
    if (!known || i + 1 >= argc) {
      std::cerr << "usage error: "
                << (known ? "missing value for " : "unknown option ")
                << argv[i] << "\n";
      std::exit(common::kExitUsage);
    }
  }
}

/// Best-of-N host wall time of `body` (seconds) for the chrono harnesses
/// (kernels_blas, kernels_sim); repetitions adapt to the cost of one
/// call so each cell measures for roughly a quarter second.
template <typename Fn>
double best_seconds(Fn&& body) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  body();  // warmup, also sizes the repetition count
  const double once =
      std::chrono::duration<double>(clock::now() - t0).count();
  const int reps =
      std::clamp(static_cast<int>(0.25 / std::max(once, 1e-4)), 1, 50);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t1 = clock::now();
    body();
    const double dt =
        std::chrono::duration<double>(clock::now() - t1).count();
    best = std::min(best, dt);
  }
  return best;
}

/// Returns the value of `--metrics-out FILE` from a bench's argv, or ""
/// when absent.
inline std::string metrics_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0) return argv[i + 1];
  }
  return {};
}

/// Returns the value of `--profile-out FILE` from a bench's argv, or ""
/// when absent.
inline std::string profile_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--profile-out") == 0) return argv[i + 1];
  }
  return {};
}

/// Returns the value of `--timeseries-out FILE` from a bench's argv, or
/// "" when absent.
inline std::string timeseries_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--timeseries-out") == 0) return argv[i + 1];
  }
  return {};
}

/// Returns the comma-separated list of `--sizes N1,N2,...` from a
/// bench's argv, or `fallback` when the flag is absent. Lets CI rerun a
/// paper-scale sweep at tractable sizes.
inline std::vector<int> sizes_override(int argc, char** argv,
                                       std::vector<int> fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--sizes") != 0) continue;
    std::vector<int> sizes;
    std::stringstream ss(argv[i + 1]);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const int n = std::atoi(item.c_str());
      if (n > 0) sizes.push_back(n);
    }
    if (!sizes.empty()) return sizes;
  }
  return fallback;
}

/// Writes a MetricsReport for a bench run when `path` is non-empty.
/// `meta` pairs describe the experiment (table name, machine, sizes...).
inline void write_bench_report(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const obs::MetricsRegistry& metrics) {
  if (path.empty()) return;
  obs::MetricsReport report;
  report.add_meta("bench", bench);
  for (const auto& [k, v] : meta) report.add_meta(k, v);
  report.metrics = metrics;
  if (obs::write_metrics_json_file(report, path)) {
    std::cout << "metrics report: " << path << "\n";
  } else {
    std::cerr << "failed to write " << path << "\n";
    std::exit(1);
  }
}

/// Re-runs one configuration with a span store attached and writes the
/// windowed time-series report (resource occupancy over virtual time;
/// obs/timeseries.hpp) when `path` is non-empty. The rollup window is
/// makespan / 20, matching ftla_cli's --timeseries-out default, so
/// bench exports render side by side with run exports in
/// ftla_report_cli.
inline void write_bench_timeseries(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const sim::MachineProfile& profile, int n,
    const abft::CholeskyOptions& opt) {
  if (path.empty()) return;
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  auto res = abft::cholesky(m, nullptr, n, opt);
  if (!res.success) {
    std::cerr << "timeseries run failed: " << res.note << "\n";
    std::exit(1);
  }
  obs::TimeSeriesStore store;
  sim::append_machine_timeseries(spans, m.makespan(), &store);
  obs::TimeSeriesReport report =
      obs::build_timeseries_report(store, m.makespan() / 20.0);
  report.meta["bench"] = bench;
  for (const auto& [k, v] : meta) report.meta[k] = v;
  if (obs::write_timeseries_json_file(report, path)) {
    std::cout << "timeseries report: " << path << "\n";
  } else {
    std::cerr << "failed to write " << path << "\n";
    std::exit(1);
  }
}

/// Writes a bench's captured ProfileReport when `path` is non-empty.
/// `meta` pairs describe the profiled configuration (machine, n, K...).
inline void write_bench_profile(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& meta,
    obs::ProfileReport report) {
  if (path.empty()) return;
  report.meta["bench"] = bench;
  for (const auto& [k, v] : meta) report.meta[k] = v;
  if (obs::write_profile_json_file(report, path)) {
    std::cout << "profile report: " << path << "\n";
  } else {
    std::cerr << "failed to write " << path << "\n";
    std::exit(1);
  }
}

}  // namespace ftla::bench
