// Shared pieces of the two-clock benchmark harness: run configuration,
// the metric record printed as JSON, host timing loops and the purity
// digest that proves watching does not change what runs.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host_clock_sink.hpp"
#include "sim/machine.hpp"

namespace ftla::obs {
class MetricsRegistry;
class SpanStore;
}  // namespace ftla::obs

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// Every output was checked by the benchmark's own oracle and the
  /// run's accounting reconciles; outputs that failed the check are
  /// counted in `failed`, not hidden.
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// What watches one timed call; all null for an untraced pass.
struct Hooks {
  HostClockSink* sink = nullptr;
  ftla::obs::SpanStore* spans = nullptr;
  ftla::obs::MetricsRegistry* metrics = nullptr;
};

/// A traced and an untraced execution of the same input disagreed on a
/// deterministic output, or two passes over one input did. Fails the
/// run; it is never recorded as a metric.
class PurityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Ordered record of a pass's deterministic outputs, printed exactly
/// (%.17g), so two executions compare bit for bit.
class Digest {
 public:
  void add(const std::string& key, double v);
  void add(const std::string& key, long long v);
  void add_stats(const std::string& prefix, const ftla::sim::SimStats& s);
  /// Throws PurityError naming the first differing key.
  void expect_equal(const Digest& other, const std::string& what) const;
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  /// FNV-1a hash of every key and value, printed so two processes (a
  /// traced and an untraced run of one seed) can be compared.
  [[nodiscard]] std::string hash() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Host seconds: process CPU time, the clock every timing metric uses
/// (host_clock_sink.hpp says why).
[[nodiscard]] double host_s();
/// Monotonic wall seconds; paces the run length only.
[[nodiscard]] double wall_s();
[[nodiscard]] double median(std::vector<double> v);
/// "min X s, max Y s" of a set of timings, for progress lines.
[[nodiscard]] std::string range(const std::vector<double>& v);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();
/// Independent sub-seed for stream `salt` of run seed `seed`.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);
/// 100 * part / whole, or 0 when `whole` is 0.
[[nodiscard]] double pct(double part, double whole);
/// Simulated operations a machine issued: kernels, host tasks, copies.
[[nodiscard]] long long sim_ops(const ftla::sim::SimStats& s);

/// Runs `setup` `count` times, timing each, and returns the median host
/// seconds.
double median_setup_s(int count, const std::function<void()>& setup);

/// Calls `pass(i)` (which returns its own host seconds) until `seconds`
/// of wall time have gone by, at least `min_passes` times; a pass is
/// started only while the run still has room for a median-length one.
/// Returns the passes' host seconds.
std::vector<double> run_passes(double seconds, int min_passes,
                               const std::function<double(int)>& pass);

/// Workloads. With cfg.trace they return the per-layer metrics of
/// their traced run, otherwise the end-to-end metrics.
RunResult run_dense_solve(const RunConfig& cfg);
RunResult run_paper_sweep(const RunConfig& cfg);
RunResult run_fleet_faulted(const RunConfig& cfg);

}  // namespace perfbench
