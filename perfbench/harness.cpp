// Two-clock benchmark harness (README.md in this directory).
//
//   perfbench_harness --workload dense_solve|paper_sweep|fleet_faulted
//                     --seed N --seconds S --trace 0|1
//
// Prints progress lines, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// of the traced run. Exits 1 without a result when a check cannot be
// made or the purity check fails, 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "fma_probe.hpp"
#include "host_clock_sink.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json lists, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"pass_s", "s"},
    {"virt_s", "sim_s"},        {"virt_overhead_pct", "%"},
    {"job_p50_virt_s", "sim_s"}, {"job_p90_virt_s", "sim_s"},
    {"peak_rss_mb", "MB"},      {"ok_pct", "%"},
};

constexpr MetricSpec kPerLayer[] = {
    {"blas.host_share_pct", "%"},
    {"blas.gemm_gflops", "GFLOP/s"},
    {"blas.syrk_gflops", "GFLOP/s"},
    {"blas.trsm_gflops", "GFLOP/s"},
    {"blas.potf2_gflops", "GFLOP/s"},
    {"blas.small_gemm_gflops", "GFLOP/s"},
    {"blas.fma_peak_gflops", "GFLOP/s"},
    {"blas.gemm_peak_pct", "%"},
    {"abft.codec_host_share_pct", "%"},
    {"abft.codec_us_per_block", "us/block"},
    {"abft.verified_blocks", "count"},
    {"abft.recalc_kernels", "count"},
    {"abft.critical_pct", "%"},
    {"abft.reruns", "count"},
    {"abft.rollbacks", "count"},
    {"sim.ops", "count"},
    {"sim.host_ns_per_op", "ns/op"},
    {"sim.ns_per_op_growth", "ratio"},
    {"sim.copy_host_share_pct", "%"},
    {"sim.h2d_mb", "MB"},
    {"sim.d2h_mb", "MB"},
    {"sim.gpu_util_pct", "%"},
    {"sim.idle_critical_pct", "%"},
    {"runtime.tasks", "count"},
    {"runtime.edges", "count"},
    {"runtime.waits_elided", "count"},
    {"runtime.host_us_per_task", "us/task"},
    {"runtime.dag_gain_pct_tardis", "%"},
    {"runtime.dag_gain_pct_bulldozer64", "%"},
    {"fault.fired", "count"},
    {"fault.detected", "count"},
    {"fault.detect_ratio", "ratio"},
    {"service.jobs", "count"},
    {"service.attempts", "count"},
    {"service.migrations", "count"},
    {"service.retries", "count"},
    {"service.resumed_iterations", "count"},
    {"service.checkpoint_mb", "MB"},
    {"service.sdc_jobs", "count"},
    {"service.host_ms_per_job", "ms/job"},
    {"service.per_job_growth", "ratio"},
    {"service.useful_attempt_ratio", "ratio"},
    {"service.queue_wait_p90_virt_s", "sim_s"},
    {"service.oracle_host_share_pct", "%"},
    {"obs.events", "count"},
    {"obs.service_overhead_pct", "%"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench_harness --workload "
               "dense_solve|paper_sweep|fleet_faulted --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  std::exit(2);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Orders the workload's metrics as `specs` lists them. Per-layer
/// metrics a workload does not produce are reported as 0: its run does
/// no work in that layer. Any other mismatch is a harness bug.
template <std::size_t N>
std::vector<Metric> canonical(const std::vector<Metric>& got,
                              const MetricSpec (&specs)[N],
                              bool fill_missing) {
  std::map<std::string, Metric> by_name;
  for (const auto& m : got) {
    if (!by_name.emplace(m.name, m).second) {
      throw std::logic_error("metric reported twice: " + m.name);
    }
  }
  std::vector<Metric> out;
  for (const auto& s : specs) {
    auto it = by_name.find(s.name);
    if (it == by_name.end()) {
      if (!fill_missing) {
        throw std::logic_error(std::string("metric missing: ") + s.name);
      }
      out.push_back({s.name, 0.0, s.unit});
      continue;
    }
    if (it->second.unit != s.unit) {
      throw std::logic_error("metric " + it->first + " has unit " +
                             it->second.unit);
    }
    if (!std::isfinite(it->second.value)) {
      throw std::logic_error("metric " + it->first + " is not finite");
    }
    out.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::logic_error("unlisted metric: " + by_name.begin()->first);
  }
  return out;
}

void print_result(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace

// ----- shared helpers ------------------------------------------------

void Digest::add(const std::string& key, double v) {
  items_.emplace_back(key, fmt(v));
}

void Digest::add(const std::string& key, long long v) {
  items_.emplace_back(key, std::to_string(v));
}

void Digest::add_stats(const std::string& prefix,
                       const ftla::sim::SimStats& s) {
  for (const auto& [cls, cs] : s.gpu) {
    const std::string k = prefix + ".gpu." + ftla::sim::to_string(cls);
    add(k + ".count", cs.count);
    add(k + ".flops", static_cast<long long>(cs.flops));
    add(k + ".busy_s", cs.busy_seconds);
  }
  for (const auto& [cls, cs] : s.host) {
    const std::string k = prefix + ".host." + ftla::sim::to_string(cls);
    add(k + ".count", cs.count);
    add(k + ".flops", static_cast<long long>(cs.flops));
    add(k + ".busy_s", cs.busy_seconds);
  }
  add(prefix + ".h2d_count", s.h2d_count);
  add(prefix + ".d2h_count", s.d2h_count);
  add(prefix + ".h2d_bytes", static_cast<long long>(s.h2d_bytes));
  add(prefix + ".d2h_bytes", static_cast<long long>(s.d2h_bytes));
  add(prefix + ".h2d_s", s.h2d_seconds);
  add(prefix + ".d2h_s", s.d2h_seconds);
  add(prefix + ".host_busy_s", s.host_busy_seconds);
}

void Digest::expect_equal(const Digest& other, const std::string& what) const {
  const std::size_t n = std::min(items_.size(), other.items_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (items_[i] != other.items_[i]) {
      throw PurityError(what + ": " + items_[i].first + "=" +
                        items_[i].second + " vs " + other.items_[i].first +
                        "=" + other.items_[i].second);
    }
  }
  if (items_.size() != other.items_.size()) {
    throw PurityError(what + ": " + std::to_string(items_.size()) +
                      " outputs vs " + std::to_string(other.items_.size()));
  }
}

std::string Digest::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
    h = (h ^ 0xffU) * 0x100000001b3ULL;
  };
  for (const auto& [k, v] : items_) {
    mix(k);
    mix(v);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double host_s() { return static_cast<double>(host_now_ns()) * 1e-9; }

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::string range(const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[64];
  std::snprintf(buf, sizeof buf, "min %.3f s, max %.3f s", *lo, *hi);
  return buf;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("percentile of nothing");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1ULL;
}

double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

long long sim_ops(const ftla::sim::SimStats& s) {
  long long ops = s.h2d_count + s.d2h_count;
  for (const auto& [cls, cs] : s.gpu) ops += cs.count;
  for (const auto& [cls, cs] : s.host) ops += cs.count;
  return ops;
}

double median_setup_s(int count, const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < count; ++i) {
    const double t0 = host_s();
    setup();
    t.push_back(host_s() - t0);
  }
  return median(t);
}

std::vector<double> run_passes(double seconds, int min_passes,
                               const std::function<double(int)>& pass) {
  const double t0 = wall_s();
  std::vector<double> times;
  for (int i = 0;; ++i) {
    if (i >= min_passes &&
        wall_s() - t0 + median(times) > seconds) {
      break;
    }
    times.push_back(pass(i));
  }
  return times;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = v;
      have[0] = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
      have[1] = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(cfg.seconds > 0.0) || cfg.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
      have[2] = true;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      cfg.trace = v[0] == '1';
      have[3] = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }

  // Host BLAS on one pool lane and no campaign threads: single-threaded
  // host work is what makes a layer's share of pass_s a bound on what
  // speeding it up can save.
  ftla::common::set_global_threads(1);

  try {
    RunResult r;
    if (cfg.workload == "dense_solve") {
      r = run_dense_solve(cfg);
    } else if (cfg.workload == "paper_sweep") {
      r = run_paper_sweep(cfg);
    } else if (cfg.workload == "fleet_faulted") {
      r = run_fleet_faulted(cfg);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
    if (cfg.trace) {
      const double peak = fma_peak_gflops(7);
      r.add("blas.fma_peak_gflops", peak, "GFLOP/s");
      r.add("blas.gemm_peak_pct", 100.0 * gemm_gflops(512, 5) / peak, "%");
      r.metrics = canonical(r.metrics, kPerLayer, true);
    } else {
      r.add("peak_rss_mb", peak_rss_mb(), "MB");
      r.metrics = canonical(r.metrics, kEndToEnd, false);
    }
    if (r.attempted < 1) throw std::logic_error("no operation attempted");
    print_result(r);
  } catch (const PurityError& e) {
    std::fprintf(stderr, "purity check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
