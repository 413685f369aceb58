// fleet_faulted: the service path. One pass builds a fresh 4-device
// test_rig fleet and a FactorizationService and drains one fixed FIFO
// batch of seeded jobs under soft-error pressure and a device-fault plan
// (2 losses, 1 stall, 1 degraded device) sampled against the batch's
// TimingOnly dry-run horizon. Per-job fixed costs dominate host time;
// BLAS runs 16-wide tiles, and the codec's detect/correct/rerun paths,
// migration and checkpoint resume all run here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "blas/lapack.hpp"
#include "common/rng.hpp"
#include "common/spd.hpp"
#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "host_clock_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "sim/fleet.hpp"

namespace perfbench {
namespace {

using namespace ftla;

constexpr int kDevices = 4;
constexpr int kLinkCapacity = 2;
constexpr int kJobs = 300;
/// Distinct seeded batches a run cycles through. The fault process and
/// plan make one batch's host and virtual figures differ from another's
/// by several percent; pass_s is the median over passes of all of them
/// and the virtual metrics are their mean.
constexpr int kBatches = 6;
/// Mean virtual seconds between soft errors: about three arrivals per
/// job at the test_rig job lengths of n = 64..128.
constexpr double kMtbfS = 6.0e-5;
constexpr double kSloLatencyS = 0.05;

/// What watches a drain. Service is the configuration ftla_fleet_cli
/// runs (metrics registry + SLO engine) and what pass_s measures.
enum class Watch { Bare, Service, Full, Traced };

struct Batch {
  std::uint64_t seed = 0;
  std::vector<service::JobSpec> jobs;
  double horizon_s = 0.0;
  std::vector<fault::DeviceFaultSpec> plan;
};

struct Drain {
  double host_s = 0.0;
  std::vector<service::JobResult> jobs;
  double makespan_s = 0.0;
  int losses = 0;
  std::vector<sim::SimStats> stats;  ///< per device
  obs::MetricsRegistry metrics;
};

/// Shuffled values 0..kinds-1 in equal shares: every batch has the same
/// mix of sizes, tenants and options, and the seed only reorders it and
/// draws the matrix and fault seeds.
std::vector<int> balanced(int kinds, Rng& rng) {
  std::vector<int> v(kJobs);
  for (int i = 0; i < kJobs; ++i) v[i] = i % kinds;
  for (int i = kJobs; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(static_cast<std::uint64_t>(i))]);
  }
  return v;
}

std::vector<service::JobSpec> draw_jobs(std::uint64_t seed) {
  Rng rng(seed);
  static const char* const kTenants[3] = {"alpha", "beta", "gamma"};
  static const abft::UpdatePlacement kPlacements[4] = {
      abft::UpdatePlacement::Blocking, abft::UpdatePlacement::Gpu,
      abft::UpdatePlacement::Cpu, abft::UpdatePlacement::Auto};
  const std::vector<int> size = balanced(5, rng);
  const std::vector<int> interval = balanced(2, rng);
  const std::vector<int> tenant = balanced(3, rng);
  const std::vector<int> placement = balanced(4, rng);
  const std::vector<int> recovery = balanced(3, rng);
  const std::vector<int> ecc = balanced(4, rng);
  std::vector<service::JobSpec> jobs(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    service::JobSpec& s = jobs[j];
    s.id = j;
    s.block = 16;
    s.n = 16 * (4 + size[j]);
    s.matrix_seed = rng.next_u64() | 1ULL;
    s.fault_seed = rng.next_u64() | 1ULL;
    s.tenant = kTenants[tenant[j]];
    s.variant = abft::Variant::EnhancedOnline;
    s.recovery = recovery[j] == 0 ? abft::Recovery::Checkpoint
                                  : abft::Recovery::Rerun;
    s.placement = kPlacements[placement[j]];
    s.verify_interval = 1 + interval[j];
    s.transfer_guard = true;
    s.ecc = ecc[j] == 0;
    s.mtbf_s = kMtbfS;
    s.max_arrivals = 6;
  }
  return jobs;
}

std::unique_ptr<Drain> drain(const std::vector<service::JobSpec>& jobs,
                             const std::vector<fault::DeviceFaultSpec>& plan,
                             sim::ExecutionMode mode, Watch watch,
                             HostClockSink* sink = nullptr) {
  auto out = std::make_unique<Drain>();
  obs::SloEngine slo;
  obs::TraceStore trace;
  if (sink != nullptr) sink->mark();
  const double t0 = host_s();
  sim::FleetProfile fp;
  fp.device = sim::test_rig();
  fp.devices = kDevices;
  fp.link_capacity = kLinkCapacity;
  sim::Fleet fleet(fp, mode);
  service::ServiceOptions so;
  if (watch != Watch::Bare) {
    for (const auto& spec : obs::SloEngine::default_fleet_slos(kSloLatencyS)) {
      slo.add(spec);
    }
    so.metrics = &out->metrics;
    so.slo = &slo;
  }
  if (watch == Watch::Full) so.trace = &trace;
  if (watch == Watch::Traced) {
    for (int d = 0; d < fleet.size(); ++d) fleet.device(d).set_event_sink(sink);
  }
  service::FactorizationService svc(fleet, so);
  svc.apply(plan);
  for (const auto& spec : jobs) svc.submit(spec);
  out->jobs = svc.drain();
  out->host_s = host_s() - t0;
  out->makespan_s = fleet.makespan();
  out->losses = fleet.losses_discovered();
  for (int d = 0; d < fleet.size(); ++d) {
    out->stats.push_back(fleet.device(d).stats());
  }
  return out;
}

Batch make_batch(std::uint64_t seed) {
  Batch b;
  b.seed = seed;
  b.jobs = draw_jobs(seed);
  return b;
}

/// Set-up of one batch: the TimingOnly dry run whose makespan is the
/// fault-sampling horizon, then the device-fault plan.
void set_up(Batch* b) {
  b->horizon_s =
      drain(b->jobs, {}, sim::ExecutionMode::TimingOnly, Watch::Bare)
          ->makespan_s;
  fault::DeviceFaultPlanConfig pc;
  pc.devices = kDevices;
  pc.loss_count = 2;
  pc.stall_count = 1;
  pc.degrade_count = 1;
  pc.horizon_s = b->horizon_s;
  pc.seed = mix_seed(b->seed, 7);
  b->plan = fault::sample_device_faults(pc);
}

bool failed(const service::JobResult& r) {
  return r.sdc || r.outcome == service::JobOutcome::ExhaustedRetries ||
         r.outcome == service::JobOutcome::FailStop;
}

Digest digest(const Drain& d) {
  Digest g;
  g.add("makespan_s", d.makespan_s);
  g.add("losses", static_cast<long long>(d.losses));
  for (const auto& r : d.jobs) {
    const std::string k = "job" + std::to_string(r.job_id);
    g.add(k + ".outcome", static_cast<long long>(r.outcome));
    g.add(k + ".sdc", static_cast<long long>(r.sdc));
    g.add(k + ".residual", r.residual);
    g.add(k + ".attempts", static_cast<long long>(r.attempts));
    g.add(k + ".device", static_cast<long long>(r.device));
    g.add(k + ".migrations", static_cast<long long>(r.migrations));
    g.add(k + ".resumed", static_cast<long long>(r.resumed_iterations));
    g.add(k + ".submit", r.submit_time);
    g.add(k + ".start", r.start_time);
    g.add(k + ".end", r.end_time);
    g.add(k + ".fired", static_cast<long long>(r.faults_fired));
    g.add(k + ".detected", static_cast<long long>(r.faults_detected));
    g.add(k + ".reruns", static_cast<long long>(r.reruns));
    g.add(k + ".rollbacks", static_cast<long long>(r.rollbacks));
  }
  for (std::size_t i = 0; i < d.stats.size(); ++i) {
    g.add_stats("dev" + std::to_string(i), d.stats[i]);
  }
  return g;
}

/// The run's own accounting check: every admitted job came back exactly
/// once, in admission order, and the service's registry agrees with the
/// per-job results.
bool reconciles(const Batch& b, const Drain& d, bool with_registry) {
  if (d.jobs.size() != b.jobs.size()) return false;
  long long sdc = 0;
  long long migrations = 0;
  for (std::size_t i = 0; i < d.jobs.size(); ++i) {
    if (d.jobs[i].job_id != b.jobs[i].id) return false;
    if (d.jobs[i].success && !std::isfinite(d.jobs[i].residual) &&
        !d.jobs[i].sdc) {
      return false;
    }
    sdc += d.jobs[i].sdc ? 1 : 0;
    migrations += d.jobs[i].migrations;
  }
  if (!with_registry) return true;
  const auto& c = d.metrics.counters();
  auto get = [&](const std::string& k) {
    auto it = c.find(k);
    return it == c.end() ? 0LL : it->second;
  };
  long long outcomes = 0;
  for (int o = 0; o < service::kJobOutcomeCount; ++o) {
    outcomes += get(std::string("service.jobs.") +
                    service::to_string(static_cast<service::JobOutcome>(o)));
  }
  return outcomes == static_cast<long long>(b.jobs.size()) &&
         get("service.jobs.sdc") == sdc &&
         get("service.migrations") == migrations;
}

void print_sdc(const Batch& b, const Drain& d) {
  for (const auto& r : d.jobs) {
    if (!r.sdc) continue;
    const service::JobSpec& s = b.jobs[static_cast<std::size_t>(r.job_id)];
    std::printf(
        "fleet_faulted: sdc job batch_seed=%llu job=%d n=%d block=%d "
        "matrix_seed=%llu fault_seed=%llu verify_interval=%d placement=%s "
        "recovery=%s ecc=%d mtbf=%.17g residual=%.3e\n",
        static_cast<unsigned long long>(b.seed), s.id, s.n, s.block,
        static_cast<unsigned long long>(s.matrix_seed),
        static_cast<unsigned long long>(s.fault_seed), s.verify_interval,
        abft::to_string(s.placement), abft::to_string(s.recovery),
        static_cast<int>(s.ecc), s.mtbf_s, r.residual);
  }
}

sim::SimStats total(const std::vector<sim::SimStats>& per_device) {
  sim::SimStats t;
  for (const auto& s : per_device) {
    for (const auto& [cls, cs] : s.gpu) t.gpu[cls].count += cs.count;
    for (const auto& [cls, cs] : s.host) t.host[cls].count += cs.count;
    t.h2d_count += s.h2d_count;
    t.d2h_count += s.d2h_count;
    t.h2d_bytes += s.h2d_bytes;
    t.d2h_bytes += s.d2h_bytes;
  }
  return t;
}

/// Host seconds the service's residual oracle (blas::cholesky_residual)
/// spends on one drain of `b`: timed per distinct job size, weighted by
/// the jobs of that size the oracle judged.
double oracle_seconds(const Batch& b, const Drain& d) {
  std::map<int, int> judged;
  for (const auto& r : d.jobs) {
    if (r.success) ++judged[b.jobs[static_cast<std::size_t>(r.job_id)].n];
  }
  double total_s = 0.0;
  for (const auto& [n, count] : judged) {
    Matrix<double> a(n, n);
    make_spd_diag_dominant(a, static_cast<std::uint64_t>(n));
    Matrix<double> l = a;
    blas::potrf(l.view());
    std::vector<double> t;
    volatile double keep = 0.0;
    for (int rep = 0; rep < 7; ++rep) {
      const double t0 = host_s();
      keep = keep + blas::cholesky_residual(std::as_const(a).view(),
                                            std::as_const(l).view());
      t.push_back(host_s() - t0);
    }
    total_s += median(t) * count;
  }
  return total_s;
}

}  // namespace

RunResult run_fleet_faulted(const RunConfig& cfg) {
  std::vector<Batch> batches;
  const int batch_count = cfg.trace ? 1 : kBatches;
  for (int b = 0; b < batch_count; ++b) {
    batches.push_back(make_batch(mix_seed(cfg.seed, 2000 + static_cast<unsigned>(b))));
  }
  // setup_s: the median over the batches' set-ups.
  std::vector<double> setups;
  for (Batch& b : batches) {
    const double t0 = host_s();
    set_up(&b);
    setups.push_back(host_s() - t0);
  }

  RunResult out;
  std::vector<Digest> reference(batches.size());
  std::vector<std::unique_ptr<Drain>> first(batches.size());
  // Each job of each batch counts once in attempted/failed, on the
  // batch's first drain: every later drain of the batch must reproduce
  // that drain's digest (each job's outcome and sdc flag included), so
  // the counts depend on the seed only, not on how many passes fit.
  auto check = [&](int bi, std::unique_ptr<Drain> d, bool with_registry,
                   const char* what) {
    const Batch& b = batches[static_cast<std::size_t>(bi)];
    if (!reconciles(b, *d, with_registry)) out.correct = false;
    const Digest g = digest(*d);
    if (reference[bi].empty()) {
      for (const auto& r : d->jobs) {
        ++out.attempted;
        if (failed(r)) ++out.failed;
      }
      const auto dropped = static_cast<long long>(b.jobs.size()) -
                           static_cast<long long>(d->jobs.size());
      out.attempted += std::max(0LL, dropped);
      out.failed += std::max(0LL, dropped);
      reference[bi] = g;
      std::printf("fleet_faulted: deterministic digest batch %d %s\n", bi,
                  g.hash().c_str());
      print_sdc(b, *d);
      first[bi] = std::move(d);
    } else {
      g.expect_equal(reference[bi], what);
    }
  };

  if (!cfg.trace) {
    const std::vector<double> times =
        run_passes(cfg.seconds, kBatches, [&](int i) {
          const int bi = i % kBatches;
          auto d = drain(batches[bi].jobs, batches[bi].plan,
                         sim::ExecutionMode::Numeric, Watch::Service);
          const double s = d->host_s;
          check(bi, std::move(d), true, "pass vs first pass of its batch");
          return s;
        });
    std::printf("fleet_faulted: %d batches of %d jobs; pass_s is the median "
                "of %zu passes (%s); median pass per batch",
                kBatches, kJobs, times.size(), range(times).c_str());
    for (int bi = 0; bi < kBatches; ++bi) {
      std::vector<double> mine;
      for (std::size_t i = static_cast<std::size_t>(bi); i < times.size();
           i += kBatches) {
        mine.push_back(times[i]);
      }
      std::printf(" %.3f", median(mine));
    }
    std::printf(" s\n");
    Stats makespan, overhead, p50, p90;
    for (int bi = 0; bi < kBatches; ++bi) {
      const Drain& d = *first[bi];
      std::vector<double> lat;
      for (const auto& r : d.jobs) lat.push_back(r.latency());
      makespan.add(d.makespan_s);
      overhead.add(100.0 * (d.makespan_s / batches[bi].horizon_s - 1.0));
      p50.add(percentile(lat, 0.5));
      p90.add(percentile(lat, 0.9));
    }
    out.add("setup_s", median(setups), "s");
    out.add("pass_s", median(times), "s");
    out.add("virt_s", makespan.mean(), "sim_s");
    out.add("virt_overhead_pct", overhead.mean(), "%");
    out.add("job_p50_virt_s", p50.mean(), "sim_s");
    out.add("job_p90_virt_s", p90.mean(), "sim_s");
    out.add("ok_pct", 100.0 * (out.attempted - out.failed) / out.attempted,
            "%");
    return out;
  }

  // Traced run on the first batch: the configuration pass_s measures
  // (Service), the same with host-clock sinks on every device (Traced),
  // with the service's registry, SLO engine and a TraceStore (Full) and
  // with none of them (Bare), in rotation.
  const Batch& b = batches[0];
  HostClockSink sink;
  std::vector<double> times[4];
  long long events = 0;
  double traced_s = 0.0;
  run_passes(cfg.seconds, 8, [&](int i) {
    static const Watch kCycle[4] = {Watch::Service, Watch::Traced,
                                    Watch::Full, Watch::Bare};
    const Watch w = kCycle[i % 4];
    const std::int64_t posted0 = sink.posted();
    auto d = drain(b.jobs, b.plan, sim::ExecutionMode::Numeric, w,
                   w == Watch::Traced ? &sink : nullptr);
    const double s = d->host_s;
    if (w == Watch::Traced) {
      events += sink.posted() - posted0;
      traced_s += s;
    }
    times[static_cast<int>(w)].push_back(s);
    check(0, std::move(d), w != Watch::Bare, "drain under another watch");
    return s;
  });
  const std::vector<double>& bare = times[static_cast<int>(Watch::Bare)];
  const std::vector<double>& plain = times[static_cast<int>(Watch::Service)];
  const std::vector<double>& full = times[static_cast<int>(Watch::Full)];
  const std::vector<double>& traced = times[static_cast<int>(Watch::Traced)];

  // The first half of the batch drained alone, for per-job growth.
  const std::vector<service::JobSpec> half(b.jobs.begin(),
                                           b.jobs.begin() + kJobs / 2);
  std::vector<double> half_s;
  for (int rep = 0; rep < 3; ++rep) {
    half_s.push_back(drain(half, b.plan, sim::ExecutionMode::Numeric,
                           Watch::Service)
                         ->host_s);
  }

  const Drain& d = *first[0];
  const sim::SimStats st = total(d.stats);
  const long long ops = sim_ops(st);
  long long attempts = 0, migrations = 0, retries = 0, resumed = 0, sdc = 0;
  long long fired = 0, detected = 0, reruns = 0, rollbacks = 0, finished = 0;
  std::int64_t ck_bytes = 0;
  std::vector<double> waits;
  for (const auto& r : d.jobs) {
    attempts += r.attempts;
    migrations += r.migrations;
    retries += std::max(0, r.attempts - 1);
    resumed += r.resumed_iterations;
    sdc += r.sdc ? 1 : 0;
    fired += r.faults_fired;
    detected += r.faults_detected;
    reruns += r.reruns;
    rollbacks += r.rollbacks;
    finished += r.success ? 1 : 0;
    ck_bytes += r.checkpoint_bytes;
    if (r.attempts > 0) waits.push_back(r.start_time - r.submit_time);
  }
  const double ns_traced = traced_s * 1e9;
  const Charge gemm = sink.named("gemm");
  const double pass = median(plain);
  out.add("blas.host_share_pct",
          pct(static_cast<double>(sink.layer_ns(Layer::Blas)), ns_traced), "%");
  out.add("blas.small_gemm_gflops",
          gemm.ns > 0 ? static_cast<double>(gemm.flops) /
                            static_cast<double>(gemm.ns)
                      : 0.0,
          "GFLOP/s");
  out.add("abft.codec_host_share_pct",
          pct(static_cast<double>(sink.layer_ns(Layer::Codec)), ns_traced),
          "%");
  out.add("abft.reruns", static_cast<double>(reruns), "count");
  out.add("abft.rollbacks", static_cast<double>(rollbacks), "count");
  out.add("sim.ops", static_cast<double>(ops), "count");
  out.add("sim.host_ns_per_op", pass * 1e9 / static_cast<double>(ops), "ns/op");
  out.add("sim.copy_host_share_pct",
          pct(static_cast<double>(sink.layer_ns(Layer::Copy)), ns_traced), "%");
  out.add("sim.h2d_mb", static_cast<double>(st.h2d_bytes) / 1e6, "MB");
  out.add("sim.d2h_mb", static_cast<double>(st.d2h_bytes) / 1e6, "MB");
  out.add("fault.fired", static_cast<double>(fired), "count");
  out.add("fault.detected", static_cast<double>(detected), "count");
  out.add("fault.detect_ratio",
          fired > 0 ? static_cast<double>(detected) / static_cast<double>(fired)
                    : 0.0,
          "ratio");
  out.add("service.jobs", static_cast<double>(d.jobs.size()), "count");
  out.add("service.attempts", static_cast<double>(attempts), "count");
  out.add("service.migrations", static_cast<double>(migrations), "count");
  out.add("service.retries", static_cast<double>(retries), "count");
  out.add("service.resumed_iterations", static_cast<double>(resumed), "count");
  out.add("service.checkpoint_mb", static_cast<double>(ck_bytes) / 1e6, "MB");
  out.add("service.sdc_jobs", static_cast<double>(sdc), "count");
  out.add("service.host_ms_per_job", pass * 1e3 / kJobs, "ms/job");
  out.add("service.per_job_growth",
          (pass / kJobs) / (median(half_s) / (kJobs / 2)), "ratio");
  out.add("service.useful_attempt_ratio",
          static_cast<double>(finished) / static_cast<double>(attempts),
          "ratio");
  out.add("service.queue_wait_p90_virt_s", percentile(waits, 0.9), "sim_s");
  out.add("service.oracle_host_share_pct", pct(oracle_seconds(b, d), pass),
          "%");
  out.add("obs.events",
          static_cast<double>(events / static_cast<long long>(traced.size())),
          "count");
  out.add("obs.service_overhead_pct",
          100.0 * (median(full) / median(bare) - 1.0), "%");
  out.add("obs.trace_overhead_pct", 100.0 * (median(traced) / pass - 1.0), "%");
  std::printf("fleet_faulted: traced %zu, untraced %zu, full-obs %zu, bare "
              "%zu drains; half-batch drains %zu\n",
              traced.size(), plain.size(), full.size(), bare.size(),
              half_s.size());
  return out;
}

}  // namespace perfbench
