// Service-level resilience bench (docs/fleet.md): virtual-time job
// latency (p50/p99 of the service.job_latency_s histogram) and
// throughput (jobs per virtual second) of the resilient factorization
// service, fault-free versus under fault pressure — a device loss, a
// stall window, a degraded device and per-job soft-error arrivals on
// the same fixed 12-job workload.
//
// Usage:
//   fleet_service [--metrics-out FILE]   (default BENCH_fleet.json)
//
// Everything is measured on the simulated clock, so the emitted report
// is byte-stable run to run; bench/baselines/BENCH_fleet.json pins it
// and the CI perf gate cmp's against the pin — any drift is a real
// scheduling/recovery-cost change, not noise.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "service/service.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace ftla;

constexpr int kDevices = 3;
constexpr int kJobs = 12;
constexpr int kBlock = 16;

/// The fixed workload both configurations run: a deterministic mix of
/// sizes and verify cadences, seeded per job.
std::vector<service::JobSpec> workload(double mtbf_s) {
  std::vector<service::JobSpec> jobs;
  jobs.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    service::JobSpec spec;
    spec.id = j;
    spec.block = kBlock;
    spec.n = kBlock * (6 + 2 * (j % 4));  // 96..192
    spec.matrix_seed = 1000u + 7919u * static_cast<unsigned>(j);
    spec.verify_interval = (j % 3 == 0) ? 2 : 1;
    spec.mtbf_s = mtbf_s;
    spec.fault_seed = 17u + static_cast<unsigned>(j);
    spec.max_arrivals = 6;
    jobs.push_back(spec);
  }
  return jobs;
}

struct RunStats {
  double p50 = 0.0;
  double p99 = 0.0;
  double jobs_per_s = 0.0;
  long long migrations = 0;
  long long losses = 0;
  long long retries = 0;
};

RunStats run_workload(const std::vector<fault::DeviceFaultSpec>& plan,
                      double mtbf_s, double* makespan_out) {
  sim::FleetProfile fp;
  fp.device = sim::test_rig();
  fp.devices = kDevices;
  fp.link_capacity = 1;
  sim::Fleet fleet(fp, sim::ExecutionMode::Numeric);

  obs::MetricsRegistry metrics;
  // Pre-create the latency histogram with fine log-spaced edges (~2%
  // resolution): the default decade buckets would collapse p50 and p99
  // of a 12-job run into one bucket.
  {
    std::vector<double> edges;
    for (double e = 1.0e-5; e < 1.0; e *= 1.02) edges.push_back(e);
    metrics.histogram("service.job_latency_s", edges);
  }
  service::ServiceOptions sopt;
  sopt.metrics = &metrics;
  service::FactorizationService svc(fleet, sopt);
  for (const auto& spec : workload(mtbf_s)) svc.submit(spec);
  svc.apply(plan);

  const std::vector<service::JobResult> results = svc.drain();
  for (const auto& r : results) {
    if (!r.success || r.sdc) {
      std::cerr << "job " << r.job_id << " did not finish cleanly ("
                << service::to_string(r.outcome) << ")\n";
      std::exit(1);
    }
  }

  RunStats s;
  const auto& lat = metrics.histogram("service.job_latency_s");
  s.p50 = lat.p50();
  s.p99 = lat.p99();
  const double makespan = fleet.makespan();
  s.jobs_per_s = static_cast<double>(results.size()) / makespan;
  s.migrations = metrics.counter("service.migrations");
  s.losses = metrics.counter("fleet.device_losses");
  s.retries = metrics.counter("service.retries");
  if (makespan_out != nullptr) *makespan_out = makespan;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using ftla::bench::print_header;
  using ftla::bench::print_table;

  ftla::bench::require_flags(argc, argv, {"--metrics-out"});
  std::string out = ftla::bench::metrics_out_path(argc, argv);
  if (out.empty()) out = "BENCH_fleet.json";

  print_header(
      "fleet_service",
      "Resilient factorization service on a 3-device test_rig fleet: "
      "virtual-time job latency and throughput for the same 12-job "
      "workload, fault-free vs under fault pressure (1 device loss + "
      "1 stall + 1 degrade + soft-error arrivals).");

  // Fault-free pass fixes the horizon the device-fault plan is sampled
  // against, so the loss lands mid-workload.
  double horizon = 0.0;
  const RunStats clean = run_workload({}, 0.0, &horizon);

  fault::DeviceFaultPlanConfig pc;
  pc.devices = kDevices;
  pc.loss_count = 1;
  pc.stall_count = 1;
  pc.degrade_count = 1;
  pc.horizon_s = horizon;
  pc.seed = 20260808;
  const std::vector<fault::DeviceFaultSpec> plan =
      fault::sample_device_faults(pc);
  const double mtbf_s = horizon / 48.0;  // a few arrivals per job
  const RunStats faulty = run_workload(plan, mtbf_s, nullptr);

  if (faulty.losses < 1 || faulty.migrations < 1) {
    std::cerr << "fault pressure did not exercise migration\n";
    return 1;
  }

  ftla::Table t({"configuration", "latency p50 (s)", "latency p99 (s)",
                 "jobs/s", "losses", "migrations", "retries"});
  auto add = [&](const std::string& name, const RunStats& s) {
    t.add_row({name, ftla::Table::num(s.p50, 6), ftla::Table::num(s.p99, 6),
               ftla::Table::num(s.jobs_per_s, 3), std::to_string(s.losses),
               std::to_string(s.migrations), std::to_string(s.retries)});
  };
  add("fault-free", clean);
  add("fault pressure", faulty);
  print_table(t);

  std::cout << "Latency tail and throughput costs of recovery are pinned "
               "in bench/baselines/BENCH_fleet.json; virtual time makes "
               "any drift a real modeling change.\n";

  obs::MetricsRegistry metrics;
  metrics.set_gauge("bench.fleet.faultfree.job_latency_p50_s", clean.p50);
  metrics.set_gauge("bench.fleet.faultfree.job_latency_p99_s", clean.p99);
  metrics.set_gauge("bench.fleet.faultfree.jobs_per_s", clean.jobs_per_s);
  metrics.set_gauge("bench.fleet.faulty.job_latency_p50_s", faulty.p50);
  metrics.set_gauge("bench.fleet.faulty.job_latency_p99_s", faulty.p99);
  metrics.set_gauge("bench.fleet.faulty.jobs_per_s", faulty.jobs_per_s);
  metrics.counter("bench.fleet.faulty.device_losses") = faulty.losses;
  metrics.counter("bench.fleet.faulty.migrations") = faulty.migrations;
  metrics.counter("bench.fleet.faulty.retries") = faulty.retries;

  ftla::bench::write_bench_report(
      out, "fleet_service",
      {{"devices", std::to_string(kDevices)},
       {"jobs", std::to_string(kJobs)},
       {"block", std::to_string(kBlock)},
       {"machine", "test_rig"},
       {"plan", "1 loss + 1 stall + 1 degrade"},
       {"timer", "virtual clock"}},
      metrics);
  return 0;
}
