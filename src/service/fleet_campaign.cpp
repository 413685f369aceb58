#include "service/fleet_campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "obs/slo.hpp"
#include "sim/fleet.hpp"
#include "sim/profile.hpp"

namespace ftla::service {
namespace {

FleetVerdict classify(const JobResult& r) {
  // The oracle outranks the service's own claim: a wrong result sold as
  // success is sdc no matter how cleanly the job appeared to finish.
  if (r.sdc) return FleetVerdict::Sdc;
  switch (r.outcome) {
    case JobOutcome::Completed: return FleetVerdict::Completed;
    case JobOutcome::Migrated: return FleetVerdict::Migrated;
    case JobOutcome::Degraded: return FleetVerdict::Degraded;
    case JobOutcome::ExhaustedRetries: return FleetVerdict::ExhaustedRetries;
    case JobOutcome::FailStop: return FleetVerdict::FailStop;
  }
  return FleetVerdict::FailStop;
}

/// Derives the scenario's job list from its master seed. Shared by the
/// dry (TimingOnly) horizon run and the faulted numeric run so both see
/// the identical workload.
std::vector<JobSpec> draw_jobs(const FleetScenario& sc) {
  Rng rng(sc.seed != 0 ? sc.seed : 1);
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(sc.jobs));
  for (int j = 0; j < sc.jobs; ++j) {
    JobSpec spec;
    spec.id = j;
    spec.block = sc.block;
    spec.n = sc.block * rng.uniform_int(sc.min_blocks, sc.max_blocks);
    spec.matrix_seed = rng.next_u64() | 1ULL;
    spec.fault_seed = rng.next_u64() | 1ULL;
    // Accounting principal derived from an already-drawn seed: no extra
    // RNG draw, so traces and tenancy leave every prior replay intact.
    static const char* const kTenants[3] = {"alpha", "beta", "gamma"};
    spec.tenant = kTenants[spec.matrix_seed % 3];
    // The guarded variant only: the campaign certifies recovery under
    // device faults, so every job must be SDC-free by construction.
    spec.variant = abft::Variant::EnhancedOnline;
    spec.recovery = rng.uniform_int(0, 2) == 0 ? abft::Recovery::Checkpoint
                                               : abft::Recovery::Rerun;
    switch (rng.uniform_int(0, 3)) {
      case 0: spec.placement = abft::UpdatePlacement::Blocking; break;
      case 1: spec.placement = abft::UpdatePlacement::Gpu; break;
      case 2: spec.placement = abft::UpdatePlacement::Cpu; break;
      default: spec.placement = abft::UpdatePlacement::Auto; break;
    }
    spec.verify_interval = rng.uniform_int(0, 3) == 0 ? 2 : 1;
    spec.transfer_guard = true;
    spec.ecc = rng.uniform_int(0, 3) == 0;
    spec.mtbf_s = sc.mtbf_s;
    spec.max_arrivals = sc.max_arrivals;
    jobs.push_back(spec);
  }
  return jobs;
}

double run_fleet_once(const FleetScenario& sc,
                      const std::vector<JobSpec>& jobs,
                      const std::vector<fault::DeviceFaultSpec>& plan,
                      sim::ExecutionMode mode, FleetScenarioResult* out,
                      bool collect_trace) {
  sim::FleetProfile fp;
  fp.device = sim::test_rig();
  fp.devices = sc.devices;
  fp.link_capacity = sc.link_capacity;
  sim::Fleet fleet(fp, mode);

  // Per-scenario store: trace ids derive from the scenario seed and the
  // admission sequence, so the spans are schedule-independent and the
  // campaign can merge them in draw order.
  obs::TraceStore trace;
  ServiceOptions so;
  so.max_retries = sc.max_retries;
  if (collect_trace) {
    so.trace = &trace;
    so.trace_seed = sc.seed;
  }
  FactorizationService svc(fleet, so);
  svc.apply(plan);
  for (const auto& spec : jobs) svc.submit(spec);
  std::vector<JobResult> results = svc.drain();

  if (out != nullptr) {
    out->jobs_admitted = static_cast<int>(jobs.size());
    out->dropped =
        static_cast<int>(jobs.size()) - static_cast<int>(results.size());
    out->device_losses = fleet.losses_discovered();
    out->makespan_s = fleet.makespan();
    for (const auto& r : results) {
      const FleetVerdict v = classify(r);
      out->verdicts[static_cast<std::size_t>(v)] += 1;
      if (r.sdc) ++out->sdc_jobs;
      out->migrations += r.migrations;
      out->retries_spent += std::max(0, r.attempts - 1);
      out->faults_fired += r.faults_fired;
      out->faults_detected += r.faults_detected;
      if (!r.tenant.empty()) {
        TenantUsage& t = out->tenants[r.tenant];
        t.jobs += 1;
        t.retries += std::max(0, r.attempts - 1);
        t.migrations += r.migrations;
        t.device_seconds += r.device_seconds;
        t.checkpoint_bytes += r.checkpoint_bytes;
      }
    }
    out->jobs = std::move(results);
    if (collect_trace) out->trace_spans = trace.snapshot();
  }
  return fleet.makespan();
}

}  // namespace

const char* to_string(FleetVerdict v) {
  switch (v) {
    case FleetVerdict::Completed: return "completed";
    case FleetVerdict::Migrated: return "migrated";
    case FleetVerdict::Degraded: return "degraded";
    case FleetVerdict::ExhaustedRetries: return "exhausted_retries";
    case FleetVerdict::FailStop: return "fail_stop";
    case FleetVerdict::Sdc: return "sdc";
  }
  return "?";
}

FleetScenarioResult run_fleet_scenario(const FleetScenario& sc,
                                       bool collect_trace) {
  FTLA_CHECK(sc.devices >= 1 && sc.jobs >= 1);
  const std::vector<JobSpec> jobs = draw_jobs(sc);

  // Dry run on a pristine twin fleet: its makespan is the horizon the
  // device-fault plan is sampled against, so losses land mid-workload.
  const double horizon = run_fleet_once(
      sc, jobs, {}, sim::ExecutionMode::TimingOnly, nullptr, false);

  fault::DeviceFaultPlanConfig pc;
  pc.devices = sc.devices;
  pc.loss_count = sc.loss_count;
  pc.stall_count = sc.stall_count;
  pc.degrade_count = sc.degrade_count;
  pc.horizon_s = std::max(horizon, 1.0e-12);
  pc.seed = sc.seed;
  const std::vector<fault::DeviceFaultSpec> plan =
      fault::sample_device_faults(pc);

  FleetScenarioResult out;
  out.horizon_s = horizon;
  run_fleet_once(sc, jobs, plan, sim::ExecutionMode::Numeric, &out,
                 collect_trace);
  return out;
}

FleetScenario random_fleet_scenario(Rng& rng,
                                    const FleetCampaignOptions& opt) {
  FleetScenario sc;
  sc.devices = rng.uniform_int(opt.min_devices, opt.max_devices);
  sc.link_capacity = rng.uniform_int(0, 2) == 0 ? 2 : 1;
  sc.jobs = rng.uniform_int(opt.min_jobs, opt.max_jobs);
  // Shares of scenarios with a device loss, a stall, a degraded device
  // and soft-error pressure. Job sizes and the retry budget keep the
  // FleetScenario defaults.
  constexpr double kLossShare = 0.75;
  constexpr double kStallShare = 0.25;
  constexpr double kDegradeShare = 0.25;
  constexpr double kMtbfShare = 0.5;
  sc.loss_count = rng.uniform(0.0, 1.0) < kLossShare
                      ? rng.uniform_int(1, std::max(1, opt.max_losses))
                      : 0;
  sc.stall_count = rng.uniform(0.0, 1.0) < kStallShare ? 1 : 0;
  sc.degrade_count = rng.uniform(0.0, 1.0) < kDegradeShare ? 1 : 0;
  // Same calibration as the single-node campaign: log-uniform MTBF that
  // yields a handful of arrivals per job at test_rig makespans.
  sc.mtbf_s = rng.uniform(0.0, 1.0) < kMtbfShare
                  ? std::pow(10.0, rng.uniform(-5.0, -3.9))
                  : 0.0;
  sc.max_arrivals = 6;
  sc.seed = rng.next_u64() | 1ULL;
  return sc;
}

namespace {

/// Folds one finished scenario into the summary, in draw order — it
/// runs only in the runner's merge, so the summary is independent of the
/// worker schedule.
void merge_one(FleetCampaignSummary& sum, const FleetScenario& sc,
               const FleetScenarioResult& res, obs::TraceStore* trace,
               obs::SloEngine* slo) {
  ++sum.scenarios_run;
  sum.jobs_admitted += res.jobs_admitted;
  sum.sdc_jobs += res.sdc_jobs;
  sum.dropped_jobs += res.dropped;
  for (int v = 0; v < kFleetVerdictCount; ++v) {
    sum.verdicts[static_cast<std::size_t>(v)] +=
        res.verdicts[static_cast<std::size_t>(v)];
  }
  sum.device_losses += res.device_losses;
  sum.migrations += res.migrations;
  sum.retries_spent += res.retries_spent;
  sum.faults_fired += res.faults_fired;
  sum.faults_detected += res.faults_detected;
  for (const auto& [name, usage] : res.tenants) {
    TenantUsage& t = sum.tenants[name];
    t.jobs += usage.jobs;
    t.retries += usage.retries;
    t.migrations += usage.migrations;
    t.device_seconds += usage.device_seconds;
    t.checkpoint_bytes += usage.checkpoint_bytes;
  }
  // Traces and SLO records fold here — draw order — never on the
  // workers, so both are byte-identical at any thread count.
  if (trace != nullptr) trace->append(res.trace_spans);
  if (slo != nullptr) {
    for (const auto& r : res.jobs) {
      slo->record_job(r.end_time, r.success, r.sdc, r.latency());
    }
  }

  if (res.sdc_jobs > 0 || res.dropped != 0) {
    FleetCampaignFailure f;
    f.scenario = sc;
    f.result = res;
    f.reason = res.sdc_jobs > 0 ? "sdc" : "dropped_jobs";
    sum.failures.push_back(std::move(f));
  }
}

}  // namespace

FleetCampaignSummary run_fleet_campaign(const FleetCampaignOptions& opt,
                                        obs::MetricsRegistry* metrics,
                                        std::ostream* progress,
                                        int progress_every,
                                        obs::TraceStore* trace,
                                        obs::SloEngine* slo) {
  FleetCampaignSummary sum;
  Rng rng(opt.seed != 0 ? opt.seed : 1);
  const bool collect_trace = trace != nullptr;

  const int limit = opt.abort_after > 0
                        ? std::min(opt.scenarios, opt.abort_after)
                        : opt.scenarios;
  sum.aborted = limit < opt.scenarios;

  // The same draw-ordered runner as fault::run_campaign: per-scenario
  // results are self-contained (own fleets, matrices, injectors), so the
  // summary and the progress lines are identical at every thread count.
  const bool show = progress != nullptr && progress_every > 0;
  common::run_draw_ordered(
      limit, opt.threads, show ? progress_every : 0,
      [&] { return random_fleet_scenario(rng, opt); },
      [&](const FleetScenario& sc) {
        return run_fleet_scenario(sc, collect_trace);
      },
      [&](int i, const FleetScenario& sc, const FleetScenarioResult& res) {
        merge_one(sum, sc, res, trace, slo);
        if (show && (i + 1) % progress_every == 0) {
          *progress << "[fleet] " << (i + 1) << "/" << limit
                    << " scenarios, " << sum.device_losses << " losses, "
                    << sum.migrations << " migrations, "
                    << sum.failures.size() << " failures\n";
        }
      });

  if (metrics != nullptr) {
    metrics->add_counter("fleet.scenarios", sum.scenarios_run);
    metrics->add_counter("fleet.jobs.admitted", sum.jobs_admitted);
    metrics->add_counter("fleet.jobs.sdc", sum.sdc_jobs);
    metrics->add_counter("fleet.jobs.dropped", sum.dropped_jobs);
    metrics->add_counter("fleet.device_losses", sum.device_losses);
    metrics->add_counter("fleet.migrations", sum.migrations);
    metrics->add_counter("fleet.retries", sum.retries_spent);
    metrics->add_counter("fleet.faults.fired", sum.faults_fired);
    metrics->add_counter("fleet.faults.detected", sum.faults_detected);
    metrics->add_counter("fleet.failures",
                         static_cast<long long>(sum.failures.size()));
    for (int v = 0; v < kFleetVerdictCount; ++v) {
      const long long c = sum.verdicts[static_cast<std::size_t>(v)];
      if (c == 0) continue;
      metrics->add_counter(std::string("fleet.verdict.") +
                               to_string(static_cast<FleetVerdict>(v)),
                           c);
    }
    for (const auto& [name, t] : sum.tenants) {
      const std::string prefix = "tenant." + name + ".";
      metrics->add_counter(prefix + "jobs", t.jobs);
      metrics->add_counter(prefix + "retries", t.retries);
      metrics->add_counter(prefix + "migrations", t.migrations);
      metrics->add_counter(prefix + "checkpoint_bytes", t.checkpoint_bytes);
      metrics->set_gauge(prefix + "device_seconds", t.device_seconds);
    }
    if (slo != nullptr) slo->export_metrics(metrics);
  }
  return sum;
}

std::string format_fleet_scenario(const FleetScenario& sc) {
  std::ostringstream os;
  // Round-trip precision: mtbf feeds the seeded arrival process, so a
  // lossy print would make the replay diverge.
  os << std::setprecision(17);
  os << "fleet_scenario devices=" << sc.devices
     << " link=" << sc.link_capacity << " jobs=" << sc.jobs
     << " losses=" << sc.loss_count << " stalls=" << sc.stall_count
     << " degrades=" << sc.degrade_count << " block=" << sc.block
     << " min_blocks=" << sc.min_blocks << " max_blocks=" << sc.max_blocks
     << " mtbf=" << sc.mtbf_s << " max_arrivals=" << sc.max_arrivals
     << " max_retries=" << sc.max_retries << " seed=" << sc.seed << "\n";
  return os.str();
}

bool parse_fleet_scenario(const std::string& text, FleetScenario* out,
                          std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  FleetScenario sc;
  bool saw_header = false;

  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    std::istringstream toks(line);
    std::string head;
    if (!(toks >> head) || head.empty() || head[0] == '#') continue;

    const auto where = [&] {
      return "line " + std::to_string(lineno) + ": ";
    };
    if (head != "fleet_scenario") {
      return fail(where() + "expected 'fleet_scenario', got '" + head + "'");
    }
    saw_header = true;
    std::string tok;
    while (toks >> tok) {
      std::string key;
      std::string val;
      if (!fault::split_kv(tok, &key, &val)) {
        return fail(where() + "expected key=value, got '" + tok + "'");
      }
      if (key == "devices") {
        sc.devices = std::atoi(val.c_str());
      } else if (key == "link") {
        sc.link_capacity = std::atoi(val.c_str());
      } else if (key == "jobs") {
        sc.jobs = std::atoi(val.c_str());
      } else if (key == "losses") {
        sc.loss_count = std::atoi(val.c_str());
      } else if (key == "stalls") {
        sc.stall_count = std::atoi(val.c_str());
      } else if (key == "degrades") {
        sc.degrade_count = std::atoi(val.c_str());
      } else if (key == "block") {
        sc.block = std::atoi(val.c_str());
      } else if (key == "min_blocks") {
        sc.min_blocks = std::atoi(val.c_str());
      } else if (key == "max_blocks") {
        sc.max_blocks = std::atoi(val.c_str());
      } else if (key == "mtbf") {
        sc.mtbf_s = std::atof(val.c_str());
      } else if (key == "max_arrivals") {
        sc.max_arrivals = std::atoi(val.c_str());
      } else if (key == "max_retries") {
        sc.max_retries = std::atoi(val.c_str());
      } else if (key == "seed") {
        sc.seed = std::strtoull(val.c_str(), nullptr, 10);
      } else {
        return fail(where() + "unknown fleet_scenario key '" + key + "'");
      }
    }
    // Range checks for every field the service or a driver checks, so a
    // bad replay line is a parse error instead of an abort mid-run.
    if (sc.devices < 1 || sc.jobs < 1 || sc.block < 1) {
      return fail(where() + "devices, jobs and block must be positive");
    }
    if (sc.min_blocks < 1 || sc.min_blocks > sc.max_blocks) {
      return fail(where() + "need 1 <= min_blocks <= max_blocks");
    }
    if (sc.loss_count < 0 || sc.stall_count < 0 || sc.degrade_count < 0 ||
        sc.max_arrivals < 0 || sc.max_retries < 0) {
      return fail(where() +
                  "losses, stalls, degrades, max_arrivals and max_retries "
                  "must be >= 0");
    }
  }

  if (!saw_header) return fail("no 'fleet_scenario' header line found");
  *out = sc;
  return true;
}

}  // namespace ftla::service
