#include "fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "blas/lapack.hpp"
#include "blas/qr.hpp"
#include "common/spd.hpp"
#include "common/thread_pool.hpp"
#include "fault/process.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

namespace ftla::fault {
namespace {

Verdict classify(const abft::CholeskyResult& res, double residual) {
  if (!res.success) return Verdict::FailStop;
  // NaN-safe: a NaN/Inf residual must read as corrupt, and NaN fails
  // every comparison, so test "residual < threshold" and invert.
  if (!(residual < kSdcResidualThreshold)) return Verdict::Sdc;
  if (res.reruns > 0) return Verdict::Rerun;
  if (res.rollbacks > 0) return Verdict::RolledBack;
  return Verdict::Corrected;
}

// One options struct for every driver: LU and QR read its DriverOptions
// part and ignore the Cholesky-only fields.
abft::CholeskyOptions driver_options(const Scenario& sc) {
  abft::CholeskyOptions o;
  o.variant = sc.variant;
  o.block_size = sc.block;
  o.verify_interval = sc.verify_interval;
  o.placement = sc.placement;
  o.runtime = sc.runtime;
  o.recovery = sc.recovery;
  o.checkpoint_interval = sc.checkpoint_interval;
  o.transfer_guard = sc.transfer_guard;
  return o;
}

}  // namespace

const char* to_string(Algo a) {
  switch (a) {
    case Algo::Cholesky: return "cholesky";
    case Algo::Lu: return "lu";
    case Algo::Qr: return "qr";
  }
  return "?";
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Corrected: return "corrected";
    case Verdict::RolledBack: return "rolled_back";
    case Verdict::Rerun: return "rerun";
    case Verdict::FailStop: return "fail_stop";
    case Verdict::Sdc: return "sdc";
  }
  return "?";
}

ScenarioResult run_scenario(const Scenario& sc) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
  const int n = sc.n;

  Matrix<double> a(n, n);
  if (sc.algo == Algo::Qr) {
    make_uniform(a, sc.matrix_seed);
  } else {
    make_spd_diag_dominant(a, sc.matrix_seed);
  }
  const Matrix<double> pristine = a;

  Injector inj(sc.plan, EccModel{sc.ecc});

  std::unique_ptr<FaultProcess> proc;
  if (sc.mtbf_s > 0.0) {
    ProcessConfig pc;
    pc.mtbf_s = sc.mtbf_s;
    pc.seed = sc.fault_seed;
    pc.max_arrivals = sc.max_arrivals;
    // LU/QR geometry differs from blocked Cholesky's lower triangle;
    // let those drivers' own default-target logic place the strike.
    pc.explicit_blocks = (sc.algo == Algo::Cholesky);
    proc = std::make_unique<FaultProcess>(pc, sc.nblocks());
    inj.attach_process(proc.get());
  }

  // Transfer-corruption hook: planned specs replay by copy ordinal and
  // process arrivals strike an element of the landed copy. The hook
  // runs after the numeric copy, so the strike IS mid-PCIe corruption:
  // the source stays intact and no source-side verification saw it.
  int transfer_faults = 0;
  Rng xfer_rng(sc.fault_seed ^ 0x7f4a7c15ULL);
  m.set_transfer_hook([&](const sim::TransferCtx& ctx) {
    const auto specs = inj.take_transfer(ctx.seq, ctx.end, ctx.armed);
    transfer_faults += inj.strike_transfer(
        specs, {ctx.data, ctx.rows, ctx.cols, ctx.ld, ctx.dev_off}, n,
        xfer_rng);
  });

  const abft::CholeskyOptions o = driver_options(sc);
  abft::CholeskyResult res;
  std::vector<double> tau;
  switch (sc.algo) {
    case Algo::Cholesky: res = abft::cholesky(m, &a, n, o, &inj); break;
    case Algo::Lu: res = abft::lu(m, &a, n, o, &inj); break;
    case Algo::Qr: res = abft::qr(m, &a, &tau, n, o, &inj); break;
  }

  ScenarioResult out;
  out.success = res.success;
  out.residual = std::numeric_limits<double>::quiet_NaN();
  if (res.success) {
    switch (sc.algo) {
      case Algo::Cholesky:
        out.residual = blas::cholesky_residual(pristine.view(), a.view());
        break;
      case Algo::Lu:
        out.residual = blas::lu_residual(pristine.view(), a.view());
        break;
      case Algo::Qr:
        out.residual = blas::qr_residual(pristine.view(), a.view(),
                                         tau.data());
        break;
    }
  }
  out.verdict = classify(res, out.residual);
  out.seconds = res.seconds;
  out.faults_fired = inj.fired_count();
  out.faults_detected = inj.detected_count();
  out.ecc_absorbed = inj.ecc_absorbed_count();
  out.transfer_faults = transfer_faults;
  out.errors_corrected = res.errors_corrected;
  out.rollbacks = res.rollbacks;
  out.reruns = res.reruns;
  out.fired_plan.reserve(inj.records().size());
  for (const auto& rec : inj.records()) out.fired_plan.push_back(rec.spec);
  out.records = inj.records();
  out.note = res.note;
  return out;
}

Scenario random_scenario(Rng& rng, const CampaignOptions& opt) {
  constexpr int kBlock = 16;
  constexpr double kLuQrShare = 0.25;
  Scenario sc;
  sc.block = kBlock;
  sc.n = kBlock * rng.uniform_int(opt.min_blocks, opt.max_blocks);
  sc.matrix_seed = rng.next_u64() | 1ULL;
  sc.fault_seed = rng.next_u64() | 1ULL;

  if (rng.uniform(0.0, 1.0) < kLuQrShare) {
    sc.algo = rng.uniform_int(0, 1) == 0 ? Algo::Lu : Algo::Qr;
    sc.variant = rng.uniform_int(0, 2) == 0 ? abft::Variant::NoFt
                                            : abft::Variant::EnhancedOnline;
    sc.recovery = abft::Recovery::Rerun;
  } else {
    sc.algo = Algo::Cholesky;
    switch (rng.uniform_int(0, 3)) {
      case 0: sc.variant = abft::Variant::NoFt; break;
      case 1: sc.variant = abft::Variant::Offline; break;
      case 2: sc.variant = abft::Variant::Online; break;
      default: sc.variant = abft::Variant::EnhancedOnline; break;
    }
    sc.recovery = rng.uniform_int(0, 2) == 0 ? abft::Recovery::Checkpoint
                                             : abft::Recovery::Rerun;
    switch (rng.uniform_int(0, 3)) {
      case 0: sc.placement = abft::UpdatePlacement::Blocking; break;
      case 1: sc.placement = abft::UpdatePlacement::Gpu; break;
      case 2: sc.placement = abft::UpdatePlacement::Cpu; break;
      default: sc.placement = abft::UpdatePlacement::Auto; break;
    }
  }
  // Some of the load runs the task-graph runtime so the zero-SDC
  // invariant is demonstrated over the DAG drivers, not just the bulk
  // oracle. Cholesky's graph refuses the CPU checksum mirror and
  // checkpoint recovery (abft::dag_refusal, docs/runtime.md), so dag
  // draws pin those axes to Gpu placement and rerun recovery.
  if (rng.uniform(0.0, 1.0) < opt.dag_share) {
    sc.runtime = abft::RuntimeMode::Dag;
    if (sc.algo == Algo::Cholesky) {
      sc.placement = abft::UpdatePlacement::Gpu;
      sc.recovery = abft::Recovery::Rerun;
    }
  }
  sc.verify_interval = rng.uniform_int(0, 3) == 0 ? 2 : 1;
  sc.checkpoint_interval = rng.uniform_int(2, 4);
  // The zero-SDC invariant holds for the guarded variant only with the
  // PCIe windows closed; everything else runs unguarded so the campaign
  // demonstrates the paper's point (NoFt/Offline do produce sdc).
  sc.transfer_guard = (sc.variant == kGuardedVariant);
  sc.ecc = rng.uniform_int(0, 3) == 0;
  // Calibrated against test_rig makespans (~1e-4 virtual seconds at
  // these sizes): log-uniform MTBF giving roughly 1..8 arrivals a run.
  sc.mtbf_s = std::pow(10.0, rng.uniform(-5.0, -3.9));
  sc.max_arrivals = 8;
  return sc;
}

namespace {

/// Folds one finished scenario into the summary; the unexpected-verdict
/// handling (deterministic twin + shrinking) re-runs scenarios, so this
/// only ever executes in the runner's merge, in draw order — making the
/// whole summary independent of the worker schedule.
void merge_one(CampaignSummary& sum, const Scenario& sc,
               const ScenarioResult& res, const CampaignOptions& opt) {
  ++sum.scenarios_run;
  sum.faults_fired += res.faults_fired;
  sum.faults_detected += res.faults_detected;
  sum.ecc_absorbed += res.ecc_absorbed;
  sum.transfer_faults += res.transfer_faults;
  const std::string key = std::string(to_string(sc.algo)) + "/" +
                          abft::to_string(sc.variant);
  sum.verdicts[key][static_cast<int>(res.verdict)] += 1;

  if (opt.collect_observations) {
    ScenarioObservation obs;
    obs.algo = sc.algo;
    obs.variant = sc.variant;
    obs.recovery = sc.recovery;
    obs.verdict = res.verdict;
    obs.n = sc.n;
    obs.block = sc.block;
    obs.seconds = res.seconds;
    obs.faults_fired = res.faults_fired;
    for (const auto& rec : res.records) {
      if (!rec.detected()) continue;
      obs.detections.push_back(
          DetectionSample{rec.spec.type, rec.detection_latency()});
    }
    sum.observations.push_back(std::move(obs));
  }

  bool unexpected = false;
  if (res.verdict == Verdict::Sdc && sc.variant == kGuardedVariant) {
    ++sum.guarded_sdc;
    unexpected = true;
  }
  if (res.verdict == Verdict::FailStop && res.faults_fired == 0) {
    ++sum.unexpected_fail_stop;
    unexpected = true;
  }
  if (unexpected) {
    CampaignFailure f;
    // `scenario` stays the original stochastic run — the seeded
    // arrival process makes it replayable as-is. The deterministic
    // twin turns the fired faults into a planned list with the
    // process disabled; shrinking starts from the twin.
    f.scenario = sc;
    f.result = res;
    Scenario twin_sc = sc;
    twin_sc.mtbf_s = 0.0;
    twin_sc.plan = res.fired_plan;
    const ScenarioResult twin = run_scenario(twin_sc);
    f.reproduced = twin.verdict == res.verdict;
    if (f.reproduced && opt.shrink_failures) {
      ShrinkOutcome so = shrink_scenario(twin_sc, res.verdict);
      f.shrunk = std::move(so.scenario);
      f.shrink_runs = so.runs;
    } else {
      f.shrunk = std::move(twin_sc);
    }
    sum.failures.push_back(std::move(f));
  }
}

}  // namespace

CampaignSummary run_campaign(const CampaignOptions& opt,
                             obs::MetricsRegistry* metrics,
                             std::ostream* progress, int progress_every) {
  CampaignSummary sum;
  Rng rng(opt.seed != 0 ? opt.seed : 1);

  // abort_after truncates the campaign after a prefix of the draw
  // order, so an aborted run's summary is exactly the full run's state
  // after `limit` scenarios.
  const int limit = opt.abort_after > 0
                        ? std::min(opt.scenarios, opt.abort_after)
                        : opt.scenarios;
  sum.aborted = limit < opt.scenarios;

  // Each run_scenario is self-contained (own machine, matrices,
  // injector), and BLAS nested inside a pool lane runs inline, so the
  // summary and the progress lines are identical at every thread count.
  const bool show = progress != nullptr && progress_every > 0;
  common::run_draw_ordered(
      limit, opt.threads, show ? progress_every : 0,
      [&] { return random_scenario(rng, opt); }, run_scenario,
      [&](int i, const Scenario& sc, const ScenarioResult& res) {
        merge_one(sum, sc, res, opt);
        if (show && (i + 1) % progress_every == 0) {
          *progress << "[campaign] " << (i + 1) << "/" << limit
                    << " scenarios, " << sum.faults_fired
                    << " faults fired, " << sum.failures.size()
                    << " failures\n";
        }
      });

  if (metrics != nullptr) {
    metrics->add_counter("campaign.scenarios", sum.scenarios_run);
    metrics->add_counter("campaign.faults.fired", sum.faults_fired);
    metrics->add_counter("campaign.faults.detected", sum.faults_detected);
    metrics->add_counter("campaign.faults.ecc_absorbed", sum.ecc_absorbed);
    metrics->add_counter("campaign.faults.transfer", sum.transfer_faults);
    metrics->add_counter("campaign.failures",
                         static_cast<long long>(sum.failures.size()));
    metrics->add_counter("campaign.guarded_sdc", sum.guarded_sdc);
    metrics->add_counter("campaign.unexpected_fail_stop",
                         sum.unexpected_fail_stop);
    for (const auto& [key, row] : sum.verdicts) {
      std::string dotted = key;
      std::replace(dotted.begin(), dotted.end(), '/', '.');
      for (int v = 0; v < kVerdictCount; ++v) {
        if (row[v] == 0) continue;
        metrics->add_counter("campaign.verdict." + dotted + "." +
                                 to_string(static_cast<Verdict>(v)),
                             row[v]);
      }
    }
  }
  return sum;
}

ShrinkOutcome shrink_scenario(const Scenario& seed_scenario, Verdict target,
                              int max_runs) {
  ShrinkOutcome out;
  out.scenario = seed_scenario;

  const auto reproduces = [&](const Scenario& cand) {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    return run_scenario(cand).verdict == target;
  };

  // Phase 1: drop whole faults while the verdict survives. Restarting
  // the sweep after every successful drop keeps this ddmin-flavored
  // greedy pass order-insensitive enough for small plans.
  bool changed = true;
  while (changed && out.runs < max_runs) {
    changed = false;
    for (std::size_t i = 0; i < out.scenario.plan.size(); ++i) {
      Scenario cand = out.scenario;
      cand.plan.erase(cand.plan.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(cand)) {
        out.scenario = std::move(cand);
        changed = true;
        break;
      }
      if (out.runs >= max_runs) break;
    }
  }

  // Phase 2: canonicalize the survivors — single anchor bit, element
  // (0,0), default magnitude — one attribute at a time.
  for (std::size_t i = 0;
       i < out.scenario.plan.size() && out.runs < max_runs; ++i) {
    FaultSpec& f = out.scenario.plan[i];
    if (f.bits.size() > 1) {
      Scenario cand = out.scenario;
      cand.plan[i].bits = {f.bits.back()};
      if (reproduces(cand)) out.scenario = std::move(cand);
    }
    if (out.runs < max_runs &&
        (out.scenario.plan[i].elem_row != 0 ||
         out.scenario.plan[i].elem_col != 0)) {
      Scenario cand = out.scenario;
      cand.plan[i].elem_row = 0;
      cand.plan[i].elem_col = 0;
      if (reproduces(cand)) out.scenario = std::move(cand);
    }
    if (out.runs < max_runs &&
        out.scenario.plan[i].type == FaultType::Computing &&
        out.scenario.plan[i].magnitude != 1.0e4) {
      Scenario cand = out.scenario;
      cand.plan[i].magnitude = 1.0e4;
      if (reproduces(cand)) out.scenario = std::move(cand);
    }
  }
  return out;
}

namespace {

template <typename Enum>
bool enum_from_string(const std::string& s, Enum* out, int count) {
  for (int i = 0; i < count; ++i) {
    const auto e = static_cast<Enum>(i);
    if (s == to_string(e)) {
      *out = e;
      return true;
    }
  }
  return false;
}

std::string join_bits(const std::vector<int>& bits) {
  std::ostringstream os;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) os << ',';
    os << bits[i];
  }
  return os.str();
}

}  // namespace

std::string format_scenario(const Scenario& sc) {
  std::ostringstream os;
  // Round-trip precision: mtbf and magnitude feed the seeded arrival
  // process, so a lossy print would make the replay diverge.
  os << std::setprecision(17);
  os << "scenario algo=" << to_string(sc.algo)
     << " variant=" << abft::to_string(sc.variant)
     << " recovery=" << abft::to_string(sc.recovery)
     << " placement=" << abft::to_string(sc.placement)
     << " runtime=" << abft::to_string(sc.runtime) << " n=" << sc.n
     << " block=" << sc.block << " k=" << sc.verify_interval
     << " ckpt=" << sc.checkpoint_interval
     << " matrix_seed=" << sc.matrix_seed
     << " guard=" << (sc.transfer_guard ? 1 : 0)
     << " ecc=" << (sc.ecc ? 1 : 0) << " mtbf=" << sc.mtbf_s
     << " fault_seed=" << sc.fault_seed
     << " max_arrivals=" << sc.max_arrivals << "\n";
  for (const auto& f : sc.plan) {
    os << "fault type=" << to_string(f.type) << " op=" << to_string(f.op)
       << " iter=" << f.iteration << " block=" << f.block_row << ","
       << f.block_col << " elem=" << f.elem_row << "," << f.elem_col
       << " bits=" << join_bits(f.bits) << " mag=" << f.magnitude
       << " chk=" << (f.target_checksum ? 1 : 0)
       << " xfer=" << f.transfer_index << "\n";
  }
  return os.str();
}

bool parse_scenario(const std::string& text, Scenario* out,
                    std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  Scenario sc;
  sc.plan.clear();
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

    if (head == "scenario") {
      saw_header = true;
      std::string tok;
      while (toks >> tok) {
        std::string key;
        std::string val;
        if (!split_kv(tok, &key, &val)) {
          return fail(where() + "expected key=value, got '" + tok + "'");
        }
        bool ok = true;
        if (key == "algo") {
          ok = enum_from_string(val, &sc.algo, 3);
        } else if (key == "variant") {
          ok = enum_from_string(val, &sc.variant, 4);
        } else if (key == "recovery") {
          ok = enum_from_string(val, &sc.recovery, 2);
        } else if (key == "placement") {
          ok = enum_from_string(val, &sc.placement, 4);
        } else if (key == "runtime") {
          // Absent in pre-runtime plans: the Bulk default applies.
          ok = enum_from_string(val, &sc.runtime, 2);
        } else if (key == "n") {
          sc.n = std::atoi(val.c_str());
        } else if (key == "block") {
          sc.block = std::atoi(val.c_str());
        } else if (key == "k") {
          sc.verify_interval = std::atoi(val.c_str());
        } else if (key == "ckpt") {
          sc.checkpoint_interval = std::atoi(val.c_str());
        } else if (key == "matrix_seed") {
          sc.matrix_seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "guard") {
          sc.transfer_guard = val != "0";
        } else if (key == "ecc") {
          sc.ecc = val != "0";
        } else if (key == "mtbf") {
          sc.mtbf_s = std::atof(val.c_str());
        } else if (key == "fault_seed") {
          sc.fault_seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "max_arrivals") {
          sc.max_arrivals = std::atoi(val.c_str());
        } else {
          return fail(where() + "unknown scenario key '" + key + "'");
        }
        if (!ok) {
          return fail(where() + "bad value '" + val + "' for '" + key +
                      "'");
        }
      }
      // Range checks for every field a driver checks, so a bad replay
      // line is a parse error instead of an abort mid-run.
      if (sc.n <= 0 || sc.block <= 0) {
        return fail(where() + "n and block must be positive");
      }
      if (sc.verify_interval < 1 || sc.checkpoint_interval < 1) {
        return fail(where() + "k and ckpt must be >= 1");
      }
      if (sc.max_arrivals < 0) {
        return fail(where() + "max_arrivals must be >= 0");
      }
      if (sc.algo != Algo::Cholesky && sc.variant != abft::Variant::NoFt &&
          sc.variant != abft::Variant::EnhancedOnline) {
        return fail(where() + "lu and qr run no-ft or enhanced-online-abft");
      }
      if (sc.algo == Algo::Cholesky) {
        if (const char* why = abft::dag_refusal(driver_options(sc))) {
          return fail(where() + "runtime=dag refuses " + why);
        }
      }
    } else if (head == "fault") {
      FaultSpec f;
      std::string tok;
      while (toks >> tok) {
        std::string key;
        std::string val;
        if (!split_kv(tok, &key, &val)) {
          return fail(where() + "expected key=value, got '" + tok + "'");
        }
        bool ok = true;
        if (key == "type") {
          ok = enum_from_string(val, &f.type, 3);
        } else if (key == "op") {
          ok = enum_from_string(val, &f.op, 4);
        } else if (key == "iter") {
          f.iteration = std::atoi(val.c_str());
        } else if (key == "block") {
          ok = std::sscanf(val.c_str(), "%d,%d", &f.block_row,
                           &f.block_col) == 2;
        } else if (key == "elem") {
          ok = std::sscanf(val.c_str(), "%d,%d", &f.elem_row,
                           &f.elem_col) == 2;
        } else if (key == "bits") {
          f.bits.clear();
          std::istringstream bs(val);
          std::string b;
          while (std::getline(bs, b, ',')) {
            if (!b.empty()) f.bits.push_back(std::atoi(b.c_str()));
          }
          ok = !f.bits.empty() &&
               std::all_of(f.bits.begin(), f.bits.end(),
                           [](int bit) { return bit >= 0 && bit < 64; });
        } else if (key == "mag") {
          f.magnitude = std::atof(val.c_str());
        } else if (key == "chk") {
          f.target_checksum = val != "0";
        } else if (key == "xfer") {
          f.transfer_index = std::strtoll(val.c_str(), nullptr, 10);
        } else {
          return fail(where() + "unknown fault key '" + key + "'");
        }
        if (!ok) {
          return fail(where() + "bad value '" + val + "' for '" + key +
                      "'");
        }
      }
      sc.plan.push_back(std::move(f));
    } else {
      return fail(where() + "expected 'scenario' or 'fault', got '" +
                  head + "'");
    }
  }

  if (!saw_header) return fail("no 'scenario' header line found");
  *out = sc;
  return true;
}

}  // namespace ftla::fault
