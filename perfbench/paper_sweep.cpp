// paper_sweep: the paper's figures priced in TimingOnly mode. No numeric
// body runs and BLAS does nothing; host time is the simulator's event
// bookkeeping, the drivers' issue logic and the task graph.
//
//   (a) Figs 14-17: tardis and bulldozer64 paper sizes x {NoFt, Offline,
//       Online, Enhanced (K = 5)} at the paper placement, bulk, plus the
//       CULA-like baseline — the same options as the figure benches.
//   (b) The runtime_overhead configuration at paper sizes: Enhanced with
//       Gpu placement, bulk and DAG, on both machines; tardis capped at
//       kTardisDagCap to fit the run length.
//   (c) LU and QR Enhanced, bulk and DAG, on tardis at 5120 and 10240.
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/cula_like.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "bench.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "host_clock_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/profiler.hpp"

namespace perfbench {
namespace {

using namespace ftla;

/// Largest tardis size of group (b): the Gpu-placement bulk timeline's
/// per-op host cost grows with n, and 15360 is the largest size whose
/// pass still leaves room for several passes per run.
constexpr int kTardisDagCap = 15360;
constexpr int kSetups = 5;

enum class Kind { NoFt, Offline, Online, Enhanced, Cula, GpuPlacement, Lu, Qr };

struct Point {
  char group = 'a';
  const sim::MachineProfile* machine = nullptr;
  Kind kind = Kind::Enhanced;
  abft::RuntimeMode runtime = abft::RuntimeMode::Bulk;
  int n = 0;

  [[nodiscard]] std::string label() const {
    static const char* const kNames[] = {"noft", "offline", "online",
                                         "enhanced", "cula", "gpu",
                                         "lu", "qr"};
    return std::string(1, group) + "." + machine->name + "." +
           kNames[static_cast<int>(kind)] + "." +
           abft::to_string(runtime) + ".n" + std::to_string(n);
  }
};

struct PointRun {
  double host_s = 0.0;
  abft::CholeskyResult res;
  sim::SimStats stats;
  double gpu_util = 0.0;
  obs::ProfileReport profile;  ///< traced passes only
};

template <class Options>
void attach(Options& o, const Hooks& h) {
  o.event_sink = h.sink;
  o.metrics = h.metrics;
  o.profile = h.spans;
}

PointRun run_point(const Point& pt, const Hooks& hooks) {
  PointRun out;
  const sim::MachineProfile& profile = *pt.machine;
  const double t0 = host_s();
  sim::Machine m(profile, sim::ExecutionMode::TimingOnly);
  m.set_event_sink(hooks.sink);
  m.set_span_store(hooks.spans);
  switch (pt.kind) {
    case Kind::Cula:
      out.res = abft::cula_like_cholesky(m, nullptr, pt.n);
      break;
    case Kind::Lu: {
      abft::LuOptions o;
      o.runtime = pt.runtime;
      attach(o, hooks);
      out.res = abft::lu(m, nullptr, pt.n, o);
      break;
    }
    case Kind::Qr: {
      abft::QrOptions o;
      o.runtime = pt.runtime;
      attach(o, hooks);
      out.res = abft::qr(m, nullptr, nullptr, pt.n, o);
      break;
    }
    default: {
      abft::CholeskyOptions o;
      switch (pt.kind) {
        case Kind::NoFt: o = bench::noft_options(); break;
        case Kind::Offline:
          o = bench::variant_options(profile, abft::Variant::Offline);
          break;
        case Kind::Online:
          o = bench::variant_options(profile, abft::Variant::Online);
          break;
        case Kind::Enhanced: o = bench::enhanced_options(profile, 5); break;
        default:
          o = bench::enhanced_options(profile);
          o.placement = abft::UpdatePlacement::Gpu;
          break;
      }
      o.runtime = pt.runtime;
      attach(o, hooks);
      out.res = abft::cholesky(m, nullptr, pt.n, o);
      break;
    }
  }
  out.host_s = host_s() - t0;
  out.stats = m.stats();
  out.gpu_util = m.gpu_utilization();
  if (hooks.spans != nullptr) out.profile = sim::build_profile(m, *hooks.spans);
  return out;
}

std::vector<Point> make_points(const sim::MachineProfile& tardis,
                               const sim::MachineProfile& bulldozer) {
  std::vector<Point> pts;
  using RM = abft::RuntimeMode;
  for (const sim::MachineProfile* mp : {&tardis, &bulldozer}) {
    const std::vector<int> sizes =
        mp == &tardis ? bench::tardis_sizes() : bench::bulldozer_sizes();
    for (int n : sizes) {
      for (Kind k : {Kind::NoFt, Kind::Offline, Kind::Online, Kind::Enhanced,
                     Kind::Cula}) {
        pts.push_back({'a', mp, k, RM::Bulk, n});
      }
      if (mp == &tardis && n > kTardisDagCap) continue;
      for (RM rt : {RM::Bulk, RM::Dag}) {
        pts.push_back({'b', mp, Kind::GpuPlacement, rt, n});
      }
    }
  }
  for (int n : {5120, 10240}) {
    for (Kind k : {Kind::Lu, Kind::Qr}) {
      for (RM rt : {RM::Bulk, RM::Dag}) pts.push_back({'c', &tardis, k, rt, n});
    }
  }
  return pts;
}

Digest digest(const std::vector<Point>& pts, const std::vector<PointRun>& runs) {
  Digest d;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::string k = pts[i].label();
    const abft::CholeskyResult& r = runs[i].res;
    d.add(k + ".success", static_cast<long long>(r.success));
    d.add(k + ".virt_s", r.seconds);
    d.add(k + ".verified.potf2", r.verified.potf2_blocks);
    d.add(k + ".verified.trsm", r.verified.trsm_blocks);
    d.add(k + ".verified.syrk", r.verified.syrk_blocks);
    d.add(k + ".verified.gemm", r.verified.gemm_blocks);
    d.add_stats(k + ".stats", runs[i].stats);
  }
  return d;
}

}  // namespace

RunResult run_paper_sweep(const RunConfig& cfg) {
  const sim::MachineProfile tardis = sim::tardis();
  const sim::MachineProfile bulldozer = sim::bulldozer64();
  std::vector<Point> pts;

  // Set-up: the point list plus one untimed call per call type at the
  // smallest paper size.
  const double setup_s = median_setup_s(kSetups, [&] {
    pts = make_points(tardis, bulldozer);
    using RM = abft::RuntimeMode;
    const int n = bench::tardis_sizes().front();
    for (const Point& warm :
         {Point{'w', &tardis, Kind::Enhanced, RM::Bulk, n},
          Point{'w', &tardis, Kind::GpuPlacement, RM::Dag, n},
          Point{'w', &tardis, Kind::Cula, RM::Bulk, n},
          Point{'w', &tardis, Kind::Lu, RM::Bulk, n},
          Point{'w', &tardis, Kind::Lu, RM::Dag, n},
          Point{'w', &tardis, Kind::Qr, RM::Bulk, n},
          Point{'w', &tardis, Kind::Qr, RM::Dag, n}}) {
      (void)run_point(warm, {});
    }
  });

  // One pass prices every point once, in an order the seed shuffles.
  RunResult out;
  Digest reference;
  std::vector<std::vector<double>> point_host(pts.size());
  std::vector<PointRun> last(pts.size());
  auto pass = [&](int index, bool traced, HostClockSink* sink,
                  std::vector<obs::MetricsRegistry>* registries) {
    std::vector<std::size_t> order(pts.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(mix_seed(cfg.seed, 1000 + static_cast<unsigned>(index)));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    double host = 0.0;
    for (std::size_t i : order) {
      obs::SpanStore spans;
      Hooks hooks;
      if (traced) hooks = {sink, &spans, &(*registries)[i]};
      last[i] = run_point(pts[i], hooks);
      host += last[i].host_s;
      if (!traced) point_host[i].push_back(last[i].host_s);
    }
    // Each point counts once in attempted/failed, on the first pass;
    // later passes must reproduce its digest, success flags included.
    const Digest d = digest(pts, last);
    if (reference.empty()) {
      reference = d;
      std::printf("paper_sweep: deterministic digest %s\n",
                  reference.hash().c_str());
      for (const PointRun& r : last) {
        ++out.attempted;
        if (!r.res.success) ++out.failed;
      }
    } else {
      d.expect_equal(reference, traced ? "traced vs untraced pass"
                                       : "pass vs first pass");
    }
    return host;
  };

  if (!cfg.trace) {
    const std::vector<double> times = run_passes(
        cfg.seconds, 2, [&](int i) { return pass(i, false, nullptr, nullptr); });
    std::printf("paper_sweep: %zu points; pass_s is the median of %zu passes "
                "(%s)\n",
                pts.size(), times.size(), range(times).c_str());
    double virt = 0.0;
    double enhanced = 0.0;
    double noft = 0.0;
    std::vector<double> latencies;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double s = last[i].res.seconds;
      virt += s;
      latencies.push_back(s);
      if (pts[i].group != 'a') continue;
      if (pts[i].kind == Kind::Enhanced) enhanced += s;
      if (pts[i].kind == Kind::NoFt) noft += s;
    }
    out.add("setup_s", setup_s, "s");
    out.add("pass_s", median(times), "s");
    out.add("virt_s", virt, "sim_s");
    out.add("virt_overhead_pct", 100.0 * (enhanced / noft - 1.0), "%");
    out.add("job_p50_virt_s", percentile(latencies, 0.5), "sim_s");
    out.add("job_p90_virt_s", percentile(latencies, 0.9), "sim_s");
    out.add("ok_pct", 100.0 * (out.attempted - out.failed) / out.attempted,
            "%");
    return out;
  }

  // Traced run: an untraced pass, then a traced one, alternating; the
  // traced pass attaches an event sink, a span store and a metrics
  // registry to every point.
  std::vector<double> plain;
  std::vector<double> traced;
  long long events = 0;
  long long recalc = 0;
  std::map<std::string, long long> runtime_counts;
  double abft_critical = 0.0;
  double idle_critical = 0.0;
  double critical = 0.0;
  double util_weighted = 0.0;
  double makespans = 0.0;
  run_passes(cfg.seconds, 2, [&](int i) {
    if (i % 2 == 0) {
      plain.push_back(pass(i, false, nullptr, nullptr));
      return plain.back();
    }
    // No numeric body runs here, so there is no host time to charge:
    // the sink only counts events, and a constant clock keeps its
    // clock reads out of the traced pass.
    HostClockSink sink([] { return std::int64_t{0}; });
    std::vector<obs::MetricsRegistry> registries(pts.size());
    traced.push_back(pass(i, true, &sink, &registries));
    if (traced.size() == 1) {
      events = sink.posted();
      recalc = sink.named("recalc").events;
      for (std::size_t p = 0; p < pts.size(); ++p) {
        for (const auto& [name, v] : registries[p].counters()) {
          if (name.rfind("runtime.", 0) == 0) runtime_counts[name] += v;
        }
        const obs::ProfileReport& prof = last[p].profile;
        abft_critical += prof.abft_critical_seconds;
        idle_critical += prof.idle_critical_seconds;
        critical += prof.critical_path_seconds;
        util_weighted += last[p].gpu_util * last[p].res.seconds;
        makespans += last[p].res.seconds;
      }
    }
    return traced.back();
  });

  long long ops = 0;
  long long blocks = 0;
  for (const PointRun& r : last) {
    ops += sim_ops(r.stats);
    blocks += r.res.verified.total();
  }
  // Host time the task graph adds: DAG points minus their bulk twins.
  std::map<std::string, double> bulk_host;
  std::map<std::string, double> bulk_virt;
  double dag_host = 0.0;
  double twin_host = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].group == 'a') continue;
    Point twin = pts[i];
    twin.runtime = abft::RuntimeMode::Bulk;
    if (pts[i].runtime == abft::RuntimeMode::Bulk) {
      bulk_host[twin.label()] = median(point_host[i]);
      bulk_virt[twin.label()] = last[i].res.seconds;
    }
  }
  std::map<std::string, double> dag_gain;
  std::map<std::string, int> largest;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].group == 'a' || pts[i].runtime != abft::RuntimeMode::Dag) {
      continue;
    }
    Point twin = pts[i];
    twin.runtime = abft::RuntimeMode::Bulk;
    dag_host += median(point_host[i]);
    twin_host += bulk_host.at(twin.label());
    if (pts[i].group == 'b' && pts[i].n >= largest[pts[i].machine->name]) {
      largest[pts[i].machine->name] = pts[i].n;
      const double bulk = bulk_virt.at(twin.label());
      dag_gain[pts[i].machine->name] =
          100.0 * (bulk - last[i].res.seconds) / bulk;
    }
  }
  // Per-op host cost growth along the tardis Gpu-placement bulk series.
  double ns_small = 0.0;
  double ns_large = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point& p = pts[i];
    if (p.group != 'b' || p.machine->name != tardis.name ||
        p.runtime != abft::RuntimeMode::Bulk) {
      continue;
    }
    const double ns = median(point_host[i]) * 1e9 /
                      static_cast<double>(sim_ops(last[i].stats));
    if (p.n == bench::tardis_sizes().front()) ns_small = ns;
    if (p.n == kTardisDagCap) ns_large = ns;
  }

  const long long tasks = runtime_counts["runtime.tasks"];
  out.add("abft.verified_blocks", static_cast<double>(blocks), "count");
  out.add("abft.recalc_kernels", static_cast<double>(recalc), "count");
  out.add("abft.critical_pct", pct(abft_critical, critical), "%");
  out.add("sim.ops", static_cast<double>(ops), "count");
  out.add("sim.host_ns_per_op", median(plain) * 1e9 / static_cast<double>(ops),
          "ns/op");
  out.add("sim.ns_per_op_growth", ns_large / ns_small, "ratio");
  out.add("sim.gpu_util_pct", pct(util_weighted, makespans), "%");
  out.add("sim.idle_critical_pct", pct(idle_critical, critical), "%");
  out.add("runtime.tasks", static_cast<double>(tasks), "count");
  out.add("runtime.edges", static_cast<double>(runtime_counts["runtime.edges"]),
          "count");
  out.add("runtime.waits_elided",
          static_cast<double>(runtime_counts["runtime.waits_elided"]), "count");
  out.add("runtime.host_us_per_task",
          (dag_host - twin_host) * 1e6 / static_cast<double>(tasks), "us/task");
  out.add("runtime.dag_gain_pct_tardis", dag_gain.at(tardis.name), "%");
  out.add("runtime.dag_gain_pct_bulldozer64", dag_gain.at(bulldozer.name), "%");
  out.add("obs.events", static_cast<double>(events), "count");
  out.add("obs.trace_overhead_pct",
          100.0 * (median(traced) / median(plain) - 1.0), "%");
  std::printf("paper_sweep: traced %zu passes, untraced %zu passes\n",
              traced.size(), plain.size());
  return out;
}

}  // namespace perfbench
