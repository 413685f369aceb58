// Host cost of the simulator's hot paths, the ones a TimingOnly sweep
// such as perfbench's paper_sweep spends its time in:
//   * launch: one Machine::launch in a tardis verification batch (a
//     Blas2 recalc and a Compare verify per block over the 16 recalc
//     streams, a Blas3 update on the main stream, sync_all per batch);
//   * allocate: one ResourceTimeline::allocate on a 15-unit pool that
//     holds about 500 breakpoints, with starts near the end of the
//     array as the streams' ends put them (the prune that keeps the
//     count there is included);
//   * device_task: one Device task of runtime::run_on_streams over the
//     tardis stream pool, including the one kernel its body launches.
//
// Usage:
//   kernels_sim [--metrics-out FILE]   (default BENCH_kernels_sim.json)
//
// Each figure is the fastest repetition; gauges are named
// bench.sim.<path>_ns, plus bench.sim.allocate_held_breakpoints.
#include <algorithm>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/executor.hpp"
#include "runtime/graph.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/timeline.hpp"

namespace {

using namespace ftla;
using bench::best_seconds;

constexpr int kBlocks = 40;    ///< blocks verified per batch
constexpr int kBatches = 250;  ///< batches per repetition

/// Issues kBatches verification batches on a fresh TimingOnly tardis;
/// returns the number of launches.
long long verification_batches() {
  sim::Machine m(sim::tardis(), sim::ExecutionMode::TimingOnly);
  std::vector<sim::StreamId> recalc;
  for (int i = 0; i < m.profile().max_concurrent_kernels; ++i) {
    recalc.push_back(m.create_stream());
  }
  const std::int64_t b = m.profile().magma_block_size;
  long long launches = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    m.launch(m.default_stream(),
             sim::KernelDesc{"gemm", sim::KernelClass::Blas3, 2 * b * b * b,
                             0},
             {});
    ++launches;
    for (int blk = 0; blk < kBlocks; ++blk) {
      const sim::StreamId s = recalc[static_cast<std::size_t>(blk) %
                                     recalc.size()];
      m.launch(s,
               sim::KernelDesc{"recalc", sim::KernelClass::Blas2, 4 * b * b,
                               0},
               {});
      m.launch(s, sim::KernelDesc{"verify", sim::KernelClass::Compare, 4 * b,
                                  0},
               {});
      launches += 2;
    }
    m.sync_all();
  }
  return launches;
}

constexpr int kHeld = 500;      ///< breakpoints the timeline keeps
constexpr int kAllocs = 50000;  ///< allocations per repetition

/// Allocates kAllocs recalc-, verify- and update-shaped requests on a
/// tardis-sized pool from 16 streams, pruning behind the oldest
/// allocation whenever more than kHeld breakpoints are held. Returns
/// the mean number held at an allocation.
double timeline_allocations() {
  sim::ResourceTimeline pool(15);
  std::vector<double> stream_end(16, 0.0);
  std::deque<double> ends;  // in allocation order
  double horizon = 0.0;
  double held = 0.0;
  for (int i = 0; i < kAllocs; ++i) {
    static constexpr int kUnits[] = {7, 1, 7, 1, 15};
    const int units = kUnits[i % 5];
    const double dur = units == 1 ? 6e-6 : 40e-6;
    double& end = stream_end[static_cast<std::size_t>(i) % stream_end.size()];
    held += static_cast<double>(pool.breakpoints());
    const double start = pool.allocate(std::max(horizon, end), dur, units);
    end = start + dur;
    ends.push_back(end);
    while (pool.breakpoints() > kHeld) {
      horizon = std::max(horizon, ends.front());
      ends.pop_front();
      pool.prune(horizon);
    }
  }
  return held / kAllocs;
}

constexpr int kTaskBlocks = 64;  ///< verify tasks per panel task
constexpr int kPanels = 150;     ///< panel tasks per graph

/// A graph of kPanels rounds: one update task on the panel's tile, then
/// one recalc task per block that reads the panel and updates its own
/// checksum tile; each body launches one kernel.
runtime::TaskGraph verification_graph(sim::Machine& m) {
  runtime::TaskGraph g;
  const std::int64_t b = m.profile().magma_block_size;
  for (int p = 0; p < kPanels; ++p) {
    const runtime::TileKey panel{0, p % 8, 0};
    g.add_task("update", {runtime::rw(panel)},
               [&m, b](const runtime::TaskContext& c) {
                 m.launch(c.stream,
                          sim::KernelDesc{"update", sim::KernelClass::Blas3,
                                          2 * b * b * b, 0},
                          {});
               });
    for (int blk = 0; blk < kTaskBlocks; ++blk) {
      g.add_task("recalc",
                 {runtime::read(panel), runtime::rw({1, blk, 0})},
                 [&m, b](const runtime::TaskContext& c) {
                   m.launch(c.stream,
                            sim::KernelDesc{"recalc",
                                            sim::KernelClass::Blas2,
                                            4 * b * b, 0},
                            {});
                 });
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  bench::require_flags(argc, argv, {"--metrics-out"});
  std::string out = bench::metrics_out_path(argc, argv);
  if (out.empty()) out = "BENCH_kernels_sim.json";

  bench::print_header("kernels_sim",
                      "Host ns per simulated operation (best repetition).");

  long long launches = 0;
  const double launch_s =
      best_seconds([&] { launches = verification_batches(); });

  double held = 0.0;
  const double alloc_s = best_seconds([&] { held = timeline_allocations(); });

  sim::Machine m(sim::tardis(), sim::ExecutionMode::TimingOnly);
  runtime::StreamRunOptions opts;
  opts.streams.push_back(m.default_stream());
  for (int i = 0; i < m.profile().max_concurrent_kernels + 2; ++i) {
    opts.streams.push_back(m.create_stream());
  }
  const runtime::TaskGraph graph = verification_graph(m);
  const double task_s = best_seconds([&] {
    runtime::run_on_streams(graph, m, opts);
    m.sync_all();
  });

  const double launch_ns = launch_s * 1e9 / static_cast<double>(launches);
  const double alloc_ns = alloc_s * 1e9 / kAllocs;
  const double task_ns = task_s * 1e9 / graph.size();

  Table table({"path", "ns/op", "note"});
  table.add_row({"launch", Table::num(launch_ns),
                 "tardis verification batch, TimingOnly"});
  table.add_row({"allocate", Table::num(alloc_ns),
                 Table::num(held) + " breakpoints held on average"});
  table.add_row({"device_task", Table::num(task_ns),
                 std::to_string(opts.streams.size()) +
                     " streams, one launch per task"});
  bench::print_table(table);

  obs::MetricsRegistry metrics;
  metrics.set_gauge("bench.sim.launch_ns", launch_ns);
  metrics.set_gauge("bench.sim.allocate_ns", alloc_ns);
  metrics.set_gauge("bench.sim.allocate_held_breakpoints", held);
  metrics.set_gauge("bench.sim.device_task_ns", task_ns);
  bench::write_bench_report(out, "kernels_sim",
                            {{"machine", "tardis"},
                             {"timer", "best-of-reps steady_clock"}},
                            metrics);
  return 0;
}
