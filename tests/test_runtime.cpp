// Task-graph core (src/runtime): dependency inference, deterministic
// scheduling, cycle rejection, wave construction, and executor
// semantics on both backends (docs/runtime.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/graph.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "test_util.hpp"

namespace ftla::runtime {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

TileKey t(int m, int r, int c) { return TileKey{m, r, c}; }

TaskBody noop() {
  return [](const TaskContext&) {};
}

// --------------------------- inference ---------------------------------

TEST(GraphInference, RawEdgeFromWriterToReader) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  ASSERT_EQ(g.node(r).preds.size(), 1u);
  EXPECT_EQ(g.node(r).preds[0], w);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(GraphInference, WarEdgeFromReaderToWriter) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 0, 0))}, noop());
  // w1 must wait for the reader (WAR) and the previous writer (WAW).
  auto preds = g.node(w1).preds;
  std::sort(preds.begin(), preds.end());
  EXPECT_EQ(preds, (std::vector<int>{w0, r}));
}

TEST(GraphInference, WawChainsWriters) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 0, 0))}, noop());
  const int w2 = g.add_task("w2", {write(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(w1).preds, std::vector<int>{w0});
  EXPECT_EQ(g.node(w2).preds, std::vector<int>{w1});
}

TEST(GraphInference, IndependentReadersShareNoEdge) {
  TaskGraph g;
  g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r0 = g.add_task("r0", {read(t(0, 0, 0))}, noop());
  const int r1 = g.add_task("r1", {read(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(r1).preds, g.node(r0).preds);  // both depend on w only
  EXPECT_EQ(g.node(r0).succs, std::vector<int>{});
}

TEST(GraphInference, ReadWriteActsAsBoth) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int u = g.add_task("u", {rw(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(u).preds, std::vector<int>{w});
  EXPECT_EQ(g.node(r).preds, std::vector<int>{u});
}

TEST(GraphInference, DisjointTilesNoEdges) {
  TaskGraph g;
  g.add_task("a", {write(t(0, 0, 0)), read(t(0, 1, 0))}, noop());
  g.add_task("b", {write(t(0, 1, 1)), read(t(1, 0, 0))}, noop());
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(GraphInference, DuplicateEdgesCollapse) {
  TaskGraph g;
  const int w = g.add_task(
      "w", {write(t(0, 0, 0)), write(t(0, 1, 0))}, noop());
  const int r = g.add_task(
      "r", {read(t(0, 0, 0)), read(t(0, 1, 0))}, noop());
  ASSERT_EQ(g.node(r).preds.size(), 1u);
  EXPECT_EQ(g.node(r).preds[0], w);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(GraphInference, ManyReadersThenWriterKeepPredsOrderAndDedup) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 1, 0))}, noop());
  // Reader i reads tile A when i % 3 != 1 and tile B when i % 3 != 0,
  // so every third reader sits in both reader lists.
  std::vector<int> readers;
  std::int64_t edges = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<Footprint> fp;
    if (i % 3 != 0) fp.push_back(read(t(0, 1, 0)));
    if (i % 3 != 1) fp.push_back(read(t(0, 0, 0)));
    readers.push_back(g.add_task("r", fp, noop()));
    edges += static_cast<std::int64_t>(fp.size());
  }
  const int w = g.add_task("w", {rw(t(0, 0, 0)), write(t(0, 1, 0))}, noop());
  // A's writer and readers in insertion order, then B's writer and the
  // B readers not already linked through A.
  std::vector<int> expect{w0};
  for (int i = 0; i < 60; ++i) {
    if (i % 3 != 1) expect.push_back(readers[static_cast<std::size_t>(i)]);
  }
  expect.push_back(w1);
  for (int i = 0; i < 60; ++i) {
    if (i % 3 == 1) expect.push_back(readers[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(g.node(w).preds, expect);
  edges += static_cast<std::int64_t>(expect.size());
  EXPECT_EQ(g.edge_count(), edges);

  // A duplicate explicit edge changes nothing; a new one appends.
  g.add_edge(readers[2], w);
  EXPECT_EQ(g.node(w).preds, expect);
  EXPECT_EQ(g.edge_count(), edges);
  g.add_edge(readers[0], readers[1]);
  g.add_edge(readers[0], readers[1]);
  EXPECT_EQ(g.node(readers[1]).preds, (std::vector<int>{w1, readers[0]}));
  EXPECT_EQ(g.edge_count(), edges + 1);

  // After the explicit edges, inference still dedups and skips the
  // task's own read when it then writes the same tile.
  const int x = g.add_task("x", {read(t(0, 0, 0))}, noop());
  const int y =
      g.add_task("y", {read(t(0, 0, 0)), write(t(0, 0, 0))}, noop());
  EXPECT_EQ(g.node(x).preds, std::vector<int>{w});
  EXPECT_EQ(g.node(y).preds, (std::vector<int>{w, x}));
  EXPECT_EQ(g.edge_count(), edges + 4);
}

TEST(GraphInference, TileTableKeepsEveryTileAcrossGrowth) {
  // Enough tiles to regrow the tile index several times, over several
  // matrices and negative coordinates; each reader, added in a different
  // order, must find exactly its own tile's writer.
  TaskGraph g;
  std::vector<TileKey> keys;
  for (int m = -1; m <= 2; ++m) {
    for (int r = -3; r < 15; ++r) {
      for (int c = 0; c < 20; ++c) keys.push_back(t(m, r, c));
    }
  }
  std::vector<int> writer;
  for (const TileKey& k : keys) {
    writer.push_back(g.add_task("w", {write(k)}, noop()));
  }
  for (std::size_t i = keys.size(); i-- > 0;) {
    const int r = g.add_task("r", {read(keys[i])}, noop());
    EXPECT_EQ(g.node(r).preds, std::vector<int>{writer[i]});
  }
  EXPECT_EQ(g.edge_count(), static_cast<std::int64_t>(keys.size()));
}

// --------------------------- scheduling --------------------------------

TEST(GraphSchedule, InsertionOrderWhenPrioritiesEqual) {
  // The driver-conformance cornerstone: uniform priorities + forward
  // edges => schedule order == insertion order.
  TaskGraph g;
  for (int i = 0; i < 32; ++i) {
    g.add_task("n", {rw(t(0, i % 3, 0))}, noop());
  }
  const auto order = g.schedule();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(GraphSchedule, PriorityBreaksTiesDeterministically) {
  TaskGraph g;
  const int a = g.add_task("a", {}, noop());           // priority 0
  TaskOptions hot;
  hot.priority = -1;                                   // lower = earlier
  const int b = g.add_task("b", {}, noop(), hot);
  const int c = g.add_task("c", {}, noop());
  const auto order = g.schedule();
  EXPECT_EQ(order, (std::vector<int>{b, a, c}));
}

TEST(GraphSchedule, CycleRejected) {
  TaskGraph g;
  const int a = g.add_task("a", {}, noop());
  const int b = g.add_task("b", {}, noop());
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.schedule(), CycleError);
  EXPECT_THROW(g.waves(), CycleError);
}

TEST(GraphSchedule, WavesGroupByDepth) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r0 = g.add_task("r0", {read(t(0, 0, 0))}, noop());
  const int r1 = g.add_task("r1", {read(t(0, 0, 0))}, noop());
  const int f = g.add_task("f", {rw(t(0, 0, 0))}, noop());
  const auto waves = g.waves();
  ASSERT_EQ(waves.size(), 3u);
  EXPECT_EQ(waves[0], std::vector<int>{w});
  EXPECT_EQ(waves[1], (std::vector<int>{r0, r1}));
  EXPECT_EQ(waves[2], std::vector<int>{f});
}

TEST(GraphSchedule, EmptyGraph) {
  TaskGraph g;
  EXPECT_EQ(g.schedule(), std::vector<int>{});
  EXPECT_TRUE(g.waves().empty());
}

// --------------------------- host executor -----------------------------

// Build a tile-Cholesky task graph over a host matrix with real BLAS
// bodies. Same-wave tasks write disjoint tiles, so any thread count
// must produce bit-identical factors.
Matrix<double> host_dag_cholesky(const Matrix<double>& a0, int b,
                                 common::ThreadPool* pool) {
  Matrix<double> a = a0;
  const int n = a.rows();
  const int nb = (n + b - 1) / b;
  auto bs = [&](int i) { return std::min(b, n - i * b); };
  auto blk = [&](int i, int k) {
    return a.block(i * b, k * b, bs(i), bs(k));
  };

  TaskGraph g;
  for (int j = 0; j < nb; ++j) {
    for (int k = 0; k < j; ++k) {
      g.add_task("syrk",
                 {read(t(0, j, k)), rw(t(0, j, j))},
                 [blk, j, k](const TaskContext&) {
                   auto c = blk(j, j);
                   blas::gemm(Trans::No, Trans::Yes, -1.0,
                              ConstMatrixView<double>(blk(j, k)),
                              ConstMatrixView<double>(blk(j, k)), 1.0, c);
                 });
    }
    g.add_task("potf2", {rw(t(0, j, j))}, [blk, j](const TaskContext&) {
      auto d = blk(j, j);
      blas::potf2(d);
      for (int c = 1; c < d.cols(); ++c)
        for (int r = 0; r < c; ++r) d(r, c) = 0.0;
    });
    for (int i = j + 1; i < nb; ++i) {
      for (int k = 0; k < j; ++k) {
        g.add_task("gemm",
                   {read(t(0, i, k)), read(t(0, j, k)), rw(t(0, i, j))},
                   [blk, i, j, k](const TaskContext&) {
                     auto c = blk(i, j);
                     blas::gemm(Trans::No, Trans::Yes, -1.0,
                                ConstMatrixView<double>(blk(i, k)),
                                ConstMatrixView<double>(blk(j, k)), 1.0, c);
                   });
      }
      g.add_task("trsm", {read(t(0, j, j)), rw(t(0, i, j))},
                 [blk, i, j](const TaskContext&) {
                   auto p = blk(i, j);
                   blas::trsm(Side::Right, Uplo::Lower, Trans::Yes,
                              Diag::NonUnit, 1.0,
                              ConstMatrixView<double>(blk(j, j)), p);
                 });
    }
  }
  HostRunOptions opts;
  opts.pool = pool;
  run_on_host(g, opts);
  return a;
}

TEST(HostExecutor, TileCholeskyBitIdenticalAcrossThreadCounts) {
  const int n = 96;
  const auto a0 = test::random_spd(n, 1234);

  common::ThreadPool serial(1);
  common::ThreadPool wide(4);
  const auto f1 = host_dag_cholesky(a0, 16, &serial);
  const auto f4 = host_dag_cholesky(a0, 16, &wide);

  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(f1(i, j), f4(i, j)) << "thread-count divergence at (" << i
                                    << ", " << j << ")";

  auto ref = a0;
  blas::potrf(ref.view(), 16);
  EXPECT_LE(test::lower_max_diff(f1, ref), 1e-9);
}

TEST(HostExecutor, RunsEveryTaskOnce) {
  TaskGraph g;
  std::atomic<int> hits{0};
  for (int i = 0; i < 64; ++i) {
    g.add_task("n", {rw(t(0, i % 5, 0))},
               [&hits](const TaskContext&) { ++hits; });
  }
  common::ThreadPool pool(4);
  obs::MetricsRegistry metrics;
  HostRunOptions opts;
  opts.pool = &pool;
  opts.metrics = &metrics;
  run_on_host(g, opts);
  EXPECT_EQ(hits.load(), 64);
  EXPECT_EQ(metrics.counter("runtime.host.tasks"), 64);
}

// --------------------------- stream executor ---------------------------

TEST(StreamExecutor, IssuesInScheduleOrderAndFencesDeps) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  const sim::StreamId extra = m.create_stream();

  TaskGraph g;
  std::vector<int> issued;
  auto body = [&issued](int id) {
    return [&issued, id](const TaskContext&) { issued.push_back(id); };
  };
  g.add_task("a", {write(t(0, 0, 0))}, body(0));
  g.add_task("b", {read(t(0, 0, 0)), write(t(0, 1, 0))}, body(1));
  g.add_task("c", {read(t(0, 0, 0)), write(t(0, 2, 0))}, body(2));
  g.add_task("d", {read(t(0, 1, 0)), read(t(0, 2, 0))}, body(3));

  StreamRunOptions opts;
  opts.streams = {m.default_stream(), extra};
  const StreamRunStats stats = run_on_streams(g, m, opts);
  m.sync_all();

  EXPECT_EQ(issued, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(stats.tasks, 4);
  EXPECT_EQ(stats.device_tasks, 4);
  EXPECT_EQ(stats.edges, 4);
  // The bodies issue no machine work, so every stream-end tie breaks to
  // the pool head: all four tasks share one stream and every edge rides
  // same-stream FIFO order — no fence is ever issued.
  EXPECT_EQ(stats.stream_waits, 0);
  EXPECT_EQ(stats.host_syncs, 0);
}

TEST(StreamExecutor, HostAndInlineTasksOrderViaHostClock) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  TaskGraph g;
  std::vector<int> issued;
  TaskOptions dev;
  TaskOptions host;
  host.where = Where::Host;
  TaskOptions inl;
  inl.where = Where::Inline;
  g.add_task("launch", {write(t(0, 0, 0))},
             [&](const TaskContext& c) {
               issued.push_back(0);
               sim::KernelDesc d{"k", sim::KernelClass::Blas3, 1000, 0};
               m.launch(c.stream, d, {});
             },
             dev);
  g.add_task("host", {read(t(0, 0, 0)), write(t(1, 0, 0))},
             [&](const TaskContext&) {
               issued.push_back(1);
               sim::KernelDesc d{"h", sim::KernelClass::HostPotf2, 1000, 0};
               m.host_compute(d, {});
             },
             host);
  g.add_task("hook", {}, [&](const TaskContext&) { issued.push_back(2); },
             inl);
  g.add_task("launch2", {read(t(1, 0, 0))},
             [&](const TaskContext& c) {
               issued.push_back(3);
               sim::KernelDesc d{"k2", sim::KernelClass::Blas3, 1000, 0};
               m.launch(c.stream, d, {});
             },
             dev);

  const StreamRunStats stats = run_on_streams(g, m, {});
  m.sync_all();
  EXPECT_EQ(issued, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(stats.host_tasks, 1);
  EXPECT_EQ(stats.inline_tasks, 1);
  EXPECT_EQ(stats.device_tasks, 2);
  EXPECT_GT(m.host_now(), 0.0);
}

TEST(StreamExecutor, BodyExceptionPropagates) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  TaskGraph g;
  g.add_task("boom", {},
             [](const TaskContext&) { throw UnrecoverableCorruptionError("x"); });
  EXPECT_THROW(run_on_streams(g, m, {}), UnrecoverableCorruptionError);
}

}  // namespace
}  // namespace ftla::runtime
