// Task-graph core (src/runtime): dependency inference, the invariant
// that every inferred edge points backward (so insertion order is the
// schedule), and the stream executor's semantics (docs/runtime.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/graph.hpp"
#include "runtime/sanitizer.hpp"
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

auto noop() {
  return [](const TaskContext&) {};
}

std::vector<int> preds_of(const TaskGraph& g, int id) {
  const std::span<const int> preds = g.preds(id);
  return {preds.begin(), preds.end()};
}

// --------------------------- inference ---------------------------------

TEST(GraphInference, RawEdgeFromWriterToReader) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  ASSERT_EQ(g.preds(r).size(), 1u);
  EXPECT_EQ(g.preds(r)[0], w);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(GraphInference, WarEdgeFromReaderToWriter) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 0, 0))}, noop());
  // w1 must wait for the reader (WAR) and the previous writer (WAW).
  auto preds = preds_of(g, w1);
  std::sort(preds.begin(), preds.end());
  EXPECT_EQ(preds, (std::vector<int>{w0, r}));
}

TEST(GraphInference, WawChainsWriters) {
  TaskGraph g;
  const int w0 = g.add_task("w0", {write(t(0, 0, 0))}, noop());
  const int w1 = g.add_task("w1", {write(t(0, 0, 0))}, noop());
  const int w2 = g.add_task("w2", {write(t(0, 0, 0))}, noop());
  EXPECT_EQ(preds_of(g, w1), std::vector<int>{w0});
  EXPECT_EQ(preds_of(g, w2), std::vector<int>{w1});
}

TEST(GraphInference, IndependentReadersShareNoEdge) {
  TaskGraph g;
  g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int r0 = g.add_task("r0", {read(t(0, 0, 0))}, noop());
  const int r1 = g.add_task("r1", {read(t(0, 0, 0))}, noop());
  EXPECT_EQ(preds_of(g, r1), preds_of(g, r0));  // both depend on w only
  EXPECT_FALSE(g.has_successor(r0));
}

TEST(GraphInference, ReadWriteActsAsBoth) {
  TaskGraph g;
  const int w = g.add_task("w", {write(t(0, 0, 0))}, noop());
  const int u = g.add_task("u", {rw(t(0, 0, 0))}, noop());
  const int r = g.add_task("r", {read(t(0, 0, 0))}, noop());
  EXPECT_EQ(preds_of(g, u), std::vector<int>{w});
  EXPECT_EQ(preds_of(g, r), std::vector<int>{u});
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
  ASSERT_EQ(g.preds(r).size(), 1u);
  EXPECT_EQ(g.preds(r)[0], w);
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
  EXPECT_EQ(preds_of(g, w), expect);
  edges += static_cast<std::int64_t>(expect.size());
  EXPECT_EQ(g.edge_count(), edges);

  // Inference dedups and skips the task's own read when it then writes
  // the same tile.
  const int x = g.add_task("x", {read(t(0, 0, 0))}, noop());
  const int y =
      g.add_task("y", {read(t(0, 0, 0)), write(t(0, 0, 0))}, noop());
  EXPECT_EQ(preds_of(g, x), std::vector<int>{w});
  EXPECT_EQ(preds_of(g, y), (std::vector<int>{w, x}));
  EXPECT_EQ(g.edge_count(), edges + 3);
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
    EXPECT_EQ(preds_of(g, r), std::vector<int>{writer[i]});
  }
  EXPECT_EQ(g.edge_count(), static_cast<std::int64_t>(keys.size()));
}

TEST(GraphInference, EdgesPointBackwardAndNeverRepeat) {
  // The property insertion-order issue rests on: every inferred edge
  // points from an earlier task into a later one, so ids 0..n-1 are a
  // topological order. Seeded random footprints over a small tile space
  // (two matrices, all three access kinds, repeated tiles inside one
  // footprint, empty footprints) must never produce a forward or
  // repeated predecessor, and a task's successor flag must be set
  // exactly when some later task lists it among its preds.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    TaskGraph g;
    for (int task = 0; task < 200; ++task) {
      std::vector<Footprint> fp;
      const int entries = rng.uniform_int(0, 5);
      for (int e = 0; e < entries; ++e) {
        const TileKey k =
            t(rng.uniform_int(0, 1), rng.uniform_int(0, 2),
              rng.uniform_int(0, 2));
        switch (rng.uniform_int(0, 2)) {
          case 0: fp.push_back(read(k)); break;
          case 1: fp.push_back(write(k)); break;
          default: fp.push_back(rw(k)); break;
        }
        if (rng.uniform_int(0, 3) == 0) fp.push_back(read(k));
      }
      g.add_task("n", fp, noop());
    }
    std::int64_t preds = 0;
    std::vector<bool> listed(static_cast<std::size_t>(g.size()), false);
    for (int id = 0; id < g.size(); ++id) {
      std::vector<int> seen = preds_of(g, id);
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
          << "seed " << seed << ": task " << id << " repeats a pred";
      for (const int p : g.preds(id)) {
        EXPECT_LT(p, id) << "seed " << seed << ": task " << id;
        listed[static_cast<std::size_t>(p)] = true;
      }
      preds += static_cast<std::int64_t>(g.preds(id).size());
    }
    EXPECT_EQ(g.edge_count(), preds) << "seed " << seed;
    for (int id = 0; id < g.size(); ++id) {
      EXPECT_EQ(g.has_successor(id), listed[static_cast<std::size_t>(id)])
          << "seed " << seed << ": task " << id;
    }
  }
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

// 32 tasks that append their node id to `issued`: a read-modify-write
// chain over three tiles, with every fourth task on a fresh tile of its
// own, so a later id is often ready long before the chain ahead of it.
// Every body holds a copy of `token`.
TaskGraph chain_with_free_tasks(std::vector<int>* issued,
                                std::shared_ptr<int> token = nullptr) {
  TaskGraph g;
  for (int i = 0; i < 32; ++i) {
    const TileKey k = i % 4 == 3 ? t(1, i, 0) : t(0, i % 3, 0);
    g.add_task("n", {rw(k)}, [issued, token](const TaskContext& c) {
      issued->push_back(c.task);
    });
  }
  return g;
}

TEST(StreamExecutor, IssuesInsertionOrderWhenLaterTasksAreReadyFirst) {
  // The driver-conformance cornerstone: with no schedule seed the
  // executor issues ids 0..n-1 whatever is ready first, and runs every
  // task exactly once.
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  std::vector<int> issued;
  const TaskGraph g = chain_with_free_tasks(&issued);
  obs::MetricsRegistry metrics;
  StreamRunOptions opts;
  opts.metrics = &metrics;
  const StreamRunStats stats = run_on_streams(g, m, opts);

  std::vector<int> ids(32);
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(issued, ids);
  EXPECT_EQ(stats.tasks, 32);
  EXPECT_EQ(stats.device_tasks, 32);
  EXPECT_EQ(stats.edges, g.edge_count());
  EXPECT_EQ(metrics.counter("runtime.tasks"), 32);
}

TEST(StreamExecutor, SeededRunIssuesTheRandomScheduleOrder) {
  // schedule_seed swaps insertion order for random_schedule(seed), and
  // an armed tracker's executed prefix records that same order.
  std::set<std::vector<int>> orders;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
    std::vector<int> issued;
    TaskGraph g = chain_with_free_tasks(&issued);
    AccessTracker tracker;
    g.set_access_tracker(&tracker);
    StreamRunOptions opts;
    opts.schedule_seed = seed;
    run_on_streams(g, m, opts);
    EXPECT_EQ(issued, g.random_schedule(seed)) << "seed " << seed;
    EXPECT_EQ(tracker.schedule_prefix(), issued) << "seed " << seed;
    orders.insert(issued);
  }
  // The free tasks give the seeds room: they must not all agree.
  EXPECT_GT(orders.size(), 1u);
}

TEST(StreamExecutor, EmptyGraphIssuesNothing) {
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  const double host0 = m.host_now();
  const double stream0 = m.stream_end(m.default_stream());
  TaskGraph g;
  EXPECT_EQ(g.random_schedule(3), std::vector<int>{});
  AccessTracker tracker;
  g.set_access_tracker(&tracker);
  obs::MetricsRegistry metrics;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{3}}) {
    StreamRunOptions opts;
    opts.schedule_seed = seed;
    opts.metrics = &metrics;
    const StreamRunStats stats = run_on_streams(g, m, opts);
    EXPECT_EQ(stats.tasks, 0) << "seed " << seed;
    EXPECT_EQ(stats.edges, 0) << "seed " << seed;
    EXPECT_EQ(stats.stream_waits, 0) << "seed " << seed;
    EXPECT_EQ(stats.host_syncs, 0) << "seed " << seed;
  }
  EXPECT_EQ(m.host_now(), host0);
  EXPECT_EQ(m.stream_end(m.default_stream()), stream0);
  EXPECT_TRUE(tracker.clean());
  EXPECT_TRUE(tracker.schedule_prefix().empty());
  EXPECT_EQ(tracker.accesses(), 0);
  EXPECT_EQ(metrics.counter("runtime.tasks"), 0);
}

// --------------------------- task storage ------------------------------

static_assert(!std::is_copy_constructible_v<TaskGraph> &&
                  std::is_nothrow_move_constructible_v<TaskGraph> &&
                  std::is_nothrow_move_assignable_v<TaskGraph>,
              "a graph is move-only: its nodes point into its own arena");

TEST(TaskStorage, BodiesAreDestroyedOnceWithTheGraphThatOwnsThem) {
  // The arena runs a body's destructor once, when the graph holding it
  // dies: a move hands the bodies over, and a move-assignment first
  // destroys the target's own.
  auto token = std::make_shared<int>(0);
  std::vector<int> issued;
  {
    TaskGraph built = chain_with_free_tasks(&issued, token);
    EXPECT_EQ(token.use_count(), 33);
    TaskGraph target;
    target.add_task("own", {}, [token](const TaskContext&) {});
    EXPECT_EQ(token.use_count(), 34);
    {
      TaskGraph moved = std::move(built);
      EXPECT_EQ(token.use_count(), 34);
      target = std::move(moved);
      EXPECT_EQ(token.use_count(), 33);
    }
    EXPECT_EQ(token.use_count(), 33);  // the moved-from graphs own nothing
    sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
    run_on_streams(target, m);
    EXPECT_EQ(issued.size(), 32u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(TaskStorage, FootprintLargerThanAnArenaChunkRunsIntact) {
  // 20000 entries (320 KB) exceed one 256 KiB arena chunk. The stored
  // footprint must equal the declared one, infer each tile's writer, and
  // cover every access the body records.
  TaskGraph g;
  std::vector<Footprint> fp;
  for (int i = 0; i < 20000; ++i) {
    const TileKey k = t(0, i / 100, i % 100);
    g.add_task("w", {write(k)}, noop());
    fp.push_back(read(k));
  }
  fp.push_back(write(t(1, 0, 0)));
  const int big = g.add_task("big", fp, [fp](const TaskContext& c) {
    for (const Footprint& f : fp) c.tiles.record(f);
  });
  const int after = g.add_task("after", {read(t(1, 0, 0))}, noop());

  const std::span<const Footprint> stored = g.footprint(big);
  ASSERT_EQ(stored.size(), fp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_TRUE(stored[i].tile == fp[i].tile) << "entry " << i;
    EXPECT_EQ(stored[i].access, fp[i].access) << "entry " << i;
  }
  std::vector<int> writers(20000);
  std::iota(writers.begin(), writers.end(), 0);
  EXPECT_EQ(preds_of(g, big), writers);
  EXPECT_EQ(preds_of(g, after), std::vector<int>{big});

  AccessTracker tracker;
  g.set_access_tracker(&tracker);
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  run_on_streams(g, m);
  EXPECT_TRUE(tracker.clean()) << tracker.report(g);
  EXPECT_EQ(tracker.accesses(), 20001);
}

TEST(TaskStorage, BodyLargerThanAnArenaChunkRunsIntact) {
  // A 300 KB capture sits between small tasks; each body must see its
  // own captures unchanged.
  std::array<std::uint8_t, 300000> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::uint64_t expect =
      std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
  std::vector<std::uint64_t> seen;
  TaskGraph g;
  g.add_task("before", {}, [&seen](const TaskContext&) { seen.push_back(1); });
  g.add_task("big", {}, [&seen, bytes](const TaskContext&) {
    seen.push_back(
        std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0}));
  });
  g.add_task("after", {}, [&seen](const TaskContext&) { seen.push_back(2); });
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  run_on_streams(g, m);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, expect, 2}));
}

// Tile Cholesky over a host matrix with real BLAS bodies that record
// their tile accesses, issued on streams in the order `seed` selects
// (0 = insertion order).
Matrix<double> stream_dag_cholesky(const Matrix<double>& a0, int b,
                                   std::uint64_t seed,
                                   AccessTracker* tracker) {
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
      g.add_task("syrk", {read(t(0, j, k)), rw(t(0, j, j))},
                 [blk, j, k](const TaskContext& c) {
                   c.tiles.record(read(t(0, j, k)));
                   c.tiles.record(rw(t(0, j, j)));
                   auto d = blk(j, j);
                   blas::gemm(Trans::No, Trans::Yes, -1.0,
                              ConstMatrixView<double>(blk(j, k)),
                              ConstMatrixView<double>(blk(j, k)), 1.0, d);
                 });
    }
    g.add_task("potf2", {rw(t(0, j, j))}, [blk, j](const TaskContext& c) {
      c.tiles.record(rw(t(0, j, j)));
      auto d = blk(j, j);
      blas::potf2(d);
      for (int col = 1; col < d.cols(); ++col)
        for (int row = 0; row < col; ++row) d(row, col) = 0.0;
    });
    for (int i = j + 1; i < nb; ++i) {
      for (int k = 0; k < j; ++k) {
        g.add_task("gemm",
                   {read(t(0, i, k)), read(t(0, j, k)), rw(t(0, i, j))},
                   [blk, i, j, k](const TaskContext& c) {
                     c.tiles.record(read(t(0, i, k)));
                     c.tiles.record(read(t(0, j, k)));
                     c.tiles.record(rw(t(0, i, j)));
                     auto d = blk(i, j);
                     blas::gemm(Trans::No, Trans::Yes, -1.0,
                                ConstMatrixView<double>(blk(i, k)),
                                ConstMatrixView<double>(blk(j, k)), 1.0, d);
                   });
      }
      g.add_task("trsm", {read(t(0, j, j)), rw(t(0, i, j))},
                 [blk, i, j](const TaskContext& c) {
                   c.tiles.record(read(t(0, j, j)));
                   c.tiles.record(rw(t(0, i, j)));
                   auto p = blk(i, j);
                   blas::trsm(Side::Right, Uplo::Lower, Trans::Yes,
                              Diag::NonUnit, 1.0,
                              ConstMatrixView<double>(blk(j, j)), p);
                 });
    }
  }
  g.set_access_tracker(tracker);
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::TimingOnly);
  StreamRunOptions opts;
  opts.schedule_seed = seed;
  run_on_streams(g, m, opts);
  return a;
}

TEST(StreamExecutor, TileCholeskyBitIdenticalAcrossSchedules) {
  // Bodies run eagerly at issue, so every topological issue order must
  // give the same factor to the last bit; and the sanitizer, whose
  // happens-before relation begin_run builds in id order, must find
  // each permuted run clean.
  const int n = 96;
  const auto a0 = test::random_spd(n, 1234);
  AccessTracker tracker;
  const auto f0 = stream_dag_cholesky(a0, 16, 0, &tracker);
  EXPECT_TRUE(tracker.clean());

  std::set<std::vector<int>> orders;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto f = stream_dag_cholesky(a0, 16, seed, &tracker);
    EXPECT_TRUE(tracker.clean()) << "seed " << seed;
    orders.insert(tracker.schedule_prefix());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(f(i, j), f0(i, j)) << "seed " << seed
                                     << ": divergence at (" << i << ", "
                                     << j << ")";
  }
  EXPECT_GT(orders.size(), 1u);

  auto ref = a0;
  blas::potrf(ref.view(), 16);
  EXPECT_LE(test::lower_max_diff(f0, ref), 1e-9);
}

}  // namespace
}  // namespace ftla::runtime
