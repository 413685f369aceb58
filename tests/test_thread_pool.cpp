// ThreadPool: partitioning, nesting ban, determinism, global pool, and
// the draw-ordered campaign runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"

namespace ftla::common {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads < 1 ? 1 : threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForChunksPartitionIsDisjointAndComplete) {
  for (const int threads : {1, 3, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for_chunks(0, 257, [&](std::int64_t lo, std::int64_t hi) {
      EXPECT_LT(lo, hi);
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  pool.parallel_for_chunks(9, 3, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, NestedSubmissionRunsInline) {
  ThreadPool pool(4);
  ASSERT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<int> nested_total{0};
  std::atomic<bool> saw_region{false};
  pool.parallel_for(0, 8, [&](std::int64_t) {
    if (ThreadPool::in_parallel_region()) saw_region = true;
    // A submission from a pool body must run inline on this lane (the
    // nesting ban), not deadlock or fan out.
    pool.parallel_for(0, 3, [&](std::int64_t) { nested_total.fetch_add(1); });
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  EXPECT_EQ(nested_total.load(), 8 * 3);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  long long total = 0;
  for (int job = 0; job < 50; ++job) {
    std::atomic<long long> sum{0};
    pool.parallel_for(0, 100, [&](std::int64_t i) { sum.fetch_add(i); });
    total += sum.load();
  }
  EXPECT_EQ(total, 50LL * (99 * 100 / 2));
}

TEST(ThreadPool, ChunkResultsAreIdenticalAcrossThreadCounts) {
  // Per-chunk work writes only its own slots, so any partition must
  // produce the same values — the invariant the parallel BLAS rests on.
  const int n = 1003;
  std::vector<double> base(n);
  ThreadPool serial(1);
  serial.parallel_for_chunks(0, n, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      base[static_cast<std::size_t>(i)] = 0.1 * static_cast<double>(i * i);
    }
  });
  for (const int threads : {2, 4, 5}) {
    ThreadPool pool(threads);
    std::vector<double> out(n);
    pool.parallel_for_chunks(0, n, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        out[static_cast<std::size_t>(i)] = 0.1 * static_cast<double>(i * i);
      }
    });
    EXPECT_EQ(out, base);
  }
}

TEST(RunDrawOrdered, MergesInDrawOrderOneWindowAtATime) {
  // Draws run serially on the caller, every result comes back to
  // merge() in draw order, and no item of a window is drawn before the
  // previous window merged — at every lane count and window size.
  constexpr int kCount = 10;
  for (const int threads : {1, 4}) {
    for (const int window : {0, 3, kCount}) {
      int drawn = 0;
      std::vector<int> merged;
      run_draw_ordered(
          kCount, threads, window, [&] { return drawn++; },
          [](const int& item) { return item * item; },
          [&](int index, const int& item, const int& result) {
            EXPECT_EQ(item, index);
            EXPECT_EQ(result, index * index);
            const int w = window > 0 ? window : kCount;
            EXPECT_EQ(drawn, std::min(kCount, (index / w + 1) * w));
            merged.push_back(index);
          });
      std::vector<int> expected(kCount);
      std::iota(expected.begin(), expected.end(), 0);
      EXPECT_EQ(merged, expected) << threads << " lanes, window " << window;
    }
  }
  int calls = 0;
  run_draw_ordered(
      0, 4, 0, [&] { return ++calls; }, [](const int& i) { return i; },
      [&](int, const int&, const int&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolGlobal, SetGlobalThreadsReconfigures) {
  set_global_threads(3);
  EXPECT_EQ(global_threads(), 3);
  EXPECT_EQ(global_pool().threads(), 3);
  set_global_threads(1);
  EXPECT_EQ(global_threads(), 1);
}

TEST(ThreadPoolGlobal, ZeroMeansHardwareConcurrency) {
  set_global_threads(0);
  EXPECT_EQ(global_threads(), hardware_threads());
  set_global_threads(1);
}

}  // namespace
}  // namespace ftla::common
