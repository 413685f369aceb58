// Schedule-permutation fuzzer for the task-graph runtime.
//
// TaskGraph::random_schedule(seed) draws a seeded random valid
// topological order. The unit tests pin down its contract (validity,
// per-seed determinism, diversity, sequence-point pinning); the driver
// fuzz tests then execute the cholesky/lu/qr DAGs — with faults armed
// and the footprint sanitizer recording — under 32 random schedules
// each and certify bit-identical factors, tau vectors, verification
// counters, and error counters against insertion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "fault/fault.hpp"
#include "runtime/graph.hpp"
#include "sim/profile.hpp"
#include "test_util.hpp"

namespace ftla {
namespace {

using sim::ExecutionMode;
using sim::Machine;

constexpr std::uint64_t kFuzzSeeds = 32;

sim::MachineProfile small_rig() {
  auto p = sim::test_rig();
  p.magma_block_size = 16;
  return p;
}

// Exact elementwise equality — a permuted schedule must reproduce the
// deterministic result to the last bit, not merely to a tolerance.
void expect_bit_identical(const Matrix<double>& a, const Matrix<double>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << "first divergence at (" << i << ", "
                                  << j << ")";
    }
  }
}

/// RAII switch for the drivers' FTLA_DAG_SANITIZE opt-in, so the fuzz
/// runs double as sanitizer coverage of every permuted schedule.
class SanitizeEnvGuard {
 public:
  SanitizeEnvGuard() { ::setenv("FTLA_DAG_SANITIZE", "1", 1); }
  ~SanitizeEnvGuard() { ::unsetenv("FTLA_DAG_SANITIZE"); }
};

auto nop() {
  return [](const runtime::TaskContext&) {};
}

// A small pipeline with real hazards: per column a producer, two
// consumers of the produced tile, and a reducer over both results.
runtime::TaskGraph pipeline_graph(int cols) {
  runtime::TaskGraph g;
  for (int k = 0; k < cols; ++k) {
    const runtime::TileKey t{0, 0, k};
    const runtime::TileKey u{1, 0, k};
    const runtime::TileKey v{2, 0, k};
    const runtime::TileKey r{3, 0, k};
    g.add_task("produce", {runtime::write(t)}, nop());
    g.add_task("left", {runtime::read(t), runtime::write(u)}, nop());
    g.add_task("right", {runtime::read(t), runtime::write(v)}, nop());
    g.add_task("reduce",
               {runtime::read(u), runtime::read(v), runtime::write(r)},
               nop());
  }
  return g;
}

TEST(RandomSchedule, IsAValidTopologicalOrder) {
  runtime::TaskGraph g = pipeline_graph(4);
  const int n = g.size();
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const std::vector<int> order = g.random_schedule(seed);
    ASSERT_EQ(static_cast<int>(order.size()), n);
    // A permutation of 0..n-1.
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> iota(n);
    std::iota(iota.begin(), iota.end(), 0);
    ASSERT_EQ(sorted, iota) << "seed " << seed;
    // Every dependency edge respected.
    std::vector<int> pos(n);
    for (int i = 0; i < n; ++i) pos[order[i]] = i;
    for (int task = 0; task < n; ++task) {
      for (int pred : g.preds(task)) {
        ASSERT_LT(pos[pred], pos[task])
            << "seed " << seed << ": task " << task << " ran before its "
            << "predecessor " << pred;
      }
    }
  }
}

TEST(RandomSchedule, DeterministicPerSeedAndDiverseAcrossSeeds) {
  runtime::TaskGraph g = pipeline_graph(4);
  EXPECT_EQ(g.random_schedule(7), g.random_schedule(7));
  EXPECT_EQ(g.random_schedule(12345), g.random_schedule(12345));
  std::set<std::vector<int>> orders;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    orders.insert(g.random_schedule(seed));
  }
  // 16 tasks with lots of slack: seeds must actually explore.
  EXPECT_GT(orders.size(), 4u);
  // And at least one differs from insertion order.
  std::vector<int> insertion(static_cast<std::size_t>(g.size()));
  std::iota(insertion.begin(), insertion.end(), 0);
  EXPECT_TRUE(orders.size() > 1u || *orders.begin() != insertion);
}

TEST(RandomSchedule, EmptyFootprintTasksStaySequencePoints) {
  // Empty-footprint tasks (the fault-injection hooks) must keep their
  // insertion-order position as a barrier: the *set* of tasks issued
  // before them is identical in every random schedule.
  runtime::TaskGraph g;
  const runtime::TileKey ta{0, 0, 0};
  const runtime::TileKey tb{0, 0, 1};
  const runtime::TileKey tc{0, 0, 2};
  const runtime::TileKey td{0, 0, 3};
  g.add_task("a", {runtime::write(ta)}, nop());
  g.add_task("b", {runtime::write(tb)}, nop());
  const int hook = g.add_task("hook", {}, nop());
  g.add_task("c", {runtime::write(tc)}, nop());
  g.add_task("d", {runtime::write(td)}, nop());

  std::set<int> det_before;
  for (int id = 0; id < hook; ++id) det_before.insert(id);

  std::set<std::vector<int>> orders;
  for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    const std::vector<int> order = g.random_schedule(seed);
    const auto at = std::find(order.begin(), order.end(), hook);
    ASSERT_NE(at, order.end());
    const std::set<int> before(order.begin(), at);
    EXPECT_EQ(before, det_before) << "seed " << seed;
    orders.insert(order);
  }
  // The segments around the hook still permute (a/b and c/d commute).
  EXPECT_GT(orders.size(), 1u);
}

// ------------------------- driver fuzzing ------------------------------
//
// Seed 0 is insertion order; every other seed permutes the issue
// order. Because work is dispatched eagerly at issue and the
// numeric kernels are sequential per task, any valid topological order
// must produce bit-identical results — factors, tau, verification
// verdicts, and correction counters alike. Each runs at n = 96 and at
// n = 90, whose last block (10 of 16) is partial.

struct FuzzOutcome {
  Matrix<double> matrix;
  std::vector<double> tau;
  abft::CholeskyResult res;
  int fired = 0;
};

void expect_same_outcome(const FuzzOutcome& base, const FuzzOutcome& got,
                         std::uint64_t matrix_seed, std::uint64_t seed) {
  FTLA_SEED_TRACE_DAG(matrix_seed, seed);
  expect_bit_identical(base.matrix, got.matrix);
  ASSERT_EQ(base.tau.size(), got.tau.size());
  for (std::size_t i = 0; i < base.tau.size(); ++i) {
    ASSERT_EQ(base.tau[i], got.tau[i]) << "tau diverges at " << i;
  }
  EXPECT_EQ(base.res.success, got.res.success);
  EXPECT_EQ(base.res.verified.potf2_blocks, got.res.verified.potf2_blocks);
  EXPECT_EQ(base.res.verified.trsm_blocks, got.res.verified.trsm_blocks);
  EXPECT_EQ(base.res.verified.syrk_blocks, got.res.verified.syrk_blocks);
  EXPECT_EQ(base.res.verified.gemm_blocks, got.res.verified.gemm_blocks);
  EXPECT_EQ(base.res.errors_detected, got.res.errors_detected);
  EXPECT_EQ(base.res.errors_corrected, got.res.errors_corrected);
  EXPECT_EQ(base.res.checksum_repairs, got.res.checksum_repairs);
  EXPECT_EQ(base.res.reruns, got.res.reruns);
  EXPECT_EQ(base.fired, got.fired);
}

TEST(ScheduleFuzz, CholeskyDagBitIdenticalAcrossRandomSchedules) {
  SanitizeEnvGuard env;
  for (const int n : {96, 90}) {
    SCOPED_TRACE(n);
    const auto a0 = test::random_spd(n, 321);
    const auto run = [&](std::uint64_t seed) {
      FuzzOutcome out;
      out.matrix = a0;
      fault::FaultSpec s;
      s.type = fault::FaultType::Storage;
      s.op = fault::Op::Syrk;
      s.iteration = 3;
      s.block_row = 3;
      s.block_col = 2;
      s.elem_row = 2;
      s.elem_col = 7;
      s.bits = {20, 44, 54};
      fault::Injector inj({s});
      Machine m(small_rig(), ExecutionMode::Numeric);
      abft::CholeskyOptions opt;
      opt.variant = abft::Variant::EnhancedOnline;
      opt.runtime = abft::RuntimeMode::Dag;
      opt.dag_schedule_seed = seed;
      out.res = abft::cholesky(m, &out.matrix, n, opt, &inj);
      out.fired = inj.fired_count();
      EXPECT_TRUE(out.res.success) << out.res.note;
      return out;
    };
    const FuzzOutcome base = run(0);
    EXPECT_EQ(base.fired, 1);
    EXPECT_GE(base.res.errors_corrected, 1);
    for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
      expect_same_outcome(base, run(seed), 321, seed);
    }
  }
}

TEST(ScheduleFuzz, LuDagBitIdenticalAcrossRandomSchedules) {
  SanitizeEnvGuard env;
  for (const int n : {96, 90}) {
    SCOPED_TRACE(n);
    const auto a0 = test::random_spd(n, 2024);
    const auto run = [&](std::uint64_t seed) {
      FuzzOutcome out;
      out.matrix = a0;
      fault::FaultSpec s;
      s.type = fault::FaultType::Storage;
      s.op = fault::Op::Potf2;
      s.iteration = 2;
      s.block_row = 3;
      s.block_col = 2;
      s.elem_row = 4;
      s.elem_col = 9;
      s.bits = {20, 44, 54};
      fault::Injector inj({s});
      Machine m(small_rig(), ExecutionMode::Numeric);
      abft::LuOptions opt;
      opt.variant = abft::Variant::EnhancedOnline;
      opt.runtime = abft::RuntimeMode::Dag;
      opt.dag_schedule_seed = seed;
      out.res = abft::lu(m, &out.matrix, n, opt, &inj);
      out.fired = inj.fired_count();
      EXPECT_TRUE(out.res.success) << out.res.note;
      return out;
    };
    const FuzzOutcome base = run(0);
    EXPECT_GE(base.fired, 1);
    EXPECT_GE(base.res.errors_corrected, 1);
    for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
      expect_same_outcome(base, run(seed), 2024, seed);
    }
  }
}

TEST(ScheduleFuzz, QrDagBitIdenticalAcrossRandomSchedules) {
  SanitizeEnvGuard env;
  for (const int n : {96, 90}) {
    SCOPED_TRACE(n);
    const auto a0 = test::random_matrix(n, n, 808);
    const auto run = [&](std::uint64_t seed) {
      FuzzOutcome out;
      out.matrix = a0;
      fault::FaultSpec s;
      s.type = fault::FaultType::Computing;
      s.op = fault::Op::Gemm;
      s.iteration = 1;
      s.block_row = 3;
      s.block_col = 4;
      s.elem_row = 2;
      s.elem_col = 3;
      s.magnitude = 1e5;
      fault::Injector inj({s});
      Machine m(small_rig(), ExecutionMode::Numeric);
      abft::QrOptions opt;
      opt.variant = abft::Variant::EnhancedOnline;
      opt.runtime = abft::RuntimeMode::Dag;
      opt.dag_schedule_seed = seed;
      out.res = abft::qr(m, &out.matrix, &out.tau, n, opt, &inj);
      out.fired = inj.fired_count();
      EXPECT_TRUE(out.res.success) << out.res.note;
      return out;
    };
    const FuzzOutcome base = run(0);
    EXPECT_GE(base.fired, 1);
    EXPECT_GE(base.res.errors_corrected, 1);
    for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
      expect_same_outcome(base, run(seed), 808, seed);
    }
  }
}

}  // namespace
}  // namespace ftla
