// Tests for the dynamic footprint sanitizer (src/runtime/sanitizer.*):
// containment and ordering checks on hand-built graphs, the scratch
// read-back idiom, deterministic actionable reports, recording from
// thread-pool workers, and the drivers' FTLA_DAG_SANITIZE opt-in
// staying clean with faults armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/graph.hpp"
#include "runtime/sanitizer.hpp"
#include "sim/profile.hpp"
#include "test_util.hpp"

namespace ftla::runtime {
namespace {

using sim::ExecutionMode;
using sim::Machine;

sim::MachineProfile small_rig() {
  auto p = sim::test_rig();
  p.magma_block_size = 16;
  return p;
}

TaskOptions inline_task() {
  TaskOptions o;
  o.where = Where::Inline;
  return o;
}

/// RAII switch for the drivers' FTLA_DAG_SANITIZE opt-in.
class SanitizeEnvGuard {
 public:
  explicit SanitizeEnvGuard(const char* value = "1") {
    ::setenv("FTLA_DAG_SANITIZE", value, 1);
  }
  ~SanitizeEnvGuard() { ::unsetenv("FTLA_DAG_SANITIZE"); }
};

// ------------------------- opt-in switch -------------------------------

TEST(DagSanitizer, EnvSwitchSemantics) {
  {
    SanitizeEnvGuard on("1");
    EXPECT_TRUE(sanitize_env_enabled());
  }
  {
    SanitizeEnvGuard zero("0");
    EXPECT_FALSE(sanitize_env_enabled());
  }
  {
    SanitizeEnvGuard empty("");
    EXPECT_FALSE(sanitize_env_enabled());
  }
  ::unsetenv("FTLA_DAG_SANITIZE");
  EXPECT_FALSE(sanitize_env_enabled());
}

// ------------------------ containment checks ---------------------------

TEST(DagSanitizer, CleanInstrumentedGraphHasNoViolations) {
  TaskGraph g;
  const TileKey a{0, 0, 0};
  const TileKey b{0, 0, 1};
  g.add_task("produce", {write(a)},
             [a](const TaskContext& c) { c.tiles.write(a); }, inline_task());
  g.add_task("consume", {read(a), write(b)},
             [a, b](const TaskContext& c) {
               c.tiles.read(a);
               c.tiles.write(b);
             },
             inline_task());
  AccessTracker t;
  g.set_access_tracker(&t);
  Machine m(small_rig(), ExecutionMode::Numeric);
  run_on_streams(g, m);
  EXPECT_TRUE(t.clean());
  EXPECT_EQ(t.accesses(), 3);
  EXPECT_TRUE(t.report(g).empty());
  EXPECT_EQ(t.schedule_prefix(), (std::vector<int>{0, 1}));
}

// The required meta-test: a task deliberately under-declares its
// footprint; the sanitizer must fire with a deterministic, actionable
// report.
TEST(DagSanitizer, UnderDeclaredFootprintFiresWithDeterministicReport) {
  const TileKey a{0, 0, 0};
  const TileKey b{0, 1, 0};
  const auto run = [&](std::string* report) {
    TaskGraph g;
    g.add_task("init", {write(a)},
               [a](const TaskContext& c) { c.tiles.write(a); },
               inline_task());
    // Deliberately under-declared: the body also reads `a`, so the
    // graph never inferred the RAW edge init -> stencil.
    g.add_task("stencil", {write(b)},
               [a, b](const TaskContext& c) {
                 c.tiles.read(a);
                 c.tiles.write(b);
               },
               inline_task());
    AccessTracker t;
    g.set_access_tracker(&t);
    Machine m(small_rig(), ExecutionMode::Numeric);
    run_on_streams(g, m);
    EXPECT_FALSE(t.clean());
    *report = t.report(g);
    // The missing declaration produces both findings: the read is
    // outside the footprint, and without it the graph never inferred
    // the init -> stencil edge, so the pair is also unordered.
    const std::vector<Violation> vs = t.violations();
    ASSERT_EQ(vs.size(), 2u);
    EXPECT_EQ(vs[0].kind, ViolationKind::UndeclaredRead);
    EXPECT_EQ(vs[0].task, 1);
    EXPECT_TRUE(vs[0].tile == a);
    EXPECT_EQ(vs[1].kind, ViolationKind::Race);
    EXPECT_EQ(std::min(vs[1].task, vs[1].other), 0);
    EXPECT_EQ(std::max(vs[1].task, vs[1].other), 1);
    EXPECT_TRUE(vs[1].tile == a);
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second) << first;
  // Actionable: the report names the offending task, the tile, the
  // declared footprint, and the witness schedule prefix.
  EXPECT_NE(first.find("undeclared-read"), std::string::npos) << first;
  EXPECT_NE(first.find("task 1 'stencil'"), std::string::npos) << first;
  EXPECT_NE(first.find("tile(0:0,0)"), std::string::npos) << first;
  EXPECT_NE(first.find("declared: write tile(0:1,0)"), std::string::npos)
      << first;
  EXPECT_NE(first.find("init -> stencil"), std::string::npos) << first;
}

TEST(DagSanitizer, UndeclaredWriteCaught) {
  TaskGraph g;
  const TileKey a{0, 0, 0};
  const TileKey b{1, 0, 0};
  g.add_task("sloppy", {read(a)},
             [a, b](const TaskContext& c) {
               c.tiles.read(a);
               c.tiles.write(b);  // not declared
             },
             inline_task());
  AccessTracker t;
  g.set_access_tracker(&t);
  Machine m(small_rig(), ExecutionMode::Numeric);
  run_on_streams(g, m);
  const std::vector<Violation> vs = t.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, ViolationKind::UndeclaredWrite);
  EXPECT_EQ(vs[0].task, 0);
  EXPECT_TRUE(vs[0].tile == b);
  EXPECT_NE(t.report(g).find("undeclared-write"), std::string::npos);
}

TEST(DagSanitizer, ScratchReadBackOfOwnWriteIsAllowed) {
  TaskGraph g;
  const TileKey s{3, 0, 0};
  g.add_task("scratch", {write(s)},
             [s](const TaskContext& c) {
               c.tiles.write(s);
               c.tiles.read(s);  // reading back one's own write is fine
             },
             inline_task());
  AccessTracker t;
  g.set_access_tracker(&t);
  Machine m(small_rig(), ExecutionMode::Numeric);
  run_on_streams(g, m);
  EXPECT_TRUE(t.clean()) << t.report(g);
}

TEST(DagSanitizer, ReadBeforeOwnWriteOnWriteTileIsFlagged) {
  TaskGraph g;
  const TileKey s{3, 0, 0};
  g.add_task("premature", {write(s)},
             [s](const TaskContext& c) {
               c.tiles.read(s);  // nothing of this task's is there yet
               c.tiles.write(s);
             },
             inline_task());
  AccessTracker t;
  g.set_access_tracker(&t);
  Machine m(small_rig(), ExecutionMode::Numeric);
  run_on_streams(g, m);
  const std::vector<Violation> vs = t.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, ViolationKind::UndeclaredRead);
}

// -------------------------- ordering checks ----------------------------

TEST(DagSanitizer, HiddenConflictFlaggedAsRace) {
  TaskGraph g;
  const TileKey mine{0, 0, 0};
  const TileKey yours{0, 1, 0};
  const TileKey shared{2, 0, 0};
  // Disjoint declared footprints => no inferred edge; both bodies also
  // write a shared tile they never declared. That is a race no schedule
  // can be blamed for.
  g.add_task("left", {write(mine)},
             [mine, shared](const TaskContext& c) {
               c.tiles.write(mine);
               c.tiles.write(shared);
             },
             inline_task());
  g.add_task("right", {write(yours)},
             [yours, shared](const TaskContext& c) {
               c.tiles.write(yours);
               c.tiles.write(shared);
             },
             inline_task());
  AccessTracker t;
  g.set_access_tracker(&t);
  Machine m(small_rig(), ExecutionMode::Numeric);
  run_on_streams(g, m);
  int races = 0;
  int undeclared = 0;
  for (const Violation& v : t.violations()) {
    if (v.kind == ViolationKind::Race) {
      ++races;
      EXPECT_EQ(std::min(v.task, v.other), 0);
      EXPECT_EQ(std::max(v.task, v.other), 1);
      EXPECT_TRUE(v.tile == shared);
    } else {
      EXPECT_EQ(v.kind, ViolationKind::UndeclaredWrite);
      ++undeclared;
    }
  }
  EXPECT_EQ(races, 1);  // deduplicated per (pair, tile)
  EXPECT_EQ(undeclared, 2);
  const std::string report = t.report(g);
  EXPECT_NE(report.find("[race]"), std::string::npos) << report;
  EXPECT_NE(report.find("no happens-before order"), std::string::npos)
      << report;
}

TEST(DagSanitizer, DeclaredConflictsAreOrderedAndClean) {
  // A declared RW chain on one tile: every conflicting pair is ordered
  // by the inferred edges, so the order check stays quiet.
  TaskGraph g;
  const TileKey acc{0, 0, 0};
  for (int i = 0; i < 5; ++i) {
    g.add_task("step", {rw(acc)},
               [acc](const TaskContext& c) { c.tiles.rw(acc); },
               inline_task());
  }
  AccessTracker t;
  g.set_access_tracker(&t);
  Machine m(small_rig(), ExecutionMode::Numeric);
  run_on_streams(g, m);
  EXPECT_TRUE(t.clean()) << t.report(g);
  EXPECT_EQ(t.accesses(), 5);
}

// ---------------------- cross-thread recording -------------------------

TEST(DagSanitizer, RecordsFromPoolWorkersExactly) {
  // Recording takes a mutex, so a body may record from any thread. 16
  // independent tasks each fan 8 accesses out over a 4-lane pool: 4
  // declared writes of their own tiles and 4 undeclared reads of one
  // shared tile (read/read: no race). The violation set and the report
  // must be exact whichever lane recorded what.
  common::ThreadPool pool(4);
  const TileKey hidden{9, 0, 0};
  const auto run = [&](std::string* report) {
    TaskGraph g;
    for (int i = 0; i < 16; ++i) {
      std::vector<Footprint> fp;
      for (int k = 0; k < 4; ++k) fp.push_back(write(TileKey{0, i, k}));
      g.add_task("w", fp,
                 [&pool, hidden, i](const TaskContext& c) {
                   pool.parallel_for(0, 8, [&](std::int64_t k) {
                     if (k < 4) {
                       c.tiles.write(TileKey{0, i, static_cast<int>(k)});
                     } else {
                       c.tiles.read(hidden);
                     }
                   });
                 },
                 inline_task());
    }
    AccessTracker t;
    g.set_access_tracker(&t);
    Machine m(small_rig(), ExecutionMode::TimingOnly);
    run_on_streams(g, m);
    *report = t.report(g);
    const std::vector<Violation> vs = t.violations();
    EXPECT_EQ(vs.size(), 64u);
    for (const Violation& v : vs) {
      EXPECT_EQ(v.kind, ViolationKind::UndeclaredRead);
      EXPECT_TRUE(v.tile == hidden);
    }
    EXPECT_EQ(t.accesses(), 128);
    EXPECT_EQ(t.schedule_prefix().size(), 16u);
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DagSanitizer, BeginRunResetsStateBetweenExecutions) {
  AccessTracker t;
  {
    TaskGraph dirty;
    const TileKey a{0, 0, 0};
    dirty.add_task("offender", {},
                   [a](const TaskContext& c) { c.tiles.write(a); },
                   inline_task());
    dirty.set_access_tracker(&t);
    Machine m(small_rig(), ExecutionMode::Numeric);
    run_on_streams(dirty, m);
    EXPECT_FALSE(t.clean());
  }
  {
    TaskGraph clean;
    const TileKey a{0, 0, 0};
    clean.add_task("fine", {write(a)},
                   [a](const TaskContext& c) { c.tiles.write(a); },
                   inline_task());
    clean.set_access_tracker(&t);
    Machine m(small_rig(), ExecutionMode::Numeric);
    run_on_streams(clean, m);
    EXPECT_TRUE(t.clean()) << t.report(clean);
    EXPECT_EQ(t.accesses(), 1);
  }
}

// ----------------------- driver integration ----------------------------
//
// The three DAG drivers arm the sanitizer from FTLA_DAG_SANITIZE and
// throw with the report if any body strays from its declared footprint.
// With faults armed the verify/correction paths execute too — the whole
// instrumented surface must come back clean.

TEST(DagSanitizerDrivers, CholeskyDagCleanWithFaultsArmed) {
  SanitizeEnvGuard env;
  const int n = 96;
  const auto a0 = test::random_spd(n, 4242);
  auto a = a0;
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
  obs::MetricsRegistry reg;
  opt.metrics = &reg;
  const abft::CholeskyResult res = abft::cholesky(m, &a, n, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_EQ(inj.fired_count(), 1);
  EXPECT_GE(res.errors_corrected, 1);
  EXPECT_GT(reg.counter("runtime.sanitize.accesses"), 0);
  EXPECT_EQ(reg.counter("runtime.sanitize.violations"), 0);
}

TEST(DagSanitizerDrivers, LuDagCleanWithFaultsArmed) {
  SanitizeEnvGuard env;
  const int n = 96;
  const auto a0 = test::random_spd(n, 2024);
  auto a = a0;
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
  const abft::CholeskyResult res = abft::lu(m, &a, n, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_GE(inj.fired_count(), 1);
  EXPECT_GE(res.errors_corrected, 1);
}

TEST(DagSanitizerDrivers, QrDagCleanWithFaultsArmed) {
  SanitizeEnvGuard env;
  const int n = 96;
  const auto a0 = test::random_matrix(n, n, 808);
  auto a = a0;
  std::vector<double> tau;
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
  const abft::CholeskyResult res = abft::qr(m, &a, &tau, n, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_GE(inj.fired_count(), 1);
  EXPECT_GE(res.errors_corrected, 1);
}

}  // namespace
}  // namespace ftla::runtime
