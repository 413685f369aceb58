// Tests for the dynamic footprint sanitizer (src/runtime/sanitizer.*):
// containment and ordering checks on hand-built graphs, the scratch
// read-back idiom, deterministic actionable reports, recording from
// thread-pool workers, the tiles a driver step records from the regions
// its body uses, and the drivers' FTLA_DAG_SANITIZE opt-in staying
// clean with faults armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/driver.hpp"
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
             [a](const TaskContext& c) { c.tiles.record(write(a)); },
             inline_task());
  g.add_task("consume", {read(a), write(b)},
             [a, b](const TaskContext& c) {
               c.tiles.record(read(a));
               c.tiles.record(write(b));
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
               [a](const TaskContext& c) { c.tiles.record(write(a)); },
               inline_task());
    // Deliberately under-declared: the body also reads `a`, so the
    // graph never inferred the RAW edge init -> stencil.
    g.add_task("stencil", {write(b)},
               [a, b](const TaskContext& c) {
                 c.tiles.record(read(a));
                 c.tiles.record(write(b));
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
               c.tiles.record(read(a));
               c.tiles.record(write(b));  // not declared
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
               c.tiles.record(write(s));
               // Reading back one's own write is fine.
               c.tiles.record(read(s));
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
               c.tiles.record(read(s));  // nothing of this task's is there yet
               c.tiles.record(write(s));
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
               c.tiles.record(write(mine));
               c.tiles.record(write(shared));
             },
             inline_task());
  g.add_task("right", {write(yours)},
             [yours, shared](const TaskContext& c) {
               c.tiles.record(write(yours));
               c.tiles.record(write(shared));
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
               [acc](const TaskContext& c) { c.tiles.record(rw(acc)); },
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
                       c.tiles.record(
                           write(TileKey{0, i, static_cast<int>(k)}));
                     } else {
                       c.tiles.record(read(hidden));
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
                   [a](const TaskContext& c) { c.tiles.record(write(a)); },
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
                   [a](const TaskContext& c) { c.tiles.record(write(a)); },
                   inline_task());
    clean.set_access_tracker(&t);
    Machine m(small_rig(), ExecutionMode::Numeric);
    run_on_streams(clean, m);
    EXPECT_TRUE(t.clean()) << t.report(clean);
    EXPECT_EQ(t.accesses(), 1);
  }
}

// ----------------------- driver operand regions ------------------------
//
// A driver step records what its body really uses: each device region
// it passes through Driver::use, mapped to the tiles the region covers.
// ProbeRun is a driver with one DAG step that declares `declared` and
// hands one kernel each region of `used`.

constexpr abft::SumNames kProbeSums{"probe_encode", "probe_recalc",
                                    "probe_verify"};

class ProbeRun final : public abft::Driver {
 public:
  ProbeRun(Machine& m, int n, const abft::DriverOptions& opt)
      : Driver(m, nullptr, n, opt, nullptr, "probe", 1.0, &kProbeSums,
               &kProbeSums) {}

  std::vector<Footprint> declared;
  std::vector<std::pair<Mode, sim::DMat>> used;

  // Regions in the driver's own geometry.
  sim::DMat data(int row, int col, int rows, int cols) {
    return data_region(row, col, rows, cols);
  }
  sim::DMat cchk(int i0, int i1, int col, int cols) {
    return cchk_strip(i0, i1, col, cols);
  }
  sim::DMat rchk(int row, int rows, int k0, int k1) {
    return rchk_strip(row, rows, k0, k1);
  }
  sim::DMat scratch(std::int64_t pos, int cols) {
    return sim::DMat{&d_scratch_, pos, 2, cols, 2};
  }
  sim::DMat t(int rows, int cols) {
    return sim::DMat{&d_t_, 0, rows, cols, b_};
  }
  using Driver::ctile;
  using Driver::dtile;
  using Driver::rtile;
  using Driver::stile;
  using Driver::ttile;

 private:
  void allocate() override {
    d_a_ = m_.alloc(static_cast<std::int64_t>(n_) * n_);
    d_cchk_ = m_.alloc(static_cast<std::int64_t>(2 * nb_) * n_);
    d_rchk_ = m_.alloc(static_cast<std::int64_t>(n_) * 2 * nb_);
    scratch_capacity_ = 2LL * nb_ * b_;
    d_scratch_ = m_.alloc(scratch_capacity_);
    d_t_ = m_.alloc(static_cast<std::int64_t>(b_) * b_);
    create_streams(/*xfer=*/false);
  }
  void run_once() override {
    TaskOptions opts;
    opts.phase = obs::Phase::Base;
    step(
        "probe", [this](Footprints& fp) { fp = declared; },
        [this](const TaskContext& c) {
          for (const auto& [mode, region] : used) {
            const sim::DMat r = use(c, mode, region);
            m_.launch(c.stream,
                      sim::KernelDesc{"probe", sim::KernelClass::Blas2,
                                      static_cast<std::int64_t>(r.rows) *
                                          r.cols,
                                      0},
                      {});
          }
        },
        opts, s_compute_);
    finish_pass();
  }
  [[nodiscard]] abft::BlockId fault_target(const fault::FaultSpec&,
                                           int) const override {
    return {0, 0};
  }
};

abft::DriverOptions probe_options(obs::MetricsRegistry* reg) {
  abft::DriverOptions opt;
  opt.block_size = 16;
  opt.runtime = abft::RuntimeMode::Dag;
  opt.metrics = reg;
  return opt;
}

TEST(DagSanitizerRegions, RegionsRecordTheTilesTheyCover) {
  // n = 40 at b = 16: the last block row and column are 8 wide, where
  // the region-to-tile mapping rounds. Each region declared as exactly
  // the tiles it covers runs clean with one record per tile.
  SanitizeEnvGuard env;
  const int n = 40;
  Machine m(small_rig(), ExecutionMode::TimingOnly);
  struct Case {
    const char* what;
    std::function<sim::DMat(ProbeRun&)> region;
    std::vector<TileKey> tiles;
  };
  const std::vector<Case> cases = {
      {"last partial block",
       [](ProbeRun& p) { return p.data(32, 16, 8, 16); },
       {ProbeRun::dtile(2, 1)}},
      {"one element", [](ProbeRun& p) { return p.data(17, 5, 1, 1); },
       {ProbeRun::dtile(1, 0)}},
      {"six blocks out to the corner",
       [](ProbeRun& p) { return p.data(16, 8, 24, 32); },
       {ProbeRun::dtile(1, 0), ProbeRun::dtile(2, 0), ProbeRun::dtile(1, 1),
        ProbeRun::dtile(2, 1), ProbeRun::dtile(1, 2), ProbeRun::dtile(2, 2)}},
      {"column-checksum strip",
       [](ProbeRun& p) { return p.cchk(1, 3, 16, 24); },
       {ProbeRun::ctile(1, 1), ProbeRun::ctile(2, 1), ProbeRun::ctile(1, 2),
        ProbeRun::ctile(2, 2)}},
      {"row-checksum strip",
       [](ProbeRun& p) { return p.rchk(32, 8, 0, 2); },
       {ProbeRun::rtile(2, 0), ProbeRun::rtile(2, 1)}},
      {"verify scratch slot",
       [](ProbeRun& p) { return p.scratch(32, 16); },
       {ProbeRun::stile(1)}},
      {"T block", [](ProbeRun& p) { return p.t(8, 8); }, {ProbeRun::ttile()}},
      {"empty region", [](ProbeRun& p) { return p.data(0, 0, 0, 16); }, {}},
  };
  for (const Case& tc : cases) {
    obs::MetricsRegistry reg;
    const abft::DriverOptions opt = probe_options(&reg);
    ProbeRun probe(m, n, opt);
    for (const TileKey& t : tc.tiles) probe.declared.push_back(write(t));
    probe.used.emplace_back(write, tc.region(probe));
    const abft::CholeskyResult res = probe.execute();
    EXPECT_TRUE(res.success) << tc.what;
    EXPECT_EQ(reg.counter("runtime.sanitize.accesses"),
              static_cast<std::int64_t>(tc.tiles.size()))
        << tc.what;
    EXPECT_EQ(reg.counter("runtime.sanitize.violations"), 0) << tc.what;
  }
}

TEST(DagSanitizerRegions, OperandOutsideTheFootprintFails) {
  // The step declares block (2, 1) but hands its kernel the whole last
  // block row for reading and a checksum block it never declared for
  // writing. Unarmed, the step runs and records nothing; the armed
  // sanitizer fails the pass and names both.
  obs::MetricsRegistry reg;
  const abft::DriverOptions opt = probe_options(&reg);
  const auto run = [&opt] {
    Machine m(small_rig(), ExecutionMode::TimingOnly);
    ProbeRun probe(m, 40, opt);
    probe.declared = {read(ProbeRun::dtile(2, 1))};
    probe.used = {{read, probe.data(32, 0, 8, 32)},
                  {rw, probe.cchk(0, 1, 0, 16)}};
    return probe.execute();
  };
  ::unsetenv("FTLA_DAG_SANITIZE");
  EXPECT_TRUE(run().success);
  EXPECT_EQ(reg.counter("runtime.sanitize.accesses"), 0);

  SanitizeEnvGuard env;
  try {
    (void)run();
    FAIL() << "an undeclared operand region passed the sanitizer";
  } catch (const Error& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("[undeclared-read] task 0 'probe' did a read of "
                          "tile(0:2,0)"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("[undeclared-write] task 0 'probe' did a rw of "
                          "tile(1:0,0)"),
              std::string::npos)
        << report;
    EXPECT_EQ(report.find("tile(0:2,1) outside"), std::string::npos)
        << report;
  }
}

// ----------------------- driver integration ----------------------------
//
// The three DAG drivers arm the sanitizer from FTLA_DAG_SANITIZE and
// throw with the report if any body strays from its declared footprint.
// With faults armed the verify/correction paths execute too, so every
// region their bodies use must stay inside the footprints. Each runs at
// n = 96 and at n = 90, whose last block (10 of 16) is partial: there
// the region-to-tile mapping rounds.

TEST(DagSanitizerDrivers, CholeskyDagCleanWithFaultsArmed) {
  SanitizeEnvGuard env;
  for (const int n : {96, 90}) {
    SCOPED_TRACE(n);
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
}

TEST(DagSanitizerDrivers, LuDagCleanWithFaultsArmed) {
  SanitizeEnvGuard env;
  for (const int n : {96, 90}) {
    SCOPED_TRACE(n);
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
}

TEST(DagSanitizerDrivers, QrDagCleanWithFaultsArmed) {
  SanitizeEnvGuard env;
  for (const int n : {96, 90}) {
    SCOPED_TRACE(n);
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
}

}  // namespace
}  // namespace ftla::runtime
