// DAG-runtime conformance for the factorization drivers
// (docs/runtime.md): the task-graph path must issue the same work as the
// bulk-synchronous oracle and be bit-identical to it fault-free, produce
// the same verification counters, survive fault injection with zero
// silent corruption, and strictly shorten the simulated makespan at the
// benchmarked sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/lu.hpp"
#include "abft/qr.hpp"
#include "blas/lapack.hpp"
#include "obs/event_sink.hpp"
#include "sim/profile.hpp"
#include "sim/profiler.hpp"
#include "test_util.hpp"

namespace ftla::abft {
namespace {

using fault::FaultSpec;
using fault::FaultType;
using fault::Injector;
using fault::Op;
using sim::ExecutionMode;
using sim::Machine;

sim::MachineProfile small_rig() {
  auto p = sim::test_rig();
  p.magma_block_size = 16;
  return p;
}

// Exact elementwise equality — the DAG schedule must reproduce the bulk
// result to the last bit, not merely to a residual tolerance.
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

// What one run issued, minus what the runtime may legitimately change:
// the device stream each kernel lands on (the executor picks it) and
// every time. Host and copy lanes stay, since they name the resource.
struct Issued {
  std::vector<std::tuple<std::string, std::string, std::int64_t, int, int>>
      ops;
  std::map<obs::EventKind, std::vector<std::string>> events;
};

Issued issued(const obs::SpanStore& spans, const obs::RingBufferSink& sink) {
  Issued out;
  for (const obs::Span& r : spans.snapshot()) {
    out.ops.emplace_back(r.name, r.cls, r.flops, r.units,
                         r.lane < 0 ? r.lane : 0);
  }
  for (obs::Event e : sink.events()) {
    e.seq = -1;
    e.time = e.end = 0.0;
    e.lane = 0;
    std::ostringstream os;
    obs::event_to_json(e, os);
    out.events[e.kind].push_back(os.str());
  }
  return out;
}

// Bulk and DAG issue the same machine work in the same order (kernel,
// copy and host-task names, classes, flops and units) and the driver
// emits the same events of every kind. A step that lands in the wrong
// branch without changing a factor bit — a mispriced kernel, a
// checksum copy missing in TimingOnly — fails here.
void expect_same_work(const Issued& bulk, const Issued& dag) {
  ASSERT_EQ(bulk.ops.size(), dag.ops.size());
  for (std::size_t i = 0; i < bulk.ops.size(); ++i) {
    ASSERT_EQ(bulk.ops[i], dag.ops[i]) << "first divergence at op " << i;
  }
  EXPECT_EQ(bulk.events, dag.events);
}

// --------------------- Cholesky: fault-free conformance ----------------

class CholeskyConformance
    : public ::testing::TestWithParam<
          std::tuple<Variant, UpdatePlacement, int, bool, int>> {};

TEST_P(CholeskyConformance, DagBitIdenticalToBulk) {
  const auto [variant, placement, verify_interval, transfer_guard, n] =
      GetParam();
  const auto a0 = test::random_spd(n, 321);

  CholeskyOptions opt;
  opt.variant = variant;
  opt.placement = placement;
  opt.verify_interval = verify_interval;
  opt.transfer_guard = transfer_guard;

  for (const ExecutionMode mode :
       {ExecutionMode::Numeric, ExecutionMode::TimingOnly}) {
    const bool numeric = mode == ExecutionMode::Numeric;
    auto bulk = a0;
    Machine mb(small_rig(), mode);
    obs::SpanStore spb;
    mb.set_span_store(&spb);
    obs::RingBufferSink sb;
    opt.event_sink = &sb;
    opt.runtime = RuntimeMode::Bulk;
    const CholeskyResult rb = cholesky(mb, numeric ? &bulk : nullptr, n, opt);
    ASSERT_TRUE(rb.success) << rb.note;

    auto dag = a0;
    Machine md(small_rig(), mode);
    obs::SpanStore spd;
    md.set_span_store(&spd);
    obs::RingBufferSink sd;
    opt.event_sink = &sd;
    opt.runtime = RuntimeMode::Dag;
    const CholeskyResult rd = cholesky(md, numeric ? &dag : nullptr, n, opt);
    ASSERT_TRUE(rd.success) << rd.note;

    expect_same_work(issued(spb, sb), issued(spd, sd));
    expect_bit_identical(bulk, dag);
    EXPECT_EQ(rd.errors_detected, 0);
    EXPECT_EQ(rd.checksum_repairs, 0);
    // Table-I conformance: the DAG schedules exactly the verifications
    // the bulk path does.
    EXPECT_EQ(rb.verified.potf2_blocks, rd.verified.potf2_blocks);
    EXPECT_EQ(rb.verified.trsm_blocks, rd.verified.trsm_blocks);
    EXPECT_EQ(rb.verified.syrk_blocks, rd.verified.syrk_blocks);
    EXPECT_EQ(rb.verified.gemm_blocks, rd.verified.gemm_blocks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsPlacementsIntervals, CholeskyConformance,
    ::testing::Combine(
        ::testing::Values(Variant::NoFt, Variant::Offline, Variant::Online,
                          Variant::EnhancedOnline),
        ::testing::Values(UpdatePlacement::Blocking, UpdatePlacement::Gpu),
        ::testing::Values(1, 2), ::testing::Values(false, true),
        // 90 leaves a partial last block (10 of 16).
        ::testing::Values(96, 90)));

// --------------------- Cholesky: what the graph refuses ----------------

// A Dag request for a configuration the graph does not model aborts in
// the driver (ftla_cli and parse_scenario refuse it before any run),
// and the same options run under Bulk.
void expect_dag_refused(CholeskyOptions opt, const char* reason) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int n = 64;
  const auto a0 = test::random_spd(n, 78);
  opt.runtime = RuntimeMode::Dag;
  EXPECT_DEATH(
      {
        auto a = a0;
        Machine m(small_rig(), ExecutionMode::Numeric);
        (void)cholesky(m, &a, n, opt);
      },
      reason);
  opt.runtime = RuntimeMode::Bulk;
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  const CholeskyResult res = cholesky(m, &a, n, opt);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(DagRefusalDeath, CpuChecksumMirror) {
  CholeskyOptions opt;
  opt.placement = UpdatePlacement::Cpu;
  expect_dag_refused(opt, "cpu_checksum_mirror");
}

TEST(DagRefusalDeath, CheckpointRecovery) {
  CholeskyOptions opt;
  opt.recovery = Recovery::Checkpoint;
  expect_dag_refused(opt, "checkpoint_recovery");
}

TEST(DagRefusalDeath, PanelCheckpoint) {
  PanelCheckpoint ck;
  CholeskyOptions opt;
  opt.panel_checkpoint = &ck;
  expect_dag_refused(opt, "panel_checkpoint");
}

TEST(CholeskyDagPlacement, AutoResolvesToGpuAndRunsTheGraph) {
  // Bulk's Opt-2 model puts the checksum mirror on the host here; the
  // graph keeps checksums on the device, so Dag resolves Auto to Gpu.
  const auto run = [](RuntimeMode runtime, obs::ProfileReport* prof) {
    Machine m(sim::tardis(), ExecutionMode::TimingOnly);
    obs::SpanStore spans;
    m.set_span_store(&spans);
    CholeskyOptions opt;
    opt.runtime = runtime;
    opt.profile = &spans;
    const CholeskyResult res = cholesky(m, nullptr, 2048, opt);
    EXPECT_TRUE(res.success) << res.note;
    *prof = sim::build_profile(m, spans);
    return res.chosen_placement;
  };
  obs::ProfileReport prof;
  EXPECT_EQ(run(RuntimeMode::Bulk, &prof), UpdatePlacement::Cpu);
  EXPECT_EQ(prof.task_nodes, 0);
  EXPECT_EQ(run(RuntimeMode::Dag, &prof), UpdatePlacement::Gpu);
  EXPECT_GT(prof.task_nodes, 0);
}

// --------------------- Cholesky: faults under the DAG ------------------

TEST(CholeskyDagFaults, ComputingErrorCorrectedInPlace) {
  const int n = 96;
  const auto a0 = test::random_spd(n, 4242);
  auto a = a0;
  FaultSpec s;
  s.type = FaultType::Computing;
  s.op = Op::Gemm;
  s.iteration = 2;
  s.elem_row = 3;
  s.elem_col = 5;
  s.magnitude = 1e6;
  Injector inj({s});
  Machine m(small_rig(), ExecutionMode::Numeric);
  CholeskyOptions opt;
  opt.variant = Variant::EnhancedOnline;
  opt.runtime = RuntimeMode::Dag;
  const CholeskyResult res = cholesky(m, &a, n, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_EQ(inj.fired_count(), 1);
  EXPECT_EQ(res.reruns, 0);
  EXPECT_GE(res.errors_corrected, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-10);
}

TEST(CholeskyDagFaults, StorageErrorCorrectedInPlace) {
  const int n = 96;
  const auto a0 = test::random_spd(n, 4242);
  auto a = a0;
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = Op::Syrk;
  s.iteration = 3;
  s.block_row = 3;
  s.block_col = 2;
  s.elem_row = 2;
  s.elem_col = 7;
  s.bits = {20, 44, 54};
  Injector inj({s});
  Machine m(small_rig(), ExecutionMode::Numeric);
  CholeskyOptions opt;
  opt.variant = Variant::EnhancedOnline;
  opt.runtime = RuntimeMode::Dag;
  const CholeskyResult res = cholesky(m, &a, n, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_EQ(inj.fired_count(), 1);
  EXPECT_EQ(res.reruns, 0);
  EXPECT_GE(res.errors_corrected, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-10);
}

TEST(CholeskyDagFaults, OnlineStorageErrorEscalatesToRerun) {
  // Online-ABFT verifies only outputs; a storage strike in the
  // verified-to-read window is uncorrectable and must re-run — same
  // ladder as bulk, reached from inside the executor.
  const int n = 96;
  const auto a0 = test::random_spd(n, 4242);
  auto a = a0;
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = Op::Syrk;
  s.iteration = 3;
  s.block_row = 3;
  s.block_col = 2;
  s.elem_row = 2;
  s.elem_col = 7;
  s.bits = {20, 44, 54};
  Injector inj({s});
  Machine m(small_rig(), ExecutionMode::Numeric);
  CholeskyOptions opt;
  opt.variant = Variant::Online;
  opt.runtime = RuntimeMode::Dag;
  const CholeskyResult res = cholesky(m, &a, n, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_GE(res.reruns, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-10);
}

// --------------------- Cholesky: makespan ------------------------------

double timed_seconds(const sim::MachineProfile& profile, int n,
                     RuntimeMode runtime, Variant variant) {
  Machine m(profile, ExecutionMode::TimingOnly);
  CholeskyOptions opt;
  opt.variant = variant;
  opt.placement = UpdatePlacement::Gpu;
  opt.runtime = runtime;
  const CholeskyResult res = cholesky(m, nullptr, n, opt);
  EXPECT_TRUE(res.success) << res.note;
  return res.seconds;
}

class MakespanParam
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {
 public:
  static sim::MachineProfile profile(const char* name) {
    return std::string(name) == "tardis" ? sim::tardis()
                                         : sim::bulldozer64();
  }
};

TEST_P(MakespanParam, DagStrictlyShorterThanBulk) {
  const auto [name, n] = GetParam();
  const auto p = profile(name);
  const double bulk =
      timed_seconds(p, n, RuntimeMode::Bulk, Variant::EnhancedOnline);
  const double dag =
      timed_seconds(p, n, RuntimeMode::Dag, Variant::EnhancedOnline);
  EXPECT_LT(dag, bulk) << "DAG lost its overlap win on " << name
                       << " at n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    PinnedBenchSizes, MakespanParam,
    ::testing::Combine(::testing::Values("tardis", "bulldozer64"),
                       ::testing::Values(2048, 4096)));

// --------------------- LU / QR conformance -----------------------------

TEST(LuConformance, DagBitIdenticalToBulk) {
  // 90 leaves a partial last block (10 of 16).
  for (const int n : {96, 90})
  for (const Variant variant : {Variant::NoFt, Variant::EnhancedOnline})
  for (const int k : {1, 2})
  for (const ExecutionMode mode :
       {ExecutionMode::Numeric, ExecutionMode::TimingOnly}) {
    SCOPED_TRACE(std::string(to_string(variant)) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    const auto a0 = test::random_spd(n, 555);
    const bool numeric = mode == ExecutionMode::Numeric;
    LuOptions opt;
    opt.variant = variant;
    opt.verify_interval = k;

    auto bulk = a0;
    Machine mb(small_rig(), mode);
    obs::SpanStore spb;
    mb.set_span_store(&spb);
    obs::RingBufferSink sb;
    opt.event_sink = &sb;
    opt.runtime = RuntimeMode::Bulk;
    const CholeskyResult rb = lu(mb, numeric ? &bulk : nullptr, n, opt);
    ASSERT_TRUE(rb.success) << rb.note;

    auto dag = a0;
    Machine md(small_rig(), mode);
    obs::SpanStore spd;
    md.set_span_store(&spd);
    obs::RingBufferSink sd;
    opt.event_sink = &sd;
    opt.runtime = RuntimeMode::Dag;
    const CholeskyResult rd = lu(md, numeric ? &dag : nullptr, n, opt);
    ASSERT_TRUE(rd.success) << rd.note;

    expect_same_work(issued(spb, sb), issued(spd, sd));
    expect_bit_identical(bulk, dag);
    EXPECT_EQ(rb.verified.total(), rd.verified.total());
  }
}

TEST(LuConformance, DagMakespanStrictlyShorter) {
  Machine mb(sim::tardis(), ExecutionMode::TimingOnly);
  LuOptions opt;
  opt.runtime = RuntimeMode::Bulk;
  const double bulk = lu(mb, nullptr, 2048, opt).seconds;
  Machine md(sim::tardis(), ExecutionMode::TimingOnly);
  opt.runtime = RuntimeMode::Dag;
  const double dag = lu(md, nullptr, 2048, opt).seconds;
  EXPECT_LT(dag, bulk);
}

TEST(QrConformance, DagBitIdenticalToBulk) {
  // 90 leaves a partial last block (10 of 16).
  for (const int n : {96, 90})
  for (const Variant variant : {Variant::NoFt, Variant::EnhancedOnline})
  for (const int k : {1, 2})
  for (const ExecutionMode mode :
       {ExecutionMode::Numeric, ExecutionMode::TimingOnly}) {
    SCOPED_TRACE(std::string(to_string(variant)) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    const auto a0 = test::random_matrix(n, n, 808);
    const bool numeric = mode == ExecutionMode::Numeric;
    QrOptions opt;
    opt.variant = variant;
    opt.verify_interval = k;

    auto bulk = a0;
    std::vector<double> tau_bulk;
    Machine mb(small_rig(), mode);
    obs::SpanStore spb;
    mb.set_span_store(&spb);
    obs::RingBufferSink sb;
    opt.event_sink = &sb;
    opt.runtime = RuntimeMode::Bulk;
    const CholeskyResult rb =
        qr(mb, numeric ? &bulk : nullptr, &tau_bulk, n, opt);
    ASSERT_TRUE(rb.success) << rb.note;

    auto dag = a0;
    std::vector<double> tau_dag;
    Machine md(small_rig(), mode);
    obs::SpanStore spd;
    md.set_span_store(&spd);
    obs::RingBufferSink sd;
    opt.event_sink = &sd;
    opt.runtime = RuntimeMode::Dag;
    const CholeskyResult rd =
        qr(md, numeric ? &dag : nullptr, &tau_dag, n, opt);
    ASSERT_TRUE(rd.success) << rd.note;

    expect_same_work(issued(spb, sb), issued(spd, sd));
    expect_bit_identical(bulk, dag);
    ASSERT_EQ(tau_bulk.size(), tau_dag.size());
    for (std::size_t i = 0; i < tau_bulk.size(); ++i) {
      ASSERT_EQ(tau_bulk[i], tau_dag[i]) << "tau diverges at " << i;
    }
    EXPECT_EQ(rb.verified.total(), rd.verified.total());
  }
}

TEST(QrConformance, DagMakespanStrictlyShorter) {
  Machine mb(sim::tardis(), ExecutionMode::TimingOnly);
  QrOptions opt;
  opt.runtime = RuntimeMode::Bulk;
  const double bulk = qr(mb, nullptr, nullptr, 2048, opt).seconds;
  Machine md(sim::tardis(), ExecutionMode::TimingOnly);
  opt.runtime = RuntimeMode::Dag;
  const double dag = qr(md, nullptr, nullptr, 2048, opt).seconds;
  EXPECT_LT(dag, bulk);
}

// --------------------- the shared retry ladder ---------------------------

// Reruns are for corruption and fail-stops only. Any other error — a
// sanitizer report, a cycle, a failing transfer — must leave every
// driver at once instead of being retried as if it were corruption.
TEST(RetryLadder, NonFaultErrorsPropagateFromEveryDriver) {
  const int n = 64;
  const auto spd = test::random_spd(n, 91);
  for (const int algo : {0, 1, 2})
  for (const Variant variant : {Variant::NoFt, Variant::EnhancedOnline})
  for (const RuntimeMode runtime : {RuntimeMode::Bulk, RuntimeMode::Dag}) {
    SCOPED_TRACE("algo=" + std::to_string(algo) + " " + to_string(variant) +
                 " " + to_string(runtime));
    Machine m(small_rig(), ExecutionMode::Numeric);
    int thrown = 0;
    m.set_transfer_hook([&thrown](const sim::TransferCtx& ctx) {
      if (!ctx.armed) return;
      ++thrown;
      throw Error("transfer probe");
    });
    auto a = spd;
    std::vector<double> tau;
    if (algo == 0) {
      CholeskyOptions opt;
      opt.variant = variant;
      opt.runtime = runtime;
      EXPECT_THROW(cholesky(m, &a, n, opt), Error);
    } else if (algo == 1) {
      LuOptions opt;
      opt.variant = variant;
      opt.runtime = runtime;
      EXPECT_THROW(lu(m, &a, n, opt), Error);
    } else {
      QrOptions opt;
      opt.variant = variant;
      opt.runtime = runtime;
      EXPECT_THROW(qr(m, &a, &tau, n, opt), Error);
    }
    EXPECT_EQ(thrown, 1) << "the error was retried";
  }
}

// LU and QR share Cholesky's ladder: an uncorrectable strike reruns
// with the failure class as the reason, and a ladder that gives up says
// which class stopped it.
TEST(RetryLadder, LuAndQrReportTheFailureClass) {
  const int n = 96;
  for (const int algo : {1, 2}) {
    SCOPED_TRACE(algo == 1 ? "lu" : "qr");
    // Three strikes in one retired block, two sharing a column and two
    // sharing a row: neither checksum side can correct them, so the end
    // sweep escalates.
    FaultSpec s;
    s.type = FaultType::Storage;
    s.op = Op::Gemm;
    s.iteration = 3;
    s.block_row = 4;
    s.block_col = 1;
    s.elem_row = 2;
    s.elem_col = 3;
    s.bits = {52, 40};
    std::vector<FaultSpec> plan{s};
    s.elem_row = 9;
    s.elem_col = 3;
    plan.push_back(s);
    s.elem_row = 2;
    s.elem_col = 11;
    plan.push_back(s);
    for (const int reruns : {0, 1}) {
      Injector inj(plan);
      Machine m(small_rig(), ExecutionMode::Numeric);
      obs::RingBufferSink sink;
      auto a = algo == 1 ? test::random_spd(n, 17)
                         : test::random_matrix(n, n, 17);
      std::vector<double> tau;
      CholeskyResult res;
      if (algo == 1) {
        LuOptions opt;
        opt.max_reruns = reruns;
        opt.event_sink = &sink;
        res = lu(m, &a, n, opt, &inj);
      } else {
        QrOptions opt;
        opt.max_reruns = reruns;
        opt.event_sink = &sink;
        res = qr(m, &a, &tau, n, opt, &inj);
      }
      if (reruns == 0) {
        EXPECT_FALSE(res.success);
        EXPECT_EQ(res.note.rfind("unrecoverable: ", 0), 0u) << res.note;
        continue;
      }
      ASSERT_TRUE(res.success) << res.note;
      EXPECT_EQ(res.reruns, 1);
      int rerun_events = 0;
      for (const obs::Event& e : sink.events()) {
        if (e.kind != obs::EventKind::Rerun) continue;
        ++rerun_events;
        EXPECT_EQ(e.detail, "unrecoverable_corruption");
      }
      EXPECT_EQ(rerun_events, 1);
    }
  }
}

}  // namespace
}  // namespace ftla::abft
