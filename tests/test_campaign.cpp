// Fault-campaign engine tests: the zero-SDC invariant for the guarded
// variant, the SDC oracle demonstrably catching unguarded corruption,
// scenario serialization round-trips, the shrinker's minimal plans, and
// the transfer-fault hook's injection -> detection -> trace flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "abft/cholesky.hpp"
#include "blas/lapack.hpp"
#include "common/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/trace_export.hpp"
#include "test_util.hpp"

namespace ftla::fault {
namespace {

long long verdict_total(const CampaignSummary& sum, const std::string& key,
                        Verdict v) {
  const auto it = sum.verdicts.find(key);
  if (it == sum.verdicts.end()) return 0;
  return it->second[static_cast<int>(v)];
}

TEST(Campaign, GuardedVariantNeverSilentlyCorrupts) {
  const std::uint64_t seed = test::root_seed(7);
  FTLA_SEED_TRACE(seed);
  CampaignOptions opt;
  opt.scenarios = 300;
  opt.seed = seed;
  obs::MetricsRegistry metrics;
  const CampaignSummary sum = run_campaign(opt, &metrics);

  EXPECT_EQ(sum.scenarios_run, 300);
  EXPECT_GT(sum.faults_fired, 0);
  EXPECT_GT(sum.faults_detected, 0);
  EXPECT_GT(sum.transfer_faults, 0);

  // The central invariant: the guarded variant must never claim success
  // with a corrupt result, for any algorithm.
  EXPECT_EQ(sum.guarded_sdc, 0);
  for (const char* key :
       {"cholesky/enhanced-online-abft", "lu/enhanced-online-abft",
        "qr/enhanced-online-abft"}) {
    EXPECT_EQ(verdict_total(sum, key, Verdict::Sdc), 0) << key;
  }
  // ... while the oracle demonstrably catches unprotected corruption —
  // otherwise a zero above would only prove the oracle is blind.
  EXPECT_GT(verdict_total(sum, "cholesky/no-ft", Verdict::Sdc), 0);
  EXPECT_GT(verdict_total(sum, "lu/no-ft", Verdict::Sdc) +
                verdict_total(sum, "qr/no-ft", Verdict::Sdc),
            0);
  // Offline verifies before reporting success: corruption it cannot fix
  // escalates to rerun/fail-stop, never sdc.
  EXPECT_EQ(verdict_total(sum, "cholesky/offline-abft", Verdict::Sdc), 0);

  // The summary is exported through the metrics registry.
  EXPECT_TRUE(sum.clean());
  EXPECT_GT(metrics.counter("campaign.scenarios"), 0);
  EXPECT_GT(metrics.counter("campaign.faults.fired"), 0);
}

TEST(Campaign, DeterministicForSeed) {
  CampaignOptions opt;
  opt.scenarios = 40;
  opt.seed = 11;
  const CampaignSummary a = run_campaign(opt);
  const CampaignSummary b = run_campaign(opt);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST(Campaign, ParallelCampaignBitIdenticalToSerial) {
  // The runner draws scenarios serially and merges in draw order, so
  // the whole summary — aggregates, verdict histogram, every shrunk
  // failure plan, and the progress lines printed during the merge —
  // must match a single-threaded campaign exactly, not statistically.
  CampaignOptions opt;
  opt.scenarios = 24;
  opt.seed = 7;
  std::ostringstream serial_progress;
  const CampaignSummary serial =
      run_campaign(opt, nullptr, &serial_progress, 5);

  CampaignOptions par = opt;
  par.threads = 4;
  std::ostringstream parallel_progress;
  const CampaignSummary parallel =
      run_campaign(par, nullptr, &parallel_progress, 5);

  EXPECT_EQ(serial_progress.str(), parallel_progress.str());
  EXPECT_NE(serial_progress.str().find("[campaign] 20/24 scenarios, "),
            std::string::npos);

  EXPECT_EQ(serial.scenarios_run, parallel.scenarios_run);
  EXPECT_EQ(serial.faults_fired, parallel.faults_fired);
  EXPECT_EQ(serial.faults_detected, parallel.faults_detected);
  EXPECT_EQ(serial.ecc_absorbed, parallel.ecc_absorbed);
  EXPECT_EQ(serial.transfer_faults, parallel.transfer_faults);
  EXPECT_EQ(serial.guarded_sdc, parallel.guarded_sdc);
  EXPECT_EQ(serial.unexpected_fail_stop, parallel.unexpected_fail_stop);
  EXPECT_EQ(serial.verdicts, parallel.verdicts);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    const CampaignFailure& a = serial.failures[i];
    const CampaignFailure& b = parallel.failures[i];
    EXPECT_EQ(a.result.verdict, b.result.verdict);
    EXPECT_EQ(a.reproduced, b.reproduced);
    EXPECT_EQ(a.shrink_runs, b.shrink_runs);
    EXPECT_EQ(format_scenario(a.scenario), format_scenario(b.scenario));
    EXPECT_EQ(format_scenario(a.shrunk), format_scenario(b.shrunk));
  }
}

TEST(Campaign, WorkerExecutionMatchesInlinePerScenario) {
  // Per-scenario bit-identity: the same scenario run on a pool worker
  // (where nested BLAS parallelism is forced inline) must give the same
  // verdict, residual and fired plan as an inline run on this thread.
  CampaignOptions opt;
  Rng rng(13);
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 12; ++i) scenarios.push_back(random_scenario(rng, opt));

  std::vector<ScenarioResult> inline_res(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    inline_res[i] = run_scenario(scenarios[i]);
  }

  std::vector<ScenarioResult> pooled_res(scenarios.size());
  common::ThreadPool pool(4);
  pool.parallel_for(0, static_cast<std::int64_t>(scenarios.size()),
                    [&](std::int64_t i) {
                      const auto u = static_cast<std::size_t>(i);
                      pooled_res[u] = run_scenario(scenarios[u]);
                    });

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& a = inline_res[i];
    const ScenarioResult& b = pooled_res[i];
    EXPECT_EQ(a.verdict, b.verdict) << "scenario " << i;
    EXPECT_EQ(a.success, b.success);
    if (std::isnan(a.residual)) {
      EXPECT_TRUE(std::isnan(b.residual));
    } else {
      EXPECT_EQ(a.residual, b.residual) << "scenario " << i;
    }
    EXPECT_EQ(a.faults_fired, b.faults_fired);
    EXPECT_EQ(a.faults_detected, b.faults_detected);
    EXPECT_EQ(a.errors_corrected, b.errors_corrected);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.reruns, b.reruns);
    // Compare fired plans through the replay serialization (exact
    // round-trip format, so equal text means equal faults).
    Scenario ta = scenarios[i];
    ta.mtbf_s = 0.0;
    ta.plan = a.fired_plan;
    Scenario tb = scenarios[i];
    tb.mtbf_s = 0.0;
    tb.plan = b.fired_plan;
    EXPECT_EQ(format_scenario(ta), format_scenario(tb)) << "scenario " << i;
  }
}

TEST(Campaign, DeterministicTwinReproducesStochasticRun) {
  // Any single-attempt stochastic run must replay identically from its
  // fired_plan with the arrival process disabled — that twin is the
  // starting point for shrinking.
  const std::uint64_t seed = test::root_seed(21);
  FTLA_SEED_TRACE(seed);
  CampaignOptions opt;
  Rng rng(seed);
  int checked = 0;
  for (int i = 0; i < 200 && checked < 5; ++i) {
    const Scenario sc = random_scenario(rng, opt);
    const ScenarioResult res = run_scenario(sc);
    if (res.faults_fired == 0 || res.reruns > 0 || res.rollbacks > 0) {
      continue;  // multi-attempt runs may quantize differently
    }
    Scenario twin = sc;
    twin.mtbf_s = 0.0;
    twin.plan = res.fired_plan;
    const ScenarioResult replay = run_scenario(twin);
    EXPECT_EQ(replay.verdict, res.verdict)
        << "scenario:\n"
        << format_scenario(twin);
    ++checked;
  }
  EXPECT_GE(checked, 3) << "campaign mix produced too few twin candidates";
}

TEST(ScenarioIo, FormatParseRoundTrip) {
  const std::uint64_t seed = test::root_seed(31);
  FTLA_SEED_TRACE(seed);
  CampaignOptions opt;
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    Scenario sc = random_scenario(rng, opt);
    // Exercise the fault-line serializer too.
    sc.plan = random_plan(4, sc.nblocks(), rng.next_u64());
    sc.plan[0].type = FaultType::Transfer;
    sc.plan[0].transfer_index = 3;
    sc.plan[1].target_checksum = true;
    const std::string text = format_scenario(sc);
    Scenario back;
    std::string err;
    ASSERT_TRUE(parse_scenario(text, &back, &err)) << err << "\n" << text;
    EXPECT_EQ(format_scenario(back), text);
  }
}

TEST(Campaign, DagRuntimeScenariosStayZeroSdc) {
  // Force every scenario onto the task-graph runtime: the zero-SDC
  // invariant must hold over the DAG drivers exactly as over the bulk
  // oracle (docs/runtime.md), for all three algorithms.
  const std::uint64_t seed = test::root_seed(77);
  FTLA_SEED_TRACE(seed);
  CampaignOptions opt;
  opt.scenarios = 120;
  opt.seed = seed;
  opt.dag_share = 1.0;
  const CampaignSummary sum = run_campaign(opt);
  EXPECT_EQ(sum.scenarios_run, 120);
  EXPECT_GT(sum.faults_fired, 0);
  EXPECT_GT(sum.faults_detected, 0);
  EXPECT_EQ(sum.guarded_sdc, 0);
  EXPECT_TRUE(sum.clean());
  // The oracle still catches unguarded corruption under the DAG, so the
  // zero above is not the oracle going blind.
  long long noft_sdc = 0;
  for (const char* key : {"cholesky/no-ft", "lu/no-ft", "qr/no-ft"}) {
    noft_sdc += verdict_total(sum, key, Verdict::Sdc);
  }
  EXPECT_GT(noft_sdc, 0);
}

TEST(ScenarioIo, RuntimeKeyRoundTripsAndDefaultsToBulk) {
  Scenario sc;
  sc.runtime = abft::RuntimeMode::Dag;
  const std::string text = format_scenario(sc);
  EXPECT_NE(text.find(" runtime=dag "), std::string::npos) << text;
  Scenario back;
  std::string err;
  ASSERT_TRUE(parse_scenario(text, &back, &err)) << err;
  EXPECT_EQ(back.runtime, abft::RuntimeMode::Dag);
  // Pre-runtime plans omit the key: bulk is the compatibility default.
  ASSERT_TRUE(
      parse_scenario("scenario algo=cholesky n=64 block=16\n", &back, &err))
      << err;
  EXPECT_EQ(back.runtime, abft::RuntimeMode::Bulk);
}

TEST(ScenarioIo, ParseReportsLineNumbers) {
  Scenario sc;
  std::string err;
  EXPECT_FALSE(parse_scenario("scenario algo=cholesky\nfault type=bogus\n",
                              &sc, &err));
  EXPECT_NE(err.find("2"), std::string::npos) << err;
}

TEST(ScenarioIo, RejectsFieldsADriverWouldAbortOn) {
  // Each line parses apart from one field out of range; the parser must
  // refuse it, so a replay exits with a usage error instead of aborting
  // inside the driver.
  const std::string base = "scenario algo=cholesky n=64 block=16 ";
  for (const std::string bad :
       {"k=0", "ckpt=0", "k=-1", "max_arrivals=-1", "n=0",
        "algo=lu variant=online-abft", "algo=qr variant=offline-abft",
        "placement=cpu runtime=dag", "recovery=checkpoint runtime=dag",
        "variant=no-ft recovery=checkpoint runtime=dag"}) {
    Scenario sc;
    std::string err;
    EXPECT_FALSE(parse_scenario(base + bad + "\n", &sc, &err)) << bad;
    EXPECT_NE(err.find("line 1"), std::string::npos) << bad << ": " << err;
  }
  Scenario sc;
  std::string err;
  EXPECT_FALSE(parse_scenario(base + "\nfault type=storage bits=64\n", &sc,
                              &err));
  EXPECT_NE(err.find("bits"), std::string::npos) << err;
  // The boundary values still parse, and so do the dag lines the graph
  // runs: NoFt places no checksums, Offline ignores checkpoint recovery,
  // and LU/QR ignore the Cholesky-only fields.
  EXPECT_TRUE(parse_scenario(
      base + "k=1 ckpt=1 max_arrivals=0 algo=lu variant=no-ft\n"
             "fault type=storage bits=0,63\n",
      &sc, &err))
      << err;
  for (const std::string good :
       {"variant=no-ft placement=cpu runtime=dag",
        "variant=offline-abft recovery=checkpoint runtime=dag",
        "algo=lu placement=cpu recovery=checkpoint runtime=dag",
        "placement=auto runtime=dag", "placement=cpu recovery=checkpoint"}) {
    EXPECT_TRUE(parse_scenario(base + good + "\n", &sc, &err))
        << good << ": " << err;
  }
}

TEST(Shrink, ProducesMinimalReplayablePlan) {
  // A NoFt run with a pile of faults silently corrupts; the shrinker
  // must cut the plan to <= 2 faults (here: one) that still reproduce
  // the sdc verdict when replayed.
  Scenario sc;
  sc.algo = Algo::Cholesky;
  sc.variant = abft::Variant::NoFt;
  sc.n = 80;
  sc.matrix_seed = 5;
  sc.plan = random_plan(5, sc.nblocks(), 17, FaultType::Storage);
  const ScenarioResult res = run_scenario(sc);
  ASSERT_EQ(res.verdict, Verdict::Sdc)
      << "residual=" << res.residual << " fired=" << res.faults_fired;

  const ShrinkOutcome out = shrink_scenario(sc, Verdict::Sdc);
  ASSERT_LE(out.scenario.plan.size(), 2u);
  ASSERT_GE(out.scenario.plan.size(), 1u);
  EXPECT_GT(out.runs, 0);

  // The minimized scenario replays to the same verdict, including after
  // a serialization round-trip.
  Scenario back;
  std::string err;
  ASSERT_TRUE(parse_scenario(format_scenario(out.scenario), &back, &err))
      << err;
  EXPECT_EQ(run_scenario(back).verdict, Verdict::Sdc);
}

TEST(TransferFault, MidH2dCaughtByNextPreReferenceVerification) {
  // Acceptance path for the transfer-fault model: corrupt the factored
  // diagonal block's H2D return trip mid-copy, and require Enhanced
  // Online-ABFT (transfer_guard on) to catch it at the next verification
  // that reads the block — with the injection -> detection flow visible
  // in the exported Chrome trace.
  const int n = 64;
  auto a0 = test::random_spd(n, 99);

  // Pass 1: find the copy ordinal of the first *armed* H2D copy after
  // the run starts (the drivers arm exactly the copies whose corruption
  // a downstream check can see).
  std::int64_t target_seq = -1;
  {
    auto a = a0;
    sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
    m.set_transfer_hook([&](const sim::TransferCtx& ctx) {
      // A full-matrix destination (ld == n) keeps coordinates mappable.
      if (target_seq < 0 && ctx.h2d && ctx.armed && ctx.rows > 1 &&
          ctx.ld == n && ctx.dev_off >= 0) {
        target_seq = ctx.seq;
      }
    });
    abft::CholeskyOptions opt;
    opt.variant = abft::Variant::EnhancedOnline;
    opt.block_size = 16;
    opt.transfer_guard = true;
    ASSERT_TRUE(abft::cholesky(m, &a, n, opt).success);
  }
  ASSERT_GE(target_seq, 0) << "no armed H2D copy observed";

  // Pass 2: same run with a planned transfer fault on that copy.
  FaultSpec spec;
  spec.type = FaultType::Transfer;
  spec.op = Op::Potf2;
  spec.transfer_index = target_seq;
  spec.elem_row = 1;
  spec.elem_col = 0;
  spec.bits = {52, 57};

  auto a = a0;
  sim::Machine m(sim::test_rig(), sim::ExecutionMode::Numeric);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  Injector inj({spec});
  obs::RingBufferSink sink;
  Rng xfer_rng(1);
  m.set_transfer_hook([&](const sim::TransferCtx& ctx) {
    inj.strike_transfer(inj.take_transfer(ctx.seq, ctx.end, ctx.armed),
                        {ctx.data, ctx.rows, ctx.cols, ctx.ld, ctx.dev_off},
                        n, xfer_rng);
  });
  abft::CholeskyOptions opt;
  opt.variant = abft::Variant::EnhancedOnline;
  opt.block_size = 16;
  opt.transfer_guard = true;
  opt.event_sink = &sink;
  const auto res = abft::cholesky(m, &a, n, opt, &inj);

  ASSERT_TRUE(res.success);
  ASSERT_EQ(inj.fired_count(), 1);
  EXPECT_EQ(inj.detected_count(), 1)
      << "mid-H2D corruption must be caught before the block is read";
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-10);

  // The event stream carries the correlated chain...
  const auto events = sink.events();
  std::int64_t fault_id = -1;
  bool saw_detection = false;
  for (const auto& e : events) {
    if (e.kind == obs::EventKind::FaultInjected &&
        e.name == "fault:transfer") {
      fault_id = e.correlation;
    }
    if (e.kind == obs::EventKind::Detection && e.correlation >= 0 &&
        e.correlation == fault_id) {
      saw_detection = true;
    }
  }
  ASSERT_GE(fault_id, 0);
  EXPECT_TRUE(saw_detection);

  // ...and the merged Chrome trace renders it: instant events for the
  // injection and detection plus a flow arrow between them.
  std::ostringstream os;
  sim::write_chrome_trace(spans, events, os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("fault:transfer"), std::string::npos);
  EXPECT_NE(trace.find("\"detection\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // flow end
}

}  // namespace
}  // namespace ftla::fault
