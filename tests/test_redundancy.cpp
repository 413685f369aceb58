// Tests for the DMR/TMR baselines (paper §I): correctness, detection/
// correction semantics, and the characteristic ~100% / ~200% overheads.
#include <gtest/gtest.h>

#include "abft/cholesky.hpp"
#include "abft/modular_redundancy.hpp"
#include "blas/lapack.hpp"
#include "sim/profile.hpp"
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

FaultSpec computing_fault(int iter) {
  FaultSpec s;
  s.type = FaultType::Computing;
  s.op = Op::Gemm;
  s.iteration = iter;
  s.magnitude = 1e6;
  return s;
}

// A violent computing error in a diagonal block breaks positive
// definiteness, so the replica it strikes fail-stops.
FaultSpec fail_stop_fault() {
  FaultSpec s = computing_fault(3);
  s.op = Op::Syrk;
  s.magnitude = -1e6;
  return s;
}

TEST(Dmr, FaultFreeProducesCorrectFactor) {
  const int n = 64;
  auto a0 = test::random_spd(n, 1);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  auto res = dmr_cholesky(m, &a, n);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.errors_detected, 0);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(Dmr, DetectsComputingErrorAndReruns) {
  const int n = 64;
  auto a0 = test::random_spd(n, 2);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  Injector inj({computing_fault(1)});
  auto res = dmr_cholesky(m, &a, n, {}, &inj);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.errors_detected, 1);
  EXPECT_EQ(res.reruns, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(Dmr, FailStopReplicaEndsTheAttemptAndReruns) {
  const int n = 96;
  auto a0 = test::random_spd(n, 6);
  // Replica 0 fail-stops, so the attempt ends there without running
  // replica 1, and the pair is re-run fault-free.
  Injector inj({fail_stop_fault()});
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  auto res = dmr_cholesky(m, &a, n, {}, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_TRUE(res.fail_stop_observed);
  EXPECT_EQ(res.errors_detected, 1);
  EXPECT_EQ(res.reruns, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);

  // The failed attempt cost less than one whole replica on top of a
  // clean DMR run: only the replica that fail-stopped ran in it.
  auto clean_a = a0;
  Machine clean_m(small_rig(), ExecutionMode::Numeric);
  const double clean = dmr_cholesky(clean_m, &clean_a, n).seconds;
  auto one_a = a0;
  Machine one_m(small_rig(), ExecutionMode::Numeric);
  CholeskyOptions noft;
  noft.variant = Variant::NoFt;
  ASSERT_TRUE(cholesky(one_m, &one_a, n, noft).success);
  one_m.sync_all();
  const double replica = one_m.host_now();  // staging included
  EXPECT_GT(res.seconds - clean, 0.0);
  EXPECT_LT(res.seconds - clean, replica);
}

TEST(Tmr, FaultFreeProducesCorrectFactor) {
  const int n = 64;
  auto a0 = test::random_spd(n, 3);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  auto res = tmr_cholesky(m, &a, n);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.reruns, 0);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(Tmr, CorrectsComputingErrorByVoteWithoutRerun) {
  const int n = 64;
  auto a0 = test::random_spd(n, 4);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  // Mild perturbation: large enough for the vote to flag, small enough
  // that replica 0 stays positive definite (a violent one fail-stops
  // the replica, which is the rerun path tested separately).
  FaultSpec mild = computing_fault(1);
  mild.magnitude = 0.25;
  Injector inj({mild});
  auto res = tmr_cholesky(m, &a, n, {}, &inj);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.reruns, 0);
  EXPECT_GE(res.errors_corrected, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(Tmr, CorrectsStorageErrorByVote) {
  const int n = 96;
  auto a0 = test::random_spd(n, 5);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = Op::Gemm;
  s.iteration = 2;
  s.block_row = 4;
  s.block_col = 1;
  s.bits = {20, 44, 54};
  Injector inj({s});
  auto res = tmr_cholesky(m, &a, n, {}, &inj);
  ASSERT_TRUE(res.success);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(Tmr, FailStopReplicaTriggersRerun) {
  const int n = 96;
  auto a0 = test::random_spd(n, 6);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  // Replica 0 fail-stops; the triple is re-run and succeeds fault-free.
  Injector inj({fail_stop_fault()});
  auto res = tmr_cholesky(m, &a, n, {}, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_TRUE(res.fail_stop_observed);
  EXPECT_EQ(res.reruns, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-12);
}

TEST(Redundancy, OverheadsAreRoughly100And200Percent) {
  // Paper §I: DMR ~100% overhead to detect, TMR ~200% to correct. At
  // paper scale on the virtual clock.
  const int n = 10240;
  const auto profile = sim::tardis();
  CholeskyOptions noft;
  noft.variant = Variant::NoFt;
  double base, dmr, tmr;
  {
    Machine m(profile, ExecutionMode::TimingOnly);
    base = cholesky(m, nullptr, n, noft).seconds;
  }
  {
    Machine m(profile, ExecutionMode::TimingOnly);
    dmr = dmr_cholesky(m, nullptr, n).seconds;
  }
  {
    Machine m(profile, ExecutionMode::TimingOnly);
    tmr = tmr_cholesky(m, nullptr, n).seconds;
  }
  // Replica setup transfers push the ratios slightly above the nominal
  // 2x / 3x (each replica re-stages the matrix on the device).
  EXPECT_GT(dmr / base, 1.95);
  EXPECT_LT(dmr / base, 2.4);
  EXPECT_GT(tmr / base, 2.9);
  EXPECT_LT(tmr / base, 3.6);
}

TEST(Redundancy, AbftIsFarCheaperThanRedundancy) {
  const int n = 10240;
  const auto profile = sim::tardis();
  CholeskyOptions noft;
  noft.variant = Variant::NoFt;
  CholeskyOptions enhanced;
  enhanced.variant = Variant::EnhancedOnline;
  enhanced.verify_interval = 5;
  enhanced.placement = UpdatePlacement::Cpu;
  double base, enh, tmr;
  {
    Machine m(profile, ExecutionMode::TimingOnly);
    base = cholesky(m, nullptr, n, noft).seconds;
  }
  {
    Machine m(profile, ExecutionMode::TimingOnly);
    enh = cholesky(m, nullptr, n, enhanced).seconds;
  }
  {
    Machine m(profile, ExecutionMode::TimingOnly);
    tmr = tmr_cholesky(m, nullptr, n).seconds;
  }
  // Both correct computing+storage errors; ABFT does it ~20x cheaper.
  EXPECT_LT((enh - base) / base, 0.15);
  EXPECT_GT((tmr - base) / (enh - base), 10.0);
}

}  // namespace
}  // namespace ftla::abft
