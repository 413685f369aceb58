// Tests for checkpoint/rollback recovery (composing ABFT with periodic
// checkpointing — the paper's citation [11]).
#include <gtest/gtest.h>

#include "abft/cholesky.hpp"
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

FaultSpec storage_syrk(int iter) {
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = Op::Syrk;
  s.iteration = iter;
  s.block_row = iter;
  s.block_col = iter - 1;
  s.elem_row = 2;
  s.elem_col = 7;
  s.bits = {20, 44, 54};
  return s;
}

struct Run {
  CholeskyResult res;
  double residual = 0.0;
};

Run run(Variant v, Recovery recovery, std::vector<FaultSpec> plan,
        int n = 160, int ckpt_interval = 2) {
  auto a0 = test::random_spd(n, 99);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  CholeskyOptions opt;
  opt.variant = v;
  opt.recovery = recovery;
  opt.checkpoint_interval = ckpt_interval;
  Injector inj(std::move(plan));
  Run out;
  out.res = cholesky(m, &a, n, opt, &inj);
  if (out.res.success) {
    out.residual = blas::cholesky_residual(a0.view(), a.view());
  }
  return out;
}

TEST(Checkpoint, FaultFreeRunTakesNoRollbacks) {
  auto out = run(Variant::Online, Recovery::Checkpoint, {});
  ASSERT_TRUE(out.res.success);
  EXPECT_EQ(out.res.rollbacks, 0);
  EXPECT_EQ(out.res.reruns, 0);
  EXPECT_LT(out.residual, 1e-12);
}

TEST(Checkpoint, OnlineStorageErrorRecoversByRollback) {
  auto out = run(Variant::Online, Recovery::Checkpoint, {storage_syrk(7)});
  ASSERT_TRUE(out.res.success) << out.res.note;
  EXPECT_EQ(out.res.rollbacks, 1);
  EXPECT_EQ(out.res.reruns, 0);
  EXPECT_LT(out.residual, 1e-10);
}

TEST(Checkpoint, RollbackIsCheaperThanRerun) {
  // Fault late in the run: rollback replays at most checkpoint_interval
  // iterations, a rerun replays everything.
  auto ckpt =
      run(Variant::Online, Recovery::Checkpoint, {storage_syrk(8)});
  auto rerun = run(Variant::Online, Recovery::Rerun, {storage_syrk(8)});
  ASSERT_TRUE(ckpt.res.success && rerun.res.success);
  EXPECT_EQ(ckpt.res.rollbacks, 1);
  EXPECT_EQ(rerun.res.reruns, 1);
  EXPECT_LT(ckpt.res.seconds, rerun.res.seconds);
}

TEST(Checkpoint, EnhancedNeverNeedsIt) {
  auto out =
      run(Variant::EnhancedOnline, Recovery::Checkpoint, {storage_syrk(7)});
  ASSERT_TRUE(out.res.success);
  EXPECT_EQ(out.res.rollbacks, 0);
  EXPECT_GE(out.res.errors_corrected, 1);
  EXPECT_LT(out.residual, 1e-6);
}

TEST(Checkpoint, NoFtRecoversFromFailStopViaRollback) {
  // Without checksums a violent storage fault breaks positive
  // definiteness; with checkpointing the transient is replayed away.
  FaultSpec s = storage_syrk(7);
  s.bits = {62};  // top exponent bit: the value explodes to ~1e308
  auto out = run(Variant::NoFt, Recovery::Checkpoint, {s});
  ASSERT_TRUE(out.res.success) << out.res.note;
  EXPECT_GE(out.res.rollbacks, 1);
  EXPECT_LT(out.residual, 1e-12);
}

TEST(Checkpoint, OfflineIgnoresCheckpointing) {
  // Offline detection happens at the end — no checkpoint is known-good,
  // so the driver must fall back to a full rerun.
  auto out = run(Variant::Offline, Recovery::Checkpoint, {storage_syrk(7)});
  ASSERT_TRUE(out.res.success);
  EXPECT_EQ(out.res.rollbacks, 0);
  EXPECT_EQ(out.res.reruns, 1);
  EXPECT_LT(out.residual, 1e-10);
}

TEST(Checkpoint, CpuPlacementSnapshotsHostMirror) {
  auto a0 = test::random_spd(160, 99);
  auto a = a0;
  Machine m(small_rig(), ExecutionMode::Numeric);
  CholeskyOptions opt;
  opt.variant = Variant::Online;
  opt.recovery = Recovery::Checkpoint;
  opt.checkpoint_interval = 2;
  opt.placement = UpdatePlacement::Cpu;
  Injector inj({storage_syrk(7)});
  auto res = cholesky(m, &a, 160, opt, &inj);
  ASSERT_TRUE(res.success) << res.note;
  EXPECT_EQ(res.rollbacks, 1);
  EXPECT_LT(blas::cholesky_residual(a0.view(), a.view()), 1e-10);
}

TEST(Checkpoint, TimingOnlyChargesSnapshotCost) {
  const int n = 5120;
  const auto profile = sim::tardis();
  CholeskyOptions plain;
  plain.variant = Variant::Online;
  CholeskyOptions ckpt = plain;
  ckpt.recovery = Recovery::Checkpoint;
  ckpt.checkpoint_interval = 2;
  Machine m1(profile, ExecutionMode::TimingOnly);
  const double t_plain = cholesky(m1, nullptr, n, plain).seconds;
  Machine m2(profile, ExecutionMode::TimingOnly);
  const double t_ckpt = cholesky(m2, nullptr, n, ckpt).seconds;
  EXPECT_GT(t_ckpt, t_plain);
  EXPECT_LT(t_ckpt / t_plain - 1.0, 0.35) << "snapshots should be cheap-ish";
}

TEST(CheckpointDeath, PanelCheckpointNeedsNumericMode) {
  // A TimingOnly run has no panel data to store.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PanelCheckpoint ck;
  CholeskyOptions opt;
  opt.panel_checkpoint = &ck;
  EXPECT_DEATH(
      {
        Machine m(small_rig(), ExecutionMode::TimingOnly);
        (void)cholesky(m, nullptr, 64, opt);
      },
      "Numeric mode");
}

TEST(Checkpoint, StringName) {
  EXPECT_STREQ(to_string(Recovery::Rerun), "rerun");
  EXPECT_STREQ(to_string(Recovery::Checkpoint), "checkpoint");
}

}  // namespace
}  // namespace ftla::abft
