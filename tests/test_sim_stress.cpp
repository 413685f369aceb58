// Randomized stress tests for the discrete-event engine: global
// invariants of arbitrary stream/event/kernel/transfer programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

namespace ftla::sim {
namespace {

struct Issued {
  int lane = 0;
  double start = 0.0;
  double end = 0.0;
  int units = 0;
};

class SimStress : public ::testing::TestWithParam<int> {};

TEST_P(SimStress, RandomProgramsRespectGlobalInvariants) {
  Rng rng(9000 + GetParam());
  MachineProfile p = test_rig();
  p.sm_count = rng.uniform_int(2, 8);
  p.gpu_peak_gflops = 10.0 * p.sm_count;
  p.coexec_spare_units = rng.uniform_int(0, 2);
  p.max_concurrent_kernels = rng.uniform_int(2, 8);
  Machine m(p, ExecutionMode::TimingOnly);
  obs::SpanStore spans;
  m.set_span_store(&spans);

  std::vector<StreamId> streams{m.default_stream()};
  for (int i = 0; i < rng.uniform_int(1, 5); ++i)
    streams.push_back(m.create_stream());
  std::vector<EventId> events;
  auto buf = m.alloc(1 << 16);

  double issued_work_seconds = 0.0;
  const int ops = 120;
  for (int i = 0; i < ops; ++i) {
    const StreamId s = streams[rng.uniform_int(0, streams.size() - 1)];
    switch (rng.uniform_int(0, 5)) {
      case 0:
      case 1: {  // kernel of random class/size
        const KernelClass classes[] = {KernelClass::Blas3,
                                       KernelClass::Blas3Skinny,
                                       KernelClass::Blas2,
                                       KernelClass::Compare};
        KernelDesc d{"k", classes[rng.uniform_int(0, 3)],
                     static_cast<std::int64_t>(rng.uniform(1e6, 1e9)), 0};
        m.launch(s, d, {});
        break;
      }
      case 2:
        m.memcpy_h2d(buf, 0, nullptr, rng.uniform_int(1, 1 << 14), s);
        break;
      case 3:
        m.memcpy_d2h(nullptr, buf, 0, rng.uniform_int(1, 1 << 14), s);
        break;
      case 4:
        events.push_back(m.record_event(s));
        break;
      case 5:
        if (!events.empty()) {
          m.stream_wait_event(
              s, events[rng.uniform_int(0, events.size() - 1)]);
        } else {
          m.host_compute(KernelDesc{"h", KernelClass::HostChecksum,
                                    static_cast<std::int64_t>(
                                        rng.uniform(1e5, 1e8)),
                                    0},
                         {});
        }
        break;
    }
    (void)issued_work_seconds;
  }
  m.sync_all();

  const double span = m.makespan();
  EXPECT_TRUE(std::isfinite(span));
  EXPECT_GE(span, 0.0);
  EXPECT_DOUBLE_EQ(m.host_now(), span) << "sync_all joins everything";

  // Trace invariants: every op within [0, makespan], non-negative
  // durations, per-lane FIFO (stream ops never overlap within a lane),
  // and SM-pool capacity never exceeded at any event boundary.
  const std::vector<obs::Span> trace = spans.snapshot();
  std::vector<Issued> gpu_ops;
  std::map<int, double> lane_last_end;
  for (const auto& r : trace) {
    EXPECT_LE(r.start, r.end);
    EXPECT_GE(r.start, 0.0);
    EXPECT_LE(r.end, span + 1e-12);
    if (r.lane >= 0) {
      // Stream lanes are FIFO: each op starts at/after the previous
      // op's end in that stream.
      auto it = lane_last_end.find(r.lane);
      if (it != lane_last_end.end()) {
        EXPECT_GE(r.start, it->second - 1e-12)
            << "stream " << r.lane << " reordered";
      }
      lane_last_end[r.lane] = r.end;
      if (r.units > 0) gpu_ops.push_back({r.lane, r.start, r.end, r.units});
    }
  }
  const int capacity = p.sm_count + p.coexec_spare_units;
  for (const auto& probe : gpu_ops) {
    const double at = probe.start + 1e-12;
    int usage = 0;
    for (const auto& op : gpu_ops) {
      if (op.start <= at && at < op.end) usage += std::min(op.units, capacity);
    }
    EXPECT_LE(usage, capacity) << "SM pool oversubscribed";
  }

  // Utilization is a sane fraction.
  EXPECT_GE(m.gpu_utilization(), 0.0);
  EXPECT_LE(m.gpu_utilization(), 1.0 + 1e-9 * capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimStress, ::testing::Range(0, 25));

TEST(SimStress, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(test_rig(), ExecutionMode::TimingOnly);
    auto s1 = m.create_stream();
    auto s2 = m.create_stream();
    Rng rng(4);
    for (int i = 0; i < 50; ++i) {
      const StreamId s = rng.next_double() < 0.5 ? s1 : s2;
      m.launch(s, KernelDesc{"k", KernelClass::Blas2,
                             static_cast<std::int64_t>(rng.uniform(1e6, 1e8)),
                             0},
               {});
    }
    m.sync_all();
    return m.host_now();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(SimStress, MakespanAtLeastBusiestLane) {
  Machine m(test_rig(), ExecutionMode::TimingOnly);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  auto s1 = m.create_stream();
  for (int i = 0; i < 10; ++i) {
    m.launch(s1, KernelDesc{"k", KernelClass::Blas3, 4'000'000'000LL, 0}, {});
  }
  m.sync_all();
  double busy = 0.0;
  for (const auto& r : spans.snapshot()) busy += r.end - r.start;
  EXPECT_GE(m.makespan() + 1e-12, busy) << "one FIFO lane: span == sum";
  EXPECT_NEAR(m.makespan(), busy, 1e-9);
}

}  // namespace
}  // namespace ftla::sim
