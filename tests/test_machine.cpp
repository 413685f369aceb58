// Machine (simulated CUDA runtime) tests. The test_rig profile uses
// round numbers — per-SM rate 10 GFLOP/s, 4 SMs, 1 GB/s links, zero
// fixed overheads — so expected virtual times are computed by hand.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "sim/gpublas.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"

// AddressSanitizer brings its own allocator; elsewhere this binary
// replaces the global operator new so a test can count allocations.
#if defined(__SANITIZE_ADDRESS__)
#define FTLA_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTLA_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef FTLA_COUNT_ALLOCATIONS
#define FTLA_COUNT_ALLOCATIONS 1
#endif

#if FTLA_COUNT_ALLOCATIONS
namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

// GCC pairs the inlined replacement new with free() below and flags
// the pair, though both sides are malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace ftla::sim {
namespace {

Machine make_numeric() { return Machine(test_rig(), ExecutionMode::Numeric); }

KernelDesc blas3(std::int64_t flops) {
  return KernelDesc{"k3", KernelClass::Blas3, flops, 0};
}
KernelDesc blas2(std::int64_t flops) {
  return KernelDesc{"k2", KernelClass::Blas2, flops, 0};
}

TEST(Machine, KernelDurationFromCostModel) {
  auto m = make_numeric();
  // Blas3 uses all 4 SMs at 10 GFLOP/s each -> 40e9 flops take 1 s.
  m.launch(m.default_stream(), blas3(40'000'000'000LL), {});
  EXPECT_DOUBLE_EQ(m.host_now(), 0.0);  // async: host does not wait
  m.sync_all();
  EXPECT_DOUBLE_EQ(m.host_now(), 1.0);
}

TEST(Machine, StreamFifoOrdering) {
  auto m = make_numeric();
  m.launch(0, blas3(40e9), {});
  m.launch(0, blas3(20e9), {});
  m.sync_stream(0);
  EXPECT_DOUBLE_EQ(m.host_now(), 1.5);
}

TEST(Machine, IndependentStreamsOverlap) {
  auto m = make_numeric();
  const StreamId s1 = m.create_stream();
  const StreamId s2 = m.create_stream();
  // Each Blas2 kernel takes 1 SM for 1 s; they co-run.
  m.launch(s1, blas2(10e9), {});
  m.launch(s2, blas2(10e9), {});
  m.sync_all();
  EXPECT_DOUBLE_EQ(m.host_now(), 1.0);
}

TEST(Machine, ConcurrencyBoundedBySmPool) {
  auto m = make_numeric();
  std::vector<StreamId> streams;
  for (int i = 0; i < 5; ++i) streams.push_back(m.create_stream());
  // Five 1-SM kernels of 1 s on a 4-SM device: 2 s total.
  for (auto s : streams) m.launch(s, blas2(10e9), {});
  m.sync_all();
  EXPECT_DOUBLE_EQ(m.host_now(), 2.0);
}

TEST(Machine, BigKernelBlocksSmallOnes) {
  auto m = make_numeric();
  const StreamId s1 = m.create_stream();
  const StreamId s2 = m.create_stream();
  m.launch(s1, blas3(40e9), {});  // occupies all 4 SMs for 1 s
  m.launch(s2, blas2(10e9), {});  // must wait
  m.sync_stream(s2);
  EXPECT_DOUBLE_EQ(m.host_now(), 2.0);
}

TEST(Machine, EventsOrderAcrossStreams) {
  auto m = make_numeric();
  const StreamId s1 = m.create_stream();
  const StreamId s2 = m.create_stream();
  m.launch(s1, blas2(20e9), {});            // ends at 2
  const EventId e = m.record_event(s1);
  m.stream_wait_event(s2, e);
  m.launch(s2, blas2(10e9), {});            // starts at 2
  m.sync_stream(s2);
  EXPECT_DOUBLE_EQ(m.host_now(), 3.0);
}

TEST(Machine, SyncEventJoinsHost) {
  auto m = make_numeric();
  m.launch(0, blas3(40e9), {});
  const EventId e = m.record_event(0);
  m.launch(0, blas3(40e9), {});
  m.sync_event(e);
  EXPECT_DOUBLE_EQ(m.host_now(), 1.0);  // not 2.0
}

TEST(Machine, HostComputeAdvancesHostClock) {
  auto m = make_numeric();
  bool ran = false;
  m.host_compute(KernelDesc{"h", KernelClass::HostPotf2, 10'000'000'000LL, 0},
                 [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(m.host_now(), 1.0);  // 10e9 flops at 10 GFLOP/s
}

TEST(Machine, HostOverlapsAsyncGpuWork) {
  auto m = make_numeric();
  m.launch(0, blas3(40e9), {});  // 1 s on the GPU
  m.host_compute(KernelDesc{"h", KernelClass::HostPotf2, 5'000'000'000LL, 0},
                 {});            // 0.5 s on the host, overlapped
  m.sync_all();
  EXPECT_DOUBLE_EQ(m.host_now(), 1.0);
}

TEST(Machine, MemcpyBandwidthModel) {
  auto m = make_numeric();
  auto buf = m.alloc(1'000'000);
  std::vector<double> host(1'000'000, 1.0);
  // 8 MB at 1 GB/s = 8 ms.
  m.memcpy_h2d(buf, 0, host.data(), 1'000'000, 0, /*blocking=*/true);
  EXPECT_NEAR(m.host_now(), 0.008, 1e-12);
}

TEST(Machine, CopyEnginesRunInParallel) {
  auto m = make_numeric();
  auto buf = m.alloc(2'000'000);
  std::vector<double> host(1'000'000, 0.5);
  std::vector<double> out(1'000'000);
  m.memcpy_h2d(buf, 0, host.data(), 1'000'000, 0);
  const StreamId s2 = m.create_stream();
  m.memcpy_d2h(out.data(), buf, 0, 1'000'000, s2);
  m.sync_all();
  EXPECT_NEAR(m.host_now(), 0.008, 1e-12);  // overlapped, not 0.016
}

TEST(Machine, SameEngineSerializes) {
  auto m = make_numeric();
  auto buf = m.alloc(2'000'000);
  std::vector<double> host(2'000'000, 0.5);
  const StreamId s2 = m.create_stream();
  m.memcpy_h2d(buf, 0, host.data(), 1'000'000, 0);
  m.memcpy_h2d(buf, 1'000'000, host.data(), 1'000'000, s2);
  m.sync_all();
  EXPECT_NEAR(m.host_now(), 0.016, 1e-12);
}

TEST(Machine, NumericBodiesExecuteEagerly) {
  auto m = make_numeric();
  auto buf = m.alloc(4);
  m.launch(0, blas2(100), [&] { buf.data()[2] = 42.0; });
  EXPECT_EQ(buf.data()[2], 42.0);  // before any sync
}

TEST(Machine, MemcpyMovesData) {
  auto m = make_numeric();
  auto buf = m.alloc(3);
  std::vector<double> in = {1.0, 2.0, 3.0};
  std::vector<double> out(3, 0.0);
  m.memcpy_h2d(buf, 0, in.data(), 3, 0);
  m.memcpy_d2h(out.data(), buf, 0, 3, 0);
  EXPECT_EQ(out, in);
}

TEST(Machine, Memcpy2dStrided) {
  auto m = make_numeric();
  auto buf = m.alloc(20);  // device 4x5 matrix, ld 4
  std::vector<double> host(6);
  for (int i = 0; i < 6; ++i) host[i] = i + 1.0;  // 2x3 block, ld 2
  m.memcpy_h2d_2d(buf, 1, 4, host.data(), 2, 2, 3, 0);
  EXPECT_EQ(buf.data()[1], 1.0);
  EXPECT_EQ(buf.data()[2], 2.0);
  EXPECT_EQ(buf.data()[5], 3.0);
  EXPECT_EQ(buf.data()[9], 5.0);
  std::vector<double> back(6, 0.0);
  m.memcpy_d2h_2d(back.data(), 2, buf, 1, 4, 2, 3, 0);
  EXPECT_EQ(back, host);
}

TEST(Machine, DeviceToDeviceCopy) {
  auto m = make_numeric();
  auto a = m.alloc(4);
  auto b = m.alloc(4);
  a.data()[1] = 7.0;
  m.memcpy_d2d(b, 0, a, 1, 2, 0);
  EXPECT_EQ(b.data()[0], 7.0);
}

TEST(Machine, DeviceMemoryAccounting) {
  auto m = make_numeric();
  EXPECT_EQ(m.device_bytes_in_use(), 0);
  {
    auto buf = m.alloc(1000);
    EXPECT_EQ(m.device_bytes_in_use(), 8000);
    auto buf2 = std::move(buf);
    EXPECT_EQ(m.device_bytes_in_use(), 8000);
  }
  EXPECT_EQ(m.device_bytes_in_use(), 0);
}

TEST(Machine, TimingOnlySkipsBodiesAndStorage) {
  Machine m(test_rig(), ExecutionMode::TimingOnly);
  auto buf = m.alloc(100'000'000);  // 800 MB if real, zero here
  bool ran = false;
  m.launch(0, blas3(40e9), [&] { ran = true; });
  m.sync_all();
  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(m.host_now(), 1.0);  // timing identical to Numeric
}

TEST(MachineDeath, TimingOnlyDataAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Machine m(test_rig(), ExecutionMode::TimingOnly);
  auto buf = m.alloc(4);
  EXPECT_DEATH((void)buf.data(), "Numeric mode");
}

TEST(Machine, StatsAccumulate) {
  auto m = make_numeric();
  m.launch(0, blas3(40e9), {});
  m.launch(0, blas2(10e9), {});
  m.sync_all();
  const auto& st = m.stats();
  EXPECT_EQ(st.gpu.at(KernelClass::Blas3).count, 1);
  EXPECT_EQ(st.gpu.at(KernelClass::Blas2).count, 1);
  EXPECT_EQ(st.total_gpu_flops(), 50'000'000'000LL);
}

TEST(Machine, UtilizationBetweenZeroAndOne) {
  auto m = make_numeric();
  m.launch(0, blas2(10e9), {});  // 1 SM of 4 busy for 1 s
  m.sync_all();
  EXPECT_NEAR(m.gpu_utilization(), 0.25, 1e-9);
}

TEST(Machine, TraceRecordsLanesAndTimes) {
  auto m = make_numeric();
  obs::SpanStore spans;
  m.set_span_store(&spans);
  m.launch(0, blas3(40e9), {});
  m.host_compute(KernelDesc{"h", KernelClass::HostPotf2, 10'000'000'000LL, 0},
                 {});
  m.sync_all();
  const std::vector<obs::Span> trace = spans.snapshot();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].lane, 0);
  EXPECT_EQ(trace[1].lane, kHostLane);
  EXPECT_DOUBLE_EQ(trace[0].end, 1.0);
}

TEST(Machine, ConcurrentKernelLimitInflatesFootprint) {
  // A profile whose concurrent-kernel limit (2) is tighter than its SM
  // count (8): 1-SM kernels must behave as if they used 4 SMs.
  MachineProfile p = test_rig();
  p.sm_count = 8;
  p.gpu_peak_gflops = 80.0;
  p.max_concurrent_kernels = 2;
  Machine m(p, ExecutionMode::Numeric);
  std::vector<StreamId> streams;
  for (int i = 0; i < 4; ++i) streams.push_back(m.create_stream());
  for (auto s : streams) m.launch(s, blas2(10e9), {});
  m.sync_all();
  // 4 kernels, only 2 at a time -> 2 s.
  EXPECT_DOUBLE_EQ(m.host_now(), 2.0);
}

// ----- body contract (Machine::Body) ---------------------------------

KernelDesc host_task(std::int64_t flops) {
  return KernelDesc{"h", KernelClass::HostPotf2, flops, 0};
}

TEST(MachineBody, RunsOnceInNumericNeverInTimingOnly) {
  for (const auto mode : {ExecutionMode::Numeric, ExecutionMode::TimingOnly}) {
    Machine m(test_rig(), mode);
    int launched = 0;
    int hosted = 0;
    m.launch(0, blas2(100), [&] { ++launched; });
    m.host_compute(host_task(100), [&] { ++hosted; });
    const int expected = mode == ExecutionMode::Numeric ? 1 : 0;
    EXPECT_EQ(launched, expected);
    EXPECT_EQ(hosted, expected);
  }
}

TEST(MachineBody, EmptyBodiesAreAcceptedAndCharged) {
  for (const auto mode : {ExecutionMode::Numeric, ExecutionMode::TimingOnly}) {
    Machine m(test_rig(), mode);
    const std::function<void()> empty;
    m.launch(0, blas2(10e9), {});
    m.launch(0, blas2(10e9), empty);
    m.host_compute(host_task(100), {});
    m.host_compute(host_task(100), empty);
    EXPECT_EQ(m.stats().gpu.at(KernelClass::Blas2).count, 2);
    EXPECT_EQ(m.stats().host.at(KernelClass::HostPotf2).count, 2);
    m.sync_all();
    EXPECT_GT(m.host_now(), 0.0);
  }
}

TEST(MachineBody, CapturesBeyondSmallBufferRun) {
  // Ten doubles by value: more than std::function stores inline.
  Machine m(test_rig(), ExecutionMode::Numeric);
  std::array<double, 10> w{};
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i + 1);
  double launched = 0.0;
  double hosted = 0.0;
  m.launch(0, blas2(100), [w, &launched] {
    for (const double x : w) launched += x;
  });
  m.host_compute(host_task(100), [w, &hosted] {
    for (const double x : w) hosted += x;
  });
  EXPECT_EQ(launched, 55.0);
  EXPECT_EQ(hosted, 55.0);
}

TEST(MachineBody, TimingOnlyLaunchesDoNotAllocatePerOp) {
#if FTLA_COUNT_ALLOCATIONS
  // gpublas::gemm captures three device views and four scalars, which
  // std::function would have put on the heap once per launch.
  Machine m(tardis(), ExecutionMode::TimingOnly);
  auto buf = m.alloc(256 * 256);
  const DMat c{&buf, 0, 256, 256, 256};
  const auto gemm = [&] {
    gpublas::gemm(m, 0, gpublas::Trans::No, gpublas::Trans::No, 1.0, c, c,
                  1.0, c);
  };
  for (int i = 0; i < 1000; ++i) gemm();  // warm: stats, timeline storage
  const long long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) gemm();
  EXPECT_LT(g_allocations.load() - before, 50);
  EXPECT_EQ(m.stats().gpu.at(KernelClass::Blas3).count, 2000);
#else
  GTEST_SKIP() << "allocation counting is off under AddressSanitizer";
#endif
}

}  // namespace
}  // namespace ftla::sim
