// Machine (simulated CUDA runtime) tests. The test_rig profile uses
// round numbers — per-SM rate 10 GFLOP/s, 4 SMs, 1 GB/s links, zero
// fixed overheads — so expected virtual times are computed by hand.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "sim/device_matrix.hpp"
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
  const DMat block{&buf, 1, 2, 3, 4};
  m.memcpy_h2d_2d(block, host.data(), 2, 0);
  EXPECT_EQ(buf.data()[1], 1.0);
  EXPECT_EQ(buf.data()[2], 2.0);
  EXPECT_EQ(buf.data()[5], 3.0);
  EXPECT_EQ(buf.data()[9], 5.0);
  std::vector<double> back(6, 0.0);
  m.memcpy_d2h_2d(back.data(), 2, block, 0);
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

// Every copy checks its stream like launch and the event calls do, so a
// bad stream id is a precondition failure, not an out-of-bounds read.
TEST(MachineDeath, FlatCopiesRejectAnUnknownStream) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = make_numeric();
  auto buf = m.alloc(4);
  std::vector<double> host(4, 1.0);
  EXPECT_DEATH(m.memcpy_h2d(buf, 0, host.data(), 4, 3), "stream_count");
  EXPECT_DEATH(m.memcpy_d2h(host.data(), buf, 0, 4, -1), "stream_count");
}

TEST(MachineDeath, H2d2dRejectsAnUnknownStream) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = make_numeric();
  auto buf = m.alloc(4);
  std::vector<double> host(4, 1.0);
  EXPECT_DEATH(m.memcpy_h2d_2d(DMat{&buf, 0, 2, 2, 2}, host.data(), 2, 1),
               "stream_count");
}

TEST(MachineDeath, D2h2dRejectsAnUnknownStream) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = make_numeric();
  auto buf = m.alloc(4);
  std::vector<double> host(4, 1.0);
  EXPECT_DEATH(m.memcpy_d2h_2d(host.data(), 2, DMat{&buf, 0, 2, 2, 2}, -1),
               "stream_count");
}

TEST(MachineDeath, D2dRejectsAnUnknownStream) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = make_numeric();
  auto a = m.alloc(4);
  auto b = m.alloc(4);
  EXPECT_DEATH(m.memcpy_d2d(b, 0, a, 0, 4, 1), "stream_count");
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

TEST(Machine, PerClassCostsMatchTheUncachedFormula) {
  // The machine prices a class from constants fixed at construction. A
  // random mix of every class, default and explicit SM requests (some
  // above the SM count) and zero and nonzero flops on three streams
  // must place, price and count exactly as the formula evaluated per
  // launch does, on each preset and on a profile whose
  // concurrent-kernel limit inflates footprints.
  MachineProfile tight = test_rig();
  tight.sm_count = 8;
  tight.gpu_peak_gflops = 80.0;
  tight.max_concurrent_kernels = 3;
  for (const MachineProfile& p :
       {tardis(), bulldozer64(), test_rig(), ampere(), tight}) {
    Machine m(p, ExecutionMode::TimingOnly);
    obs::SpanStore spans;
    m.set_span_store(&spans);
    const std::vector<StreamId> streams = {0, m.create_stream(),
                                           m.create_stream()};
    // The formula, with the launch protocol it feeds.
    ResourceTimeline pool(p.sm_count + p.coexec_spare_units);
    const int min_units = (p.sm_count + p.max_concurrent_kernels - 1) /
                          p.max_concurrent_kernels;
    std::vector<double> stream_end(streams.size(), 0.0);
    double host = 0.0;
    std::map<KernelClass, ClassStats> gpu;
    std::map<KernelClass, ClassStats> cpu;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      const auto cls =
          static_cast<KernelClass>(rng.uniform_int(0, kKernelClasses - 1));
      const std::int64_t flops =
          rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, 1 << 30);
      const int sm_units =
          rng.uniform_int(0, 1) == 0 ? 0 : rng.uniform_int(1, p.sm_count + 2);
      const KernelDesc d{"k", cls, flops, sm_units};
      if (rng.uniform_int(0, 4) == 0) {
        const double dur =
            flops > 0 ? static_cast<double>(flops) /
                            (p.cpu_peak_gflops * p.cpu_efficiency(cls) * 1e9)
                      : 0.0;
        host += dur;
        ClassStats& cs = cpu[cls];
        ++cs.count;
        cs.flops += flops;
        cs.busy_seconds += dur;
        m.host_compute(d, {});
        ASSERT_EQ(m.host_now(), host) << p.name << " op " << i;
        continue;
      }
      const std::size_t s =
          static_cast<std::size_t>(rng.uniform_int(0, 2));
      const int units = std::min(
          sm_units > 0 ? sm_units : p.default_sm_units(cls), p.sm_count);
      double dur = p.kernel_launch_overhead_s;
      if (flops > 0) {
        dur += static_cast<double>(flops) /
               (p.gpu_rate_gflops(cls, units) * 1e9);
      }
      host += p.host_call_overhead_s;
      pool.prune(std::min(host, pool.last_end()));
      const double start =
          pool.allocate(std::max(host, stream_end[s]), dur,
                        std::max(units, min_units));
      stream_end[s] = start + dur;
      ClassStats& cs = gpu[cls];
      ++cs.count;
      cs.flops += flops;
      cs.busy_seconds += dur;
      m.launch(streams[s], d, {});
      const obs::Span span = spans.snapshot().back();
      ASSERT_EQ(span.start, start) << p.name << " op " << i;
      ASSERT_EQ(span.end, start + dur) << p.name << " op " << i;
      ASSERT_EQ(span.units, units) << p.name << " op " << i;
      ASSERT_EQ(m.stream_end(streams[s]), stream_end[s]);
    }
    EXPECT_EQ(m.gpu_busy_sm_seconds(), pool.busy_unit_seconds()) << p.name;
    for (const auto& [want, got] : {std::pair{&gpu, &m.stats().gpu},
                                    std::pair{&cpu, &m.stats().host}}) {
      ASSERT_EQ(got->size(), want->size()) << p.name;
      for (const auto& [cls, w] : *want) {
        const ClassStats& g = got->at(cls);
        EXPECT_EQ(g.count, w.count) << p.name << " " << to_string(cls);
        EXPECT_EQ(g.flops, w.flops) << p.name << " " << to_string(cls);
        EXPECT_EQ(g.busy_seconds, w.busy_seconds)
            << p.name << " " << to_string(cls);
      }
    }
  }
}

// The 2-D copies of the copy property test: rows x cols of the device
// buffer at `dev_off` (leading dimension `dev_ld`) against a host
// block with leading dimension `host_ld`.
void copy_2d(Machine& m, bool h2d, DeviceBuffer& buf, std::int64_t dev_off,
             int dev_ld, double* host, int host_ld, int rows, int cols,
             StreamId s, bool blocking) {
  const DMat region{&buf, dev_off, rows, cols, dev_ld};
  if (h2d) {
    m.memcpy_h2d_2d(region, host, host_ld, s, blocking);
  } else {
    m.memcpy_d2h_2d(host, host_ld, region, s, blocking);
  }
}

TEST(Machine, CopiesMatchTheTransferFormula) {
  // Random flat and 2-D copies in both directions, blocking or not, on
  // three streams, with and without a fleet host link that a sibling
  // also reserves, must produce exactly the span, stats, stream end,
  // host clock and TransferCtx the transfer formula gives. An empty
  // flat copy is priced; an empty 2-D copy is free; only non-empty
  // copies get a transfer ordinal.
  for (const bool linked : {false, true}) {
    for (const MachineProfile& p : {test_rig(), tardis()}) {
      Machine m(p, ExecutionMode::Numeric);
      obs::SpanStore spans;
      m.set_span_store(&spans);
      std::vector<TransferCtx> seen;
      m.set_transfer_hook([&](const TransferCtx& c) { seen.push_back(c); });
      m.set_transfer_faults_armed(/*h2d=*/true, /*d2h=*/false);
      ResourceTimeline link(2);
      ResourceTimeline model_link(2);
      if (linked) m.set_host_link(&link);
      const std::vector<StreamId> streams = {0, m.create_stream(),
                                             m.create_stream()};
      constexpr int kLd = 24;
      DeviceBuffer buf = m.alloc(kLd * kLd);
      std::vector<double> host(kLd * kLd, 1.5);

      std::vector<double> stream_end(streams.size(), 0.0);
      double clock = 0.0;
      double engine_free[2] = {0.0, 0.0};  // h2d, d2h
      long long count[2] = {0, 0};
      std::int64_t bytes[2] = {0, 0};
      double seconds[2] = {0.0, 0.0};
      std::size_t nspans = 0;
      std::int64_t seq = 0;
      Rng rng(11);
      for (int i = 0; i < 300; ++i) {
        const std::string at =
            p.name + (linked ? " linked" : "") + " op " + std::to_string(i);
        if (rng.uniform_int(0, 5) == 0) {
          const double dt = rng.uniform(0.0, 2e-5);
          clock += dt;
          m.host_advance(dt);
        }
        if (linked && rng.uniform_int(0, 3) == 0) {
          // A fleet sibling's transfer on the shared link.
          const double t0 = rng.uniform(0.0, clock + 1e-4);
          const double dt = rng.uniform(1e-7, 3e-5);
          ASSERT_EQ(link.allocate(t0, dt, 1), model_link.allocate(t0, dt, 1));
        }
        const bool h2d = rng.uniform_int(0, 1) == 0;
        const bool flat = rng.uniform_int(0, 1) == 0;
        const bool blocking = rng.uniform_int(0, 2) == 0;
        const std::size_t s = static_cast<std::size_t>(rng.uniform_int(0, 2));
        const int rows =
            rng.uniform_int(0, 4) == 0 ? 0 : rng.uniform_int(1, 12);
        const int cols = flat ? 1 : rng.uniform_int(0, 4) == 0
                                        ? 0
                                        : rng.uniform_int(1, 8);
        const int dev_ld = flat ? rows : rows + rng.uniform_int(0, 4);
        const int host_ld = flat ? rows : rows + rng.uniform_int(0, 3);
        const std::int64_t dev_off = rng.uniform_int(0, 40);
        const char* name = flat ? (h2d ? "h2d" : "d2h")
                                : (h2d ? "h2d_2d" : "d2h_2d");
        const std::size_t seen_before = seen.size();
        if (flat) {
          if (h2d) {
            m.memcpy_h2d(buf, dev_off, host.data(), rows, streams[s],
                         blocking);
          } else {
            m.memcpy_d2h(host.data(), buf, dev_off, rows, streams[s],
                         blocking);
          }
        } else {
          copy_2d(m, h2d, buf, dev_off, dev_ld, host.data(), host_ld, rows,
                  cols, streams[s], blocking);
        }
        const std::int64_t n = static_cast<std::int64_t>(rows) * cols;
        if (!flat && n == 0) {
          // Free: no clock, span, stats or ordinal.
          ASSERT_EQ(m.host_now(), clock) << at;
          ASSERT_EQ(spans.snapshot().size(), nspans) << at;
          ASSERT_EQ(seen.size(), seen_before) << at;
          continue;
        }
        const int d = h2d ? 0 : 1;
        clock += p.host_call_overhead_s;
        const double dur =
            p.transfer_latency_s +
            static_cast<double>(n) * sizeof(double) /
                ((h2d ? p.h2d_bandwidth_gbs : p.d2h_bandwidth_gbs) * 1e9);
        const double earliest =
            std::max({clock, stream_end[s], engine_free[d]});
        const double start =
            linked ? model_link.allocate(earliest, dur, 1) : earliest;
        const double end = start + dur;
        engine_free[d] = end;
        stream_end[s] = end;
        ++count[d];
        bytes[d] += n * 8;
        seconds[d] += dur;
        if (blocking) clock = std::max(clock, end);

        const std::vector<obs::Span> all = spans.snapshot();
        ASSERT_EQ(all.size(), ++nspans) << at;
        const obs::Span& span = all.back();
        EXPECT_EQ(span.kind, obs::EventKind::Copy) << at;
        EXPECT_EQ(span.name, name) << at;
        EXPECT_EQ(span.cls, to_string(KernelClass::Other)) << at;
        EXPECT_EQ(span.lane, h2d ? kH2dLane : kD2hLane) << at;
        ASSERT_EQ(span.start, start) << at;
        ASSERT_EQ(span.end, end) << at;
        EXPECT_EQ(span.flops, 0) << at;
        EXPECT_EQ(span.bytes, n * 8) << at;
        EXPECT_EQ(span.units, 0) << at;
        ASSERT_EQ(m.stream_end(streams[s]), stream_end[s]) << at;
        ASSERT_EQ(m.host_now(), clock) << at;
        ASSERT_EQ(m.transfer_seq(), seq + (n > 0 ? 1 : 0)) << at;
        if (n == 0) {
          ASSERT_EQ(seen.size(), seen_before) << at;
          continue;
        }
        ASSERT_EQ(seen.size(), seen_before + 1) << at;
        const TransferCtx& c = seen.back();
        EXPECT_STREQ(c.name, name) << at;
        EXPECT_EQ(c.h2d, h2d) << at;
        EXPECT_EQ(c.data, h2d ? buf.data() + dev_off : host.data()) << at;
        EXPECT_EQ(c.rows, rows) << at;
        EXPECT_EQ(c.cols, cols) << at;
        EXPECT_EQ(c.ld, h2d ? dev_ld : host_ld) << at;
        EXPECT_EQ(c.dev_off, h2d ? dev_off : -1) << at;
        EXPECT_EQ(c.seq, seq++) << at;
        EXPECT_EQ(c.start, start) << at;
        EXPECT_EQ(c.end, end) << at;
        EXPECT_EQ(c.stream, streams[s]) << at;
        EXPECT_EQ(c.armed, h2d) << at;
      }
      const SimStats& st = m.stats();
      EXPECT_EQ(st.h2d_count, count[0]);
      EXPECT_EQ(st.d2h_count, count[1]);
      EXPECT_EQ(st.h2d_bytes, bytes[0]);
      EXPECT_EQ(st.d2h_bytes, bytes[1]);
      EXPECT_EQ(st.h2d_seconds, seconds[0]);
      EXPECT_EQ(st.d2h_seconds, seconds[1]);
      EXPECT_EQ(m.makespan(),
                std::max({clock, stream_end[0], stream_end[1], stream_end[2],
                          engine_free[0], engine_free[1]}));
    }
  }
}

TEST(Machine, LeastLoadedStreamTakesTheFirstPoolStreamOnTies) {
  auto m = make_numeric();
  const StreamId a = m.create_stream();
  const StreamId b = m.create_stream();
  const StreamId c = m.create_stream();
  // All idle: the first of the pool, whatever its id.
  EXPECT_EQ(m.least_loaded_stream(std::vector<StreamId>{c, a, b}), c);
  EXPECT_EQ(m.least_loaded_stream(std::vector<StreamId>{b}), b);
  m.launch(c, blas2(10e9), {});  // c busy until 1 s, on 1 SM of 4
  EXPECT_EQ(m.least_loaded_stream(std::vector<StreamId>{c, b, a}), b);
  m.launch(b, blas2(5e9), {});  // b busy until 0.5 s
  m.launch(a, blas2(5e9), {});  // a too: a tie again
  EXPECT_EQ(m.least_loaded_stream(std::vector<StreamId>{c, a, b}), a);
  EXPECT_EQ(m.least_loaded_stream(std::vector<StreamId>{c, b, a}), b);
  m.launch(a, blas2(1e9), {});  // a strictly later than b now
  EXPECT_EQ(m.least_loaded_stream(std::vector<StreamId>{c, a, b}), b);
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
