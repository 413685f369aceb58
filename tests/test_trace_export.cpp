// Tests for the trace exporter: Chrome-tracing JSON structure and the
// per-lane ASCII summary.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/trace_export.hpp"

namespace ftla::sim {
namespace {

// A short run recorded into `spans`: one copy each way, a kernel and a
// host task. Returns the run's makespan.
double traced_run(obs::SpanStore& spans) {
  Machine m(test_rig(), ExecutionMode::Numeric);
  m.set_span_store(&spans);
  auto buf = m.alloc(64);
  std::vector<double> host(64, 1.0);
  m.memcpy_h2d(buf, 0, host.data(), 64, 0);
  m.launch(0, KernelDesc{"work", KernelClass::Blas3, 40'000'000'000LL, 0},
           {});
  m.host_compute(KernelDesc{"hwork", KernelClass::HostPotf2,
                            10'000'000'000LL, 0},
                 {});
  m.memcpy_d2h(host.data(), buf, 0, 64, 0);
  m.sync_all();
  return m.makespan();
}

TEST(ChromeTrace, EmitsValidEventSkeleton) {
  obs::SpanStore spans;
  traced_run(spans);
  std::ostringstream os;
  write_chrome_trace(spans, {}, os);
  const std::string s = os.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"hwork\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"h2d\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  // Lane metadata present.
  EXPECT_NE(s.find("host CPU"), std::string::npos);
  EXPECT_NE(s.find("H2D engine"), std::string::npos);
}

TEST(ChromeTrace, BalancedBracesAndQuotes) {
  obs::SpanStore spans;
  traced_run(spans);
  std::ostringstream os;
  write_chrome_trace(spans, {}, os);
  const std::string s = os.str();
  int depth = 0;
  int quotes = 0;
  for (char c : s) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '"') ++quotes;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST(ChromeTrace, FileRoundTrip) {
  obs::SpanStore spans;
  traced_run(spans);
  const std::string path = ::testing::TempDir() + "/ftla_trace.json";
  ASSERT_TRUE(write_chrome_trace_file(spans, {}, path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
}

TEST(ChromeTrace, WriteToBadPathFails) {
  obs::SpanStore spans;
  traced_run(spans);
  EXPECT_FALSE(
      write_chrome_trace_file(spans, {}, "/nonexistent-dir/x/y.json"));
}

TEST(TraceSummary, ReportsEveryLane) {
  obs::SpanStore spans;
  const double makespan = traced_run(spans);
  std::ostringstream os;
  print_trace_summary(spans, makespan, os, 40);
  const std::string s = os.str();
  EXPECT_NE(s.find("host CPU"), std::string::npos);
  EXPECT_NE(s.find("stream 0"), std::string::npos);
  EXPECT_NE(s.find("H2D engine"), std::string::npos);
  EXPECT_NE(s.find("D2H engine"), std::string::npos);
  EXPECT_NE(s.find("makespan"), std::string::npos);
  // Occupancy strips are the requested width.
  const auto pos = s.find('[');
  ASSERT_NE(pos, std::string::npos);
  const auto end = s.find(']', pos);
  EXPECT_EQ(end - pos - 1, 40u);
}

TEST(TraceSummary, EmptyTraceIsSafe) {
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  std::ostringstream os;
  print_trace_summary(spans, m.makespan(), os);
  EXPECT_NE(os.str().find("0 ops"), std::string::npos);
}

TEST(Trace, DisabledByDefault) {
  // With no store attached the machine records nothing: a store attached
  // afterwards sees only the ops issued after it.
  Machine m(test_rig(), ExecutionMode::Numeric);
  m.launch(0, KernelDesc{"k", KernelClass::Blas3, 1000, 0}, {});
  EXPECT_EQ(m.span_store(), nullptr);
  obs::SpanStore spans;
  m.set_span_store(&spans);
  EXPECT_EQ(spans.size(), 0u);
  m.launch(0, KernelDesc{"k2", KernelClass::Blas3, 1000, 0}, {});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.snapshot()[0].name, "k2");
}

TEST(TraceCap, DropsBeyondLimitAndCounts) {
  // KernelDesc names have static storage, so looped names come from a
  // static table rather than a string built per launch.
  static constexpr const char* kNames[] = {"k0", "k1", "k2", "k3", "k4",
                                           "k5", "k6", "k7", "k8", "k9"};
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans(/*limit=*/4);
  m.set_span_store(&spans);
  for (const char* name : kNames) {
    m.launch(0, KernelDesc{name, KernelClass::Blas3, 1000, 0}, {});
  }
  m.sync_all();
  EXPECT_EQ(spans.limit(), 4u);
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.dropped(), 6u);
  // The earliest records are the ones retained.
  const std::vector<obs::Span> kept = spans.snapshot();
  EXPECT_EQ(kept[0].name, "k0");
  EXPECT_EQ(kept[3].name, "k3");
}

TEST(TraceCap, SummaryReportsDroppedRecords) {
  Machine m(test_rig(), ExecutionMode::Numeric);
  obs::SpanStore spans(/*limit=*/2);
  m.set_span_store(&spans);
  for (int i = 0; i < 5; ++i) {
    m.launch(0, KernelDesc{"k", KernelClass::Blas3, 1000, 0}, {});
  }
  m.sync_all();
  std::ostringstream os;
  print_trace_summary(spans, m.makespan(), os);
  const std::string s = os.str();
  EXPECT_NE(s.find("2 ops (3 records dropped at the trace cap of 2)"),
            std::string::npos)
      << s;
}

TEST(TraceCap, NoDropMessageUnderLimit) {
  obs::SpanStore spans;
  const double makespan = traced_run(spans);
  std::ostringstream os;
  print_trace_summary(spans, makespan, os);
  EXPECT_EQ(os.str().find("dropped"), std::string::npos);
}

TEST(ChromeTrace, MergesObsInstantEvents) {
  obs::SpanStore spans;
  traced_run(spans);
  std::vector<obs::Event> events;
  obs::Event v;
  v.kind = obs::EventKind::Verification;
  v.time = 1e-6;
  v.lane = kHostLane;
  v.op = "syrk";
  v.iteration = 3;
  v.pass = false;
  events.push_back(v);
  std::ostringstream os;
  write_chrome_trace(spans, events, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"cat\":\"verification\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("\"pass\":false"), std::string::npos);
  EXPECT_NE(s.find("\"op\":\"syrk\""), std::string::npos);
  // Machine spans still present alongside the instants.
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, ObsKernelEventsAreNotDuplicated) {
  // Kernel/Copy obs events mirror the machine's spans; the merger must
  // render them from the span store only.
  obs::SpanStore spans;
  traced_run(spans);
  std::vector<obs::Event> events;
  obs::Event k;
  k.kind = obs::EventKind::Kernel;
  k.name = "work";
  k.time = 0.0;
  k.end = 1e-3;
  events.push_back(k);
  std::ostringstream os;
  write_chrome_trace(spans, events, os);
  const std::string s = os.str();
  std::size_t hits = 0;
  for (auto p = s.find("\"name\":\"work\""); p != std::string::npos;
       p = s.find("\"name\":\"work\"", p + 1)) {
    ++hits;
  }
  EXPECT_EQ(hits, 1u);
}

TEST(ChromeTrace, FlowNeedsInjectionAndDetection) {
  obs::SpanStore spans;
  traced_run(spans);
  std::vector<obs::Event> events;
  obs::Event inj;
  inj.kind = obs::EventKind::FaultInjected;
  inj.time = 1e-6;
  inj.lane = kHostLane;
  inj.correlation = 0;
  events.push_back(inj);
  // Injection alone: no flow arrows.
  {
    std::ostringstream os;
    write_chrome_trace(spans, events, os);
    EXPECT_EQ(os.str().find("\"ph\":\"s\""), std::string::npos);
  }
  obs::Event det;
  det.kind = obs::EventKind::Detection;
  det.time = 2e-6;
  det.lane = kHostLane;
  det.correlation = 0;
  events.push_back(det);
  {
    std::ostringstream os;
    write_chrome_trace(spans, events, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"f\""), std::string::npos);
  }
}

}  // namespace
}  // namespace ftla::sim
