// Tests for the observability layer: event sinks, the metrics registry,
// the JSON report, and the end-to-end property the layer exists for —
// a faulty Numeric-mode Cholesky run whose exported Chrome trace carries
// the injection instant event and the injection->detection flow arrows,
// and whose metrics reconcile exactly with the CholeskyResult counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abft/cholesky.hpp"
#include "abft/telemetry.hpp"
#include "fault/fault.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/trace_export.hpp"
#include "test_util.hpp"

namespace ftla::obs {
namespace {

Event note(const std::string& name) {
  Event e;
  e.kind = EventKind::Note;
  e.name = name;
  return e;
}

// ----------------------------- sinks ----------------------------------

TEST(EventSink, PostStampsMonotonicSequence) {
  RingBufferSink sink(16);
  sink.post(note("a"));
  sink.post(note("b"));
  sink.post(note("c"));
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0);
  EXPECT_EQ(events[1].seq, 1);
  EXPECT_EQ(events[2].seq, 2);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[2].name, "c");
  EXPECT_EQ(sink.posted(), 3);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(EventSink, RingBufferOverwritesOldestWhenFull) {
  RingBufferSink sink(3);
  for (int i = 0; i < 5; ++i) sink.post(note("e" + std::to_string(i)));
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest two were overwritten; survivors are in posting order.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
  EXPECT_EQ(events[0].seq, 2);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.posted(), 5);
}

TEST(EventSink, NullSinkCountsButStoresNothing) {
  NullSink sink;
  sink.post(note("x"));
  sink.post(note("y"));
  EXPECT_EQ(sink.posted(), 2);
}

TEST(EventSink, JsonlConcurrentWritersEmitWholeLines) {
  // The JSONL sink's contract under concurrency: every posted event
  // lands as one complete, balanced line with a unique sequence number
  // — no interleaved fragments. Run under TSan in CI.
  std::ostringstream os;
  JsonlStreamSink sink(os);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&sink, t] {
        for (int i = 0; i < kPerThread; ++i) {
          Event e;
          e.kind = EventKind::Note;
          e.name = "w" + std::to_string(t) + "." + std::to_string(i);
          sink.post(e);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  const std::string s = os.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), kThreads * kPerThread);
  EXPECT_EQ(sink.posted(), kThreads * kPerThread);

  std::istringstream lines(s);
  std::string line;
  std::set<long long> seqs;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
    const std::size_t at = line.find("\"seq\":");
    ASSERT_NE(at, std::string::npos);
    seqs.insert(std::strtoll(line.c_str() + at + 6, nullptr, 10));
  }
  // Sequence numbers are exactly 0..N-1, each on its own line.
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(), kThreads * kPerThread - 1);
}

TEST(EventSink, JsonlEmitsOneObjectPerLine) {
  std::ostringstream os;
  JsonlStreamSink sink(os);
  Event e = note("quote\"and\\slash");
  e.time = 1.5;
  sink.post(e);
  sink.post(note("second"));
  const std::string s = os.str();
  // Two lines, each a balanced JSON object.
  ASSERT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
  EXPECT_EQ(s.find('{'), 0u);
  EXPECT_NE(s.find("\"kind\":\"note\""), std::string::npos);
  EXPECT_NE(s.find("quote\\\"and\\\\slash"), std::string::npos);
  EXPECT_NE(s.find("\"seq\":1"), std::string::npos);
}

// ---------------------------- registry --------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.counter("test.count") += 2;
  reg.add_counter("test.count", 3);
  reg.set_gauge("test.gauge", 1.25);
  reg.histogram("test.h", {1.0, 2.0}).add(1.5);
  EXPECT_EQ(reg.counters().at("test.count"), 5);
  EXPECT_DOUBLE_EQ(reg.gauges().at("test.gauge"), 1.25);
  EXPECT_EQ(reg.histogram("test.h").count(), 1);
  EXPECT_TRUE(reg.has_counter("test.count"));
  EXPECT_FALSE(reg.has_counter("missing"));
}

TEST(MetricsRegistry, MergeAddsCountersAndFoldsHistograms) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("test.merge.n") = 2;
  b.counter("test.merge.n") = 3;
  b.counter("test.merge.only_b") = 7;
  a.set_gauge("test.merge.g", 1.0);
  b.set_gauge("test.merge.g", 9.0);
  a.histogram("test.merge.h", {1.0, 10.0}).add(0.5);
  b.histogram("test.merge.h", {1.0, 10.0}).add(5.0);
  a.merge(b);
  EXPECT_EQ(a.counters().at("test.merge.n"), 5);
  EXPECT_EQ(a.counters().at("test.merge.only_b"), 7);
  EXPECT_DOUBLE_EQ(a.gauges().at("test.merge.g"), 9.0);  // last writer wins
  EXPECT_EQ(a.histogram("test.merge.h").count(), 2);
  EXPECT_DOUBLE_EQ(a.histogram("test.merge.h").max(), 5.0);
}

TEST(MetricsReportJson, SchemaAndSections) {
  MetricsReport report;
  report.add_meta("machine", "test");
  report.add_meta("mode", "numeric");
  report.metrics.counter("test.z_last") = 1;
  report.metrics.counter("test.a_first") = 2;
  report.metrics.set_gauge("test.report_g", 0.5);
  report.metrics.histogram("test.report_h", {1.0}).add(3.0);
  std::ostringstream os;
  write_metrics_json(report, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(s.find("\"machine\":\"test\""), std::string::npos);
  // Counters are emitted in sorted (map) order.
  EXPECT_LT(s.find("test.a_first"), s.find("test.z_last"));
  EXPECT_NE(s.find("\"p50\":"), std::string::npos);
  // Overflow bucket upper bound serialized as "inf".
  EXPECT_NE(s.find("\"le\":\"inf\""), std::string::npos);
  int depth = 0;
  for (char c : s) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// -------------------------- end to end --------------------------------

// Splits a Chrome-trace JSON string into its top-level event objects.
std::vector<std::string> trace_objects(const std::string& json) {
  std::vector<std::string> out;
  const auto start = json.find('[');
  int depth = 0;
  std::size_t obj_begin = 0;
  for (std::size_t i = start; i < json.size(); ++i) {
    if (json[i] == '{') {
      if (depth == 0) obj_begin = i;
      ++depth;
    } else if (json[i] == '}') {
      --depth;
      if (depth == 0) out.push_back(json.substr(obj_begin, i - obj_begin + 1));
    }
  }
  return out;
}

bool has(const std::string& obj, const std::string& needle) {
  return obj.find(needle) != std::string::npos;
}

// Extracts the integer value of `"key":N` from one event object.
long long int_field(const std::string& obj, const std::string& key) {
  const auto pos = obj.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  return std::stoll(obj.substr(pos + key.size() + 3));
}

TEST(ObservabilityEndToEnd, FaultyCholeskyTraceAndMetricsReconcile) {
  using abft::CholeskyOptions;
  using abft::Variant;
  const int n = 96;
  auto profile = sim::test_rig();
  profile.magma_block_size = 16;
  auto a0 = test::random_spd(n, 91);
  auto a = a0;
  sim::Machine m(profile, sim::ExecutionMode::Numeric);
  SpanStore spans;
  m.set_span_store(&spans);

  RingBufferSink sink;
  MetricsRegistry metrics;
  m.set_event_sink(&sink);

  // A storage fault in a decomposed panel block SYRK is about to read
  // (caught by the very next input verification, zero virtual-time
  // latency) plus a computing fault in a GEMM output (caught when a
  // later operation reads the block, strictly positive latency).
  fault::FaultSpec storage;
  storage.type = fault::FaultType::Storage;
  storage.op = fault::Op::Syrk;
  storage.iteration = 2;
  storage.block_row = 2;
  storage.block_col = 1;
  storage.elem_row = 2;
  storage.elem_col = 7;
  storage.bits = {20, 44, 54};
  fault::FaultSpec computing;
  computing.type = fault::FaultType::Computing;
  computing.op = fault::Op::Gemm;
  computing.iteration = 3;
  computing.elem_row = 3;
  computing.elem_col = 5;
  computing.magnitude = 1e6;
  fault::Injector inj({storage, computing});

  CholeskyOptions opt;
  opt.variant = Variant::EnhancedOnline;
  opt.event_sink = &sink;
  opt.metrics = &metrics;
  const auto res = abft::cholesky(m, &a, n, opt, &inj);

  ASSERT_TRUE(res.success) << res.note;
  ASSERT_EQ(inj.fired_count(), 2);
  ASSERT_GE(res.errors_detected, 2);
  EXPECT_GE(res.errors_corrected, 2);
  EXPECT_EQ(res.reruns, 0);

  // (1) Metrics reconcile EXACTLY with the result's Table-I counters.
  const auto& c = metrics.counters();
  EXPECT_EQ(c.at("abft.verify.potf2_blocks"), res.verified.potf2_blocks);
  EXPECT_EQ(c.at("abft.verify.trsm_blocks"), res.verified.trsm_blocks);
  EXPECT_EQ(c.at("abft.verify.syrk_blocks"), res.verified.syrk_blocks);
  EXPECT_EQ(c.at("abft.verify.gemm_blocks"), res.verified.gemm_blocks);
  EXPECT_EQ(c.at("abft.errors_detected"), res.errors_detected);
  EXPECT_EQ(c.at("abft.errors_corrected"), res.errors_corrected);
  EXPECT_EQ(c.at("abft.detections_matched"), 2);

  // (2) The detection-latency histogram is non-empty; the injector's own
  // records agree, and the computing fault's detection happened at a
  // strictly later virtual time than its injection.
  ASSERT_TRUE(metrics.has_histogram(abft::kDetectionLatencyMetric));
  const auto& h = metrics.histogram(abft::kDetectionLatencyMetric);
  ASSERT_GE(h.count(), 2);
  EXPECT_GE(h.min(), 0.0);
  EXPECT_GT(h.max(), 0.0);
  ASSERT_EQ(inj.records().size(), 2u);
  double worst = 0.0;
  for (const auto& r : inj.records()) {
    EXPECT_TRUE(r.detected());
    worst = std::max(worst, r.detection_latency());
  }
  EXPECT_NEAR(h.max(), worst, 1e-12);

  // (3) The exported Chrome trace carries the fault instant event and an
  // injection->detection flow pair sharing the injection id.
  std::ostringstream os;
  sim::write_chrome_trace(spans, sink.events(), os);
  const auto objs = trace_objects(os.str());
  ASSERT_GT(objs.size(), 10u);

  std::vector<long long> injection_ids;
  int detection_instants = 0;
  bool saw_verification = false;
  for (const auto& o : objs) {
    if (has(o, "\"ph\":\"i\"") && has(o, "\"cat\":\"fault_injected\"")) {
      injection_ids.push_back(int_field(o, "injection_id"));
    }
    if (has(o, "\"ph\":\"i\"") && has(o, "\"cat\":\"detection\"")) {
      ++detection_instants;
      EXPECT_TRUE(has(o, "\"pass\":true"));
    }
    if (has(o, "\"cat\":\"verification\"")) saw_verification = true;
  }
  ASSERT_EQ(injection_ids.size(), 2u) << "expected two fault instants";
  EXPECT_EQ(detection_instants, 2);
  EXPECT_TRUE(saw_verification);

  for (long long injection_id : injection_ids) {
    ASSERT_GE(injection_id, 0);
    bool flow_start = false;
    bool flow_end = false;
    for (const auto& o : objs) {
      if (!has(o, "\"cat\":\"fault\"")) continue;
      if (int_field(o, "id") != injection_id) continue;
      if (has(o, "\"ph\":\"s\"")) flow_start = true;
      if (has(o, "\"ph\":\"t\"") || has(o, "\"ph\":\"f\"")) flow_end = true;
    }
    EXPECT_TRUE(flow_start)
        << "missing flow start for injection " << injection_id;
    EXPECT_TRUE(flow_end)
        << "missing flow continuation for injection " << injection_id;
  }

  // (4) The machine's event mirror reached the sink too: kernel spans
  // were posted even though the merger renders them from the trace.
  bool saw_kernel_event = false;
  for (const auto& e : sink.events()) {
    if (e.kind == EventKind::Kernel) saw_kernel_event = true;
  }
  EXPECT_TRUE(saw_kernel_event);
}

TEST(ObservabilityEndToEnd, ObserversDoNotChangeFaultAccounting) {
  // The injector's clock and the matching of dirty verifications to
  // injections are fault accounting, not observation: a run with no
  // observer must compute, detect and stamp exactly what a run with a
  // sink, a metrics registry and a time-series store does.
  struct Run {
    Matrix<double> a;
    abft::CholeskyResult res;
    std::vector<fault::InjectionRecord> records;
  };
  const auto run = [](bool observed) {
    const int n = 96;
    auto profile = sim::test_rig();
    profile.magma_block_size = 16;
    Run out;
    out.a = test::random_spd(n, 91);
    sim::Machine m(profile, sim::ExecutionMode::Numeric);
    fault::FaultSpec storage;
    storage.type = fault::FaultType::Storage;
    storage.op = fault::Op::Syrk;
    storage.iteration = 2;
    storage.block_row = 2;
    storage.block_col = 1;
    storage.elem_row = 2;
    storage.elem_col = 7;
    storage.bits = {20, 44, 54};
    fault::FaultSpec computing;
    computing.type = fault::FaultType::Computing;
    computing.op = fault::Op::Gemm;
    computing.iteration = 3;
    computing.elem_row = 3;
    computing.elem_col = 5;
    computing.magnitude = 1e6;
    fault::Injector inj({storage, computing});
    RingBufferSink sink;
    MetricsRegistry metrics;
    TimeSeriesStore series;
    abft::CholeskyOptions opt;
    opt.variant = abft::Variant::EnhancedOnline;
    if (observed) {
      opt.event_sink = &sink;
      opt.metrics = &metrics;
      opt.timeseries = &series;
    }
    out.res = abft::cholesky(m, &out.a, n, opt, &inj);
    out.records = inj.records();
    return out;
  };
  const Run quiet = run(false);
  const Run watched = run(true);

  ASSERT_TRUE(watched.res.success) << watched.res.note;
  ASSERT_EQ(watched.records.size(), 2u);
  EXPECT_TRUE(quiet.res.success);
  EXPECT_EQ(quiet.res.seconds, watched.res.seconds);
  EXPECT_EQ(quiet.res.errors_detected, watched.res.errors_detected);
  EXPECT_EQ(quiet.res.errors_corrected, watched.res.errors_corrected);
  EXPECT_EQ(quiet.res.checksum_repairs, watched.res.checksum_repairs);
  EXPECT_EQ(quiet.res.reruns, watched.res.reruns);
  EXPECT_EQ(quiet.res.verified.gemm_blocks, watched.res.verified.gemm_blocks);
  for (int j = 0; j < quiet.a.cols(); ++j)
    for (int i = 0; i < quiet.a.rows(); ++i)
      ASSERT_EQ(quiet.a(i, j), watched.a(i, j));

  ASSERT_EQ(quiet.records.size(), watched.records.size());
  for (std::size_t k = 0; k < watched.records.size(); ++k) {
    const fault::InjectionRecord& q = quiet.records[k];
    const fault::InjectionRecord& w = watched.records[k];
    EXPECT_TRUE(w.detected()) << "injection " << k;
    EXPECT_EQ(q.id, w.id);
    EXPECT_EQ(q.global_row, w.global_row);
    EXPECT_EQ(q.global_col, w.global_col);
    EXPECT_EQ(q.old_value, w.old_value);
    EXPECT_EQ(q.new_value, w.new_value);
    EXPECT_EQ(q.inject_time, w.inject_time) << "injection " << k;
    EXPECT_EQ(q.detect_time, w.detect_time) << "injection " << k;
  }
  // The computing fault is injected after t = 0 and caught later.
  EXPECT_GT(quiet.records[1].inject_time, 0.0);
  EXPECT_GT(quiet.records[1].detection_latency(), 0.0);
}

TEST(ObservabilityEndToEnd, CleanRunHasNoDetectionAndNoFlows) {
  const int n = 64;
  auto profile = sim::test_rig();
  profile.magma_block_size = 16;
  auto a = test::random_spd(n, 17);
  sim::Machine m(profile, sim::ExecutionMode::Numeric);
  RingBufferSink sink;
  MetricsRegistry metrics;
  m.set_event_sink(&sink);
  abft::CholeskyOptions opt;
  opt.variant = abft::Variant::EnhancedOnline;
  opt.event_sink = &sink;
  opt.metrics = &metrics;
  const auto res = abft::cholesky(m, &a, n, opt);
  ASSERT_TRUE(res.success);
  EXPECT_FALSE(metrics.has_counter("abft.errors_detected"));
  EXPECT_FALSE(metrics.has_histogram(abft::kDetectionLatencyMetric));
  EXPECT_EQ(metrics.counters().at("abft.verify.gemm_blocks"),
            res.verified.gemm_blocks);
  std::ostringstream os;
  sim::write_chrome_trace(SpanStore{}, sink.events(), os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("\"cat\":\"fault\","), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"verification\""), std::string::npos);
}

}  // namespace
}  // namespace ftla::obs
