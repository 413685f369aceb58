// Tests for the causal-tracing layer (obs/trace.hpp): deterministic id
// derivation, byte-stable serialization, cross-device reassembly,
// filtering, waterfall rendering, and the structural diff that gates CI
// (docs/observability.md, "Causal tracing & SLOs").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace ftla {
namespace {

using obs::SpanId;
using obs::TraceId;
using obs::TraceReport;
using obs::TraceSpan;
using obs::TraceStore;

TraceSpan span(TraceId trace, SpanId id, SpanId parent, const char* name,
               const char* kind, int device, double start, double end,
               const char* status = "ok") {
  TraceSpan s;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_span = parent;
  s.name = name;
  s.kind = kind;
  s.device = device;
  s.tenant = "alpha";
  s.start = start;
  s.end = end;
  s.status = status;
  return s;
}

/// A two-attempt migrated job recorded across two devices: the shape
/// the fleet service emits (job → attempt/loss on device 0, migrate,
/// attempt/driver on device 1).
std::vector<TraceSpan> migrated_job(TraceId trace, double shift = 0.0) {
  const SpanId root = trace;
  const SpanId a1 = obs::derive_span_id(root, 16);
  const SpanId a2 = obs::derive_span_id(root, 17);
  const SpanId mig = obs::derive_span_id(root, 8192);
  const SpanId drv = obs::derive_span_id(a2, obs::kTraceDriverChild);
  return {
      span(trace, root, 0, "job", "job", -1, shift, shift + 10.0),
      span(trace, a1, root, "attempt", "attempt", 0, shift, shift + 4.0,
           "loss"),
      span(trace, mig, root, "migrate", "migrate", -1, shift + 4.0,
           shift + 5.0),
      span(trace, a2, root, "attempt", "attempt", 1, shift + 5.0,
           shift + 10.0),
      span(trace, drv, a2, "factorize", "driver", 1, shift + 6.0,
           shift + 9.0),
  };
}

TEST(TraceIds, DerivedIdsAreStableNonzeroAndDistinct) {
  const TraceId t = obs::derive_trace_id(42, 7);
  EXPECT_EQ(t, obs::derive_trace_id(42, 7));
  EXPECT_NE(t, 0u);
  EXPECT_NE(t, obs::derive_trace_id(42, 8));
  EXPECT_NE(t, obs::derive_trace_id(43, 7));

  const SpanId s = obs::derive_span_id(t, 1);
  EXPECT_EQ(s, obs::derive_span_id(t, 1));
  EXPECT_NE(s, 0u);
  EXPECT_NE(s, obs::derive_span_id(t, 2));
  // Child-index namespaces (attempt slots vs checkpoint vs task bases)
  // must not collide on a realistic id.
  EXPECT_NE(obs::derive_span_id(t, 16),
            obs::derive_span_id(t, obs::kTraceCheckpointChildBase + 16));
}

TEST(TraceIds, FormatParseRoundTrip) {
  const TraceId t = obs::derive_trace_id(1, 0);
  const std::string hex = obs::format_trace_id(t);
  EXPECT_EQ(hex.size(), 16u);
  TraceId back = 0;
  ASSERT_TRUE(obs::parse_trace_id(hex, &back));
  EXPECT_EQ(back, t);
  EXPECT_FALSE(obs::parse_trace_id("xyz", &back));
  EXPECT_FALSE(obs::parse_trace_id("0123", &back));
}

TEST(TraceContext, ChildKeepsTraceAndDerivesParent) {
  obs::TraceContext ctx;
  EXPECT_FALSE(ctx.valid());
  ctx.trace_id = obs::derive_trace_id(9, 9);
  ctx.span_id = ctx.trace_id;
  ctx.device = 2;
  ctx.tenant = "beta";
  EXPECT_TRUE(ctx.valid());
  const obs::TraceContext child = ctx.child(3);
  EXPECT_EQ(child.trace_id, ctx.trace_id);
  EXPECT_EQ(child.device, 2);
  EXPECT_EQ(child.tenant, "beta");
  EXPECT_EQ(child.span_id, obs::derive_span_id(ctx.span_id, 3));
}

TEST(TraceStore, BoundedWithDroppedCount) {
  TraceStore store(2);
  const TraceId t = obs::derive_trace_id(1, 1);
  store.record(span(t, t, 0, "a", "job", -1, 0.0, 1.0));
  store.record(span(t, obs::derive_span_id(t, 1), t, "b", "marker", -1,
                    0.0, 0.0));
  store.record(span(t, obs::derive_span_id(t, 2), t, "c", "marker", -1,
                    1.0, 1.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1u);
  const TraceReport report = TraceReport::build(store);
  EXPECT_EQ(report.spans.size(), 2u);
  EXPECT_EQ(report.dropped, 2 + 1 - 2);
}

TEST(TraceReport, ByteStableAcrossRecordingOrder) {
  const TraceId t1 = obs::derive_trace_id(5, 0);
  const TraceId t2 = obs::derive_trace_id(5, 1);
  std::vector<TraceSpan> spans = migrated_job(t1);
  const std::vector<TraceSpan> more = migrated_job(t2);
  spans.insert(spans.end(), more.begin(), more.end());

  TraceStore forward;
  forward.append(spans);
  std::reverse(spans.begin(), spans.end());
  TraceStore backward;
  backward.append(spans);

  const std::string a = TraceReport::build(forward).to_string();
  const std::string b = TraceReport::build(backward).to_string();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"trace_version\":1"), std::string::npos);
}

TEST(TraceReport, RoundTripsThroughJson) {
  TraceStore store;
  store.append(migrated_job(obs::derive_trace_id(3, 3)));
  const TraceReport report = TraceReport::build(store);
  const std::string text = report.to_string();

  TraceReport back;
  std::string err;
  ASSERT_TRUE(TraceReport::read(text, &back, &err)) << err;
  EXPECT_EQ(back.to_string(), text);
  ASSERT_EQ(back.spans.size(), report.spans.size());
  EXPECT_EQ(back.spans[0].name, report.spans[0].name);
  EXPECT_EQ(back.spans[0].span_id, report.spans[0].span_id);
  EXPECT_EQ(back.spans[0].device, report.spans[0].device);
  EXPECT_EQ(back.spans[0].tenant, report.spans[0].tenant);
}

TEST(TraceAssembly, RebuildsCrossDeviceParentage) {
  const TraceId t = obs::derive_trace_id(11, 0);
  TraceStore store;
  store.append(migrated_job(t));
  const TraceReport report = TraceReport::build(store);
  const auto trees = obs::assemble_traces(report);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].trace_id, t);
  EXPECT_EQ(trees[0].missing_parents, 0);
  ASSERT_EQ(trees[0].roots.size(), 1u);
  const obs::TraceNode& job = trees[0].roots[0];
  EXPECT_EQ(job.span->name, "job");
  // attempt(dev0) → migrate → attempt(dev1), in causal order.
  ASSERT_EQ(job.children.size(), 3u);
  EXPECT_EQ(job.children[0].span->device, 0);
  EXPECT_EQ(job.children[1].span->name, "migrate");
  EXPECT_EQ(job.children[2].span->device, 1);
  ASSERT_EQ(job.children[2].children.size(), 1u);
  EXPECT_EQ(job.children[2].children[0].span->kind, "driver");
}

TEST(TraceAssembly, MissingParentSurfacesAsExtraRoot) {
  const TraceId t = obs::derive_trace_id(12, 0);
  TraceStore store;
  store.record(span(t, t, 0, "job", "job", -1, 0.0, 1.0));
  // Parented to a span id that never got recorded (e.g. the store
  // dropped it at capacity): must stay visible, not vanish.
  store.record(span(t, obs::derive_span_id(t, 99), 0xdeadbeefULL,
                    "orphan", "task", 1, 0.5, 0.6));
  const TraceReport report = TraceReport::build(store);
  const auto trees = obs::assemble_traces(report);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].missing_parents, 1);
  ASSERT_EQ(trees[0].roots.size(), 2u);
  EXPECT_EQ(trees[0].roots[1].span->name, "orphan");
}

TEST(TraceFilter, ByTraceTenantAndDevice) {
  const TraceId t1 = obs::derive_trace_id(7, 0);
  const TraceId t2 = obs::derive_trace_id(7, 1);
  TraceStore store;
  store.append(migrated_job(t1));
  std::vector<TraceSpan> other = migrated_job(t2);
  for (auto& s : other) s.tenant = "beta";
  store.append(other);
  const TraceReport report = TraceReport::build(store);

  obs::TraceFilter by_trace;
  by_trace.trace_id = t1;
  EXPECT_EQ(obs::filter_trace(report, by_trace).spans.size(), 5u);

  obs::TraceFilter by_tenant;
  by_tenant.tenant = "beta";
  const TraceReport betas = obs::filter_trace(report, by_tenant);
  EXPECT_EQ(betas.spans.size(), 5u);
  for (const auto& s : betas.spans) EXPECT_EQ(s.tenant, "beta");

  obs::TraceFilter by_device;
  by_device.device = 1;
  const TraceReport dev1 = obs::filter_trace(report, by_device);
  EXPECT_EQ(dev1.spans.size(), 4u);  // attempt + driver per trace
  for (const auto& s : dev1.spans) EXPECT_EQ(s.device, 1);
}

TEST(TraceWaterfall, DeterministicAndShowsTheCausalChain) {
  TraceStore store;
  store.append(migrated_job(obs::derive_trace_id(2, 0)));
  const TraceReport report = TraceReport::build(store);
  const std::string a = obs::render_waterfall(report);
  EXPECT_EQ(a, obs::render_waterfall(report));
  EXPECT_NE(a.find("job"), std::string::npos);
  EXPECT_NE(a.find("migrate"), std::string::npos);
  EXPECT_NE(a.find("factorize"), std::string::npos);
  EXPECT_NE(a.find("loss"), std::string::npos);
}

TEST(TraceDiff, TimeShiftedRunsCompareEqual) {
  const TraceId t = obs::derive_trace_id(4, 0);
  TraceStore a;
  a.append(migrated_job(t));
  TraceStore b;
  b.append(migrated_job(t, /*shift=*/123.0));
  const auto diff =
      obs::diff_traces(TraceReport::build(a), TraceReport::build(b));
  EXPECT_TRUE(diff.identical()) << diff.differences.front();
}

TEST(TraceDiff, StructuralPerturbationsAreRejected) {
  const TraceId t = obs::derive_trace_id(4, 1);
  TraceStore base;
  base.append(migrated_job(t));
  const TraceReport ra = TraceReport::build(base);

  // Different device on the final attempt.
  std::vector<TraceSpan> moved = migrated_job(t);
  moved[3].device = 2;
  TraceStore bs;
  bs.append(moved);
  EXPECT_FALSE(obs::diff_traces(ra, TraceReport::build(bs)).identical());

  // Dropped child span.
  std::vector<TraceSpan> shorter = migrated_job(t);
  shorter.pop_back();
  TraceStore cs;
  cs.append(shorter);
  EXPECT_FALSE(obs::diff_traces(ra, TraceReport::build(cs)).identical());

  // A whole trace only present on one side.
  TraceStore ds;
  ds.append(migrated_job(t));
  ds.append(migrated_job(obs::derive_trace_id(4, 2)));
  const auto diff = obs::diff_traces(ra, TraceReport::build(ds));
  EXPECT_FALSE(diff.identical());
  EXPECT_NE(diff.differences.front().find("only in"), std::string::npos);
}

}  // namespace
}  // namespace ftla
