// Tests for the time-series telemetry layer: windowed rollup math,
// the determinism contract (byte-identical JSON across repeats and
// thread counts), JSON round-trips, and the end-to-end feed from a
// simulated run (machine occupancy + telemetry counters).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abft/cholesky.hpp"
#include "common/spd.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "obs/timeseries.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/profiler.hpp"
#include "sim/trace_export.hpp"

namespace ftla::obs {
namespace {

// ------------------------------ store ---------------------------------

TEST(TimeSeriesStore, CounterAccumulatesRunningTotal) {
  TimeSeriesStore store;
  store.sample_counter("timeseries.test.count", 0.0, 1.0);
  store.sample_counter("timeseries.test.count", 1.0, 2.0);
  store.sample_counter("timeseries.test.count", 2.0, -1.0);
  const auto snap = store.snapshot();
  const auto& s = snap.at("timeseries.test.count");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0].value, 1.0);
  EXPECT_DOUBLE_EQ(s[1].value, 3.0);
  EXPECT_DOUBLE_EQ(s[2].value, 2.0);
}

TEST(TimeSeriesStore, GaugeRecordsPointReadings) {
  TimeSeriesStore store;
  store.sample_gauge("timeseries.test.g", 0.5, 7.0);
  store.sample_gauge("timeseries.test.g", 1.5, 3.0);
  const auto snap = store.snapshot();
  const auto& s = snap.at("timeseries.test.g");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].value, 7.0);
  EXPECT_DOUBLE_EQ(s[1].value, 3.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 0u);
}

TEST(TimeSeriesStore, CapDropsSamplesButKeepsCounting) {
  TimeSeriesStore store(2);
  store.sample_gauge("timeseries.test.g", 0.0, 1.0);
  store.sample_gauge("timeseries.test.g", 1.0, 2.0);
  store.sample_gauge("timeseries.test.g", 2.0, 3.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped(), 1u);
}

// ------------------------------ rollup --------------------------------

TEST(TimeSeriesRollupMath, WindowStatsAreExact) {
  TimeSeriesStore store;
  // Window [0, 10): 1, 3, 5.  Window [10, 20): 10.  Window [20, 30)
  // empty — must not appear.  Window [30, 40): 2.
  store.sample_gauge("timeseries.test.g", 0.0, 1.0);
  store.sample_gauge("timeseries.test.g", 4.0, 3.0);
  store.sample_gauge("timeseries.test.g", 9.9, 5.0);
  store.sample_gauge("timeseries.test.g", 10.0, 10.0);
  store.sample_gauge("timeseries.test.g", 30.0, 2.0);
  const TimeSeriesReport rep = build_timeseries_report(store, 10.0);
  const auto& roll = rep.series.at("timeseries.test.g");
  EXPECT_EQ(roll.samples, 5);
  ASSERT_EQ(roll.windows.size(), 3u);
  const TimeSeriesWindow& w0 = roll.windows[0];
  EXPECT_DOUBLE_EQ(w0.start, 0.0);
  EXPECT_DOUBLE_EQ(w0.end, 10.0);
  EXPECT_EQ(w0.samples, 3);
  EXPECT_DOUBLE_EQ(w0.min, 1.0);
  EXPECT_DOUBLE_EQ(w0.max, 5.0);
  EXPECT_DOUBLE_EQ(w0.mean, 3.0);
  EXPECT_DOUBLE_EQ(w0.p50, 3.0);  // nearest rank: ceil(.5*3)=2 -> 3.0
  EXPECT_DOUBLE_EQ(w0.p99, 5.0);  // ceil(.99*3)=3 -> 5.0
  EXPECT_DOUBLE_EQ(roll.windows[1].start, 10.0);
  EXPECT_EQ(roll.windows[1].samples, 1);
  EXPECT_DOUBLE_EQ(roll.windows[2].start, 30.0);
  EXPECT_DOUBLE_EQ(roll.windows[2].p50, 2.0);
}

TEST(TimeSeriesRollupMath, NonPositiveWindowCollapsesToOne) {
  TimeSeriesStore store;
  store.sample_gauge("timeseries.test.g", 1.0, 4.0);
  store.sample_gauge("timeseries.test.g", 99.0, 8.0);
  const TimeSeriesReport rep = build_timeseries_report(store, 0.0);
  const auto& roll = rep.series.at("timeseries.test.g");
  ASSERT_EQ(roll.windows.size(), 1u);
  EXPECT_EQ(roll.windows[0].samples, 2);
  EXPECT_DOUBLE_EQ(roll.windows[0].mean, 6.0);
}

TEST(TimeSeriesRollupMath, RollupIgnoresRecordingOrder) {
  // The determinism contract: a permuted recording order (what a
  // thread-pool race produces) must roll up to the same report.
  TimeSeriesStore fwd;
  TimeSeriesStore rev;
  const std::vector<TimeSeriesSample> samples = {
      {0.5, 2.0}, {1.5, 8.0}, {2.5, 1.0}, {3.5, 5.0}};
  for (const auto& s : samples) {
    fwd.sample_gauge("timeseries.test.g", s.time, s.value);
  }
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    rev.sample_gauge("timeseries.test.g", it->time, it->value);
  }
  std::ostringstream a;
  std::ostringstream b;
  write_timeseries_json(build_timeseries_report(fwd, 2.0), a);
  write_timeseries_json(build_timeseries_report(rev, 2.0), b);
  EXPECT_EQ(a.str(), b.str());
}

// ----------------------------- round-trip -----------------------------

TEST(TimeSeriesJson, RoundTripPreservesEverything) {
  TimeSeriesStore store;
  store.sample_counter("timeseries.test.count", 0.25, 1.0);
  store.sample_counter("timeseries.test.count", 1.75, 4.0);
  store.sample_gauge("timeseries.test.g", 0.5, -3.5);
  TimeSeriesReport rep = build_timeseries_report(store, 1.0);
  rep.meta["algo"] = "cholesky";
  rep.meta["n"] = "64";

  std::ostringstream os;
  write_timeseries_json(rep, os);
  std::istringstream is(os.str());
  TimeSeriesReport back;
  ASSERT_TRUE(read_timeseries_json(is, &back));

  std::ostringstream os2;
  write_timeseries_json(back, os2);
  EXPECT_EQ(os.str(), os2.str());
  EXPECT_EQ(back.meta.at("algo"), "cholesky");
  EXPECT_EQ(back.series.size(), 2u);
}

TEST(TimeSeriesJson, RejectsWrongSchemaVersion) {
  std::istringstream is(
      R"({"meta":{},"samples_dropped":0,"samples_recorded":0,"series":{},)"
      R"("timeseries_version":2,"window_seconds":1})");
  TimeSeriesReport out;
  EXPECT_FALSE(read_timeseries_json(is, &out));
}

// --------------------------- end-to-end feed --------------------------

std::string run_and_export(int threads) {
  common::set_global_threads(threads);
  sim::Machine machine(sim::test_rig(), sim::ExecutionMode::Numeric);
  SpanStore spans;
  machine.set_span_store(&spans);
  TimeSeriesStore store;

  Matrix<double> a(64, 64);
  make_spd_diag_dominant(a, 42);
  abft::CholeskyOptions opt;
  opt.variant = abft::Variant::EnhancedOnline;
  opt.timeseries = &store;
  std::vector<fault::FaultSpec> plan = fault::random_plan(2, 8, 7);
  fault::Injector injector(std::move(plan));
  const auto res = abft::cholesky(machine, &a, 64, opt, &injector);
  EXPECT_TRUE(res.success);

  sim::append_machine_timeseries(spans, machine.makespan(), &store);
  TimeSeriesReport rep =
      build_timeseries_report(store, machine.makespan() / 10.0);
  std::ostringstream os;
  write_timeseries_json(rep, os);
  return os.str();
}

TEST(TimeSeriesEndToEnd, MachineAndTelemetryFeedIsByteStable) {
  const std::string serial = run_and_export(1);
  const std::string again = run_and_export(1);
  const std::string parallel = run_and_export(4);
  common::set_global_threads(1);
  EXPECT_EQ(serial, again);
  EXPECT_EQ(serial, parallel);

  std::istringstream is(serial);
  TimeSeriesReport rep;
  ASSERT_TRUE(read_timeseries_json(is, &rep));
  // The canonical series from both producers are present and non-empty.
  EXPECT_GT(rep.series.at("timeseries.sim.sm_units_in_use").samples, 0);
  EXPECT_GT(rep.series.at("timeseries.abft.verified_blocks").samples, 0);
  EXPECT_GT(rep.series.at("timeseries.abft.errors_detected").samples, 0);
}

TEST(TimeSeriesEndToEnd, ChromeCounterTracksMatchMachineSeries) {
  // The Chrome counter tracks and the timeseries.sim.* series read one
  // derivation: every counter event of a traced tardis DAG run equals
  // the matching sample, and each series adds only its closing sample
  // at the makespan.
  sim::Machine machine(sim::tardis(), sim::ExecutionMode::TimingOnly);
  SpanStore spans;
  machine.set_span_store(&spans);
  abft::CholeskyOptions opt;
  opt.runtime = abft::RuntimeMode::Dag;
  opt.placement = abft::UpdatePlacement::Gpu;
  const auto res = abft::cholesky(machine, nullptr, 2048, opt);
  ASSERT_TRUE(res.success) << res.note;

  std::ostringstream chrome;
  sim::write_chrome_trace(spans, {}, chrome);
  TimeSeriesStore store;
  sim::append_machine_timeseries(spans, machine.makespan(), &store);
  const auto series = store.snapshot();

  // Counter events read {"name":N,"ph":"C","pid":1,"ts":T,"args":{K:L}}.
  std::map<std::string, std::vector<std::pair<std::string, long long>>>
      tracks;
  const std::string text = chrome.str();
  const std::string marker = "\",\"ph\":\"C\",\"pid\":1,\"ts\":";
  for (auto p = text.find(marker); p != std::string::npos;
       p = text.find(marker, p + 1)) {
    const auto name = text.rfind("{\"name\":\"", p) + 9;
    const auto ts = p + marker.size();
    const auto ts_end = text.find(',', ts);
    const auto close = text.find("}}", ts_end);
    const auto colon = text.rfind(':', close);
    tracks[text.substr(name, p - name)].emplace_back(
        text.substr(ts, ts_end - ts),
        std::stoll(text.substr(colon + 1, close - colon - 1)));
  }
  const std::pair<const char*, const char*> pairs[] = {
      {"sm_units_in_use", "timeseries.sim.sm_units_in_use"},
      {"h2d_engine_busy", "timeseries.sim.h2d_copies_in_flight"},
      {"d2h_engine_busy", "timeseries.sim.d2h_copies_in_flight"},
      {"outstanding_verifications",
       "timeseries.sim.outstanding_verifications"}};
  ASSERT_EQ(tracks.size(), 4u);
  for (const auto& [track_name, series_name] : pairs) {
    SCOPED_TRACE(track_name);
    const auto& track = tracks.at(track_name);
    const auto& samples = series.at(series_name);
    ASSERT_FALSE(track.empty());
    ASSERT_GE(samples.size(), track.size());
    ASSERT_LE(samples.size(), track.size() + 1);
    for (std::size_t i = 0; i < track.size(); ++i) {
      std::ostringstream ts;
      ts << samples[i].time * 1e6;
      EXPECT_EQ(ts.str(), track[i].first) << "event " << i;
      EXPECT_EQ(static_cast<long long>(samples[i].value), track[i].second)
          << "event " << i;
    }
    if (samples.size() > track.size()) {
      EXPECT_EQ(samples.back().time, machine.makespan());
      EXPECT_EQ(static_cast<long long>(samples.back().value),
                track.back().second);
    }
  }
}

}  // namespace
}  // namespace ftla::obs
