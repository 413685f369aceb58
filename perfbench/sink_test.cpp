// Checks that HostClockSink charges each host interval to the event that
// closes it, using a scripted clock with known gaps.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "host_clock_sink.hpp"

namespace {

using ftla::obs::Event;
using ftla::obs::EventKind;
using perfbench::HostClockSink;
using perfbench::Layer;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failures;
  }
}

Event event(EventKind kind, const char* name, long long flops = 0) {
  Event e;
  e.kind = kind;
  e.name = name;
  e.flops = flops;
  return e;
}

}  // namespace

int main() {
  // Clock readings in call order: construction, then one per event, one
  // for mark(), and the events after it.
  const std::vector<std::int64_t> ticks = {100, 110, 125, 126, 140,
                                           150, 1000, 1004, 1010};
  std::size_t next = 0;
  HostClockSink sink([&] { return ticks.at(next++); });

  sink.post(event(EventKind::Kernel, "gemm", 1000));   // 110 - 100 = 10
  sink.post(event(EventKind::Copy, "h2d_2d"));          // 125 - 110 = 15
  sink.post(event(EventKind::Sync, "sync_all"));        // 126 - 125 = 1
  sink.post(event(EventKind::Kernel, "gemm", 500));     // 140 - 126 = 14
  sink.post(event(EventKind::HostTask, "verify_host")); // 150 - 140 = 10
  sink.mark();                                          // gap 150..1000 dropped
  sink.post(event(EventKind::Kernel, "recalc"));        // 1004 - 1000 = 4
  sink.post(event(EventKind::Verification, "verify"));  // 1010 - 1004 = 6

  const auto charges = sink.charges();
  expect(charges.at("kernel:gemm").ns == 24, "gemm charged 24 ns");
  expect(charges.at("kernel:gemm").events == 2, "gemm closed 2 intervals");
  expect(charges.at("kernel:gemm").flops == 1500, "gemm flops summed");
  expect(charges.at("copy:h2d_2d").ns == 15, "copy charged 15 ns");
  expect(charges.at("sync:sync_all").ns == 1, "sync charged 1 ns");
  expect(sink.layer_ns(Layer::Blas) == 24, "blas layer 24 ns");
  expect(sink.layer_ns(Layer::Codec) == 14, "codec layer: verify_host+recalc");
  expect(sink.layer_ns(Layer::Copy) == 15, "copy layer 15 ns");
  expect(sink.layer_ns(Layer::Other) == 7,
         "sync and telemetry events are Other, not codec");
  expect(sink.named("verify").ns == 0,
         "a telemetry event named verify is not codec work");
  expect(sink.posted() == 7, "seven events posted");

  expect(perfbench::layer_of(EventKind::Kernel, "chk_gemm_cpu") == Layer::Codec,
         "chk_* is codec");
  expect(perfbench::layer_of(EventKind::HostTask, "verify_arrival") ==
             Layer::Codec,
         "verify_arrival is codec");
  expect(perfbench::layer_of(EventKind::Copy, "d2h") == Layer::Copy,
         "d2h is a copy");
  expect(perfbench::layer_of(EventKind::HostTask, "potf2") == Layer::Blas,
         "potf2 is blas");
  expect(perfbench::layer_of(EventKind::HostTask, "ckpt_chk_host") ==
             Layer::Other,
         "checkpoint checksums are not the codec");

  if (failures == 0) std::printf("sink_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
