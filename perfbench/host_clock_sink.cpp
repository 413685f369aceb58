#include "host_clock_sink.hpp"

#include <ctime>
#include <stdexcept>
#include <utility>

namespace perfbench {

using ftla::obs::EventKind;

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_work(EventKind kind) {
  return kind == EventKind::Kernel || kind == EventKind::HostTask ||
         kind == EventKind::Copy;
}

}  // namespace

Layer layer_of(EventKind kind, const std::string& name) {
  if (!is_work(kind)) return Layer::Other;
  if (name == "gemm" || name == "syrk" || name == "trsm" || name == "potf2") {
    return Layer::Blas;
  }
  if (name == "recalc" || name == "encode" || starts_with(name, "verify") ||
      starts_with(name, "chk_")) {
    return Layer::Codec;
  }
  if (starts_with(name, "h2d") || starts_with(name, "d2h")) return Layer::Copy;
  return Layer::Other;
}

std::int64_t host_now_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

HostClockSink::HostClockSink(Clock clock) : clock_(std::move(clock)) {
  mark();
}

void HostClockSink::mark() {
  ftla::common::MutexLock lk(mu_);
  last_ns_ = clock_();
}

void HostClockSink::emit(const ftla::obs::Event& e) {
  const std::int64_t now = clock_();
  Entry& entry = entries_[std::string(ftla::obs::to_string(e.kind)) + ":" +
                          e.name];
  if (entry.charge.events == 0) {
    entry.layer = layer_of(e.kind, e.name);
    entry.work = is_work(e.kind);
    entry.name = e.name;
  }
  entry.charge.ns += now - last_ns_;
  entry.charge.events += 1;
  entry.charge.flops += e.flops;
  last_ns_ = now;
}

std::map<std::string, Charge> HostClockSink::charges() const {
  ftla::common::MutexLock lk(mu_);
  std::map<std::string, Charge> out;
  for (const auto& [key, entry] : entries_) out[key] = entry.charge;
  return out;
}

std::int64_t HostClockSink::layer_ns(Layer layer) const {
  ftla::common::MutexLock lk(mu_);
  std::int64_t ns = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.layer == layer) ns += entry.charge.ns;
  }
  return ns;
}

Charge HostClockSink::named(const std::string& name) const {
  ftla::common::MutexLock lk(mu_);
  Charge sum;
  for (const auto& [key, entry] : entries_) {
    if (!entry.work || entry.name != name) continue;
    sum.ns += entry.charge.ns;
    sum.events += entry.charge.events;
    sum.flops += entry.charge.flops;
  }
  return sum;
}

}  // namespace perfbench
