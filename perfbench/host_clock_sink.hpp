// Host-clock event sink: charges host time to the events the simulator
// and the drivers post.
//
// sim::Machine posts each kernel, copy and host-task event right after
// running its numeric body, so the host interval that ends at an event
// holds that body plus whatever the driver did since the previous
// event. The sink charges every such interval to the kind and name of
// the event that closes it; `layer_of` then folds names into the
// repository's modules (blas, the abft codec, sim copies).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "obs/event_sink.hpp"

namespace perfbench {

/// Host time, closed intervals and modeled flops charged to one (kind,
/// name) pair.
struct Charge {
  std::int64_t ns = 0;
  long long events = 0;
  std::int64_t flops = 0;
};

/// Host layer an event's charge belongs to.
enum class Layer { Blas, Codec, Copy, Other };

/// gemm/syrk/trsm/potf2 -> Blas; recalc, encode, verify*, chk_* ->
/// Codec; h2d*/d2h* -> Copy. Only kernel, host-task and copy events are
/// mapped by name; every other kind (syncs, driver telemetry) is Other.
[[nodiscard]] Layer layer_of(ftla::obs::EventKind kind,
                             const std::string& name);

/// Host time in nanoseconds: the CPU time this process has consumed
/// (CLOCK_PROCESS_CPUTIME_ID). The harness is single-threaded, so this
/// is wall time minus the time the CPU was taken away from it — on a
/// shared virtual machine, steal time that is not the program's cost
/// and that made wall-clock passes of identical work spread by ~10%.
[[nodiscard]] std::int64_t host_now_ns();

class HostClockSink final : public ftla::obs::EventSink {
 public:
  using Clock = std::function<std::int64_t()>;

  /// `clock` returns nanoseconds; tests substitute a scripted clock.
  explicit HostClockSink(Clock clock = host_now_ns);

  /// Starts the next interval now, keeping the charges so far: the
  /// host time since the last event is charged to nobody.
  void mark();

  /// Charges keyed by "<kind>:<name>" (kind as obs::to_string names it).
  [[nodiscard]] std::map<std::string, Charge> charges() const;
  /// Host nanoseconds charged to one layer.
  [[nodiscard]] std::int64_t layer_ns(Layer layer) const;
  /// Charges of the kernel, host-task and copy events with this exact
  /// name, summed over kinds.
  [[nodiscard]] Charge named(const std::string& name) const;

 protected:
  void emit(const ftla::obs::Event& e) override FTLA_REQUIRES(mu_);

 private:
  struct Entry {
    Charge charge;
    Layer layer = Layer::Other;
    bool work = false;  ///< a kernel, host-task or copy event
    std::string name;
  };

  Clock clock_;
  std::int64_t last_ns_ FTLA_GUARDED_BY(mu_) = 0;
  std::map<std::string, Entry> entries_ FTLA_GUARDED_BY(mu_);
};

}  // namespace perfbench
