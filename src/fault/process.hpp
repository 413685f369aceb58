// Rate-based stochastic fault process (campaign engine substrate).
//
// The planned Injector fires faults at fixed program points; real
// machines fail at random *times*. FaultProcess models that: arrivals
// follow a Poisson process with mean inter-arrival time `mtbf_s` in
// virtual seconds, each arrival is typed (computing / storage /
// transfer) at sample time, and an arrival is consumed at the first
// matching injection hook polled after its arrival time. The machine's
// virtual clock drives the process, so runs are deterministic for a
// given seed — faster simulated executions see fewer faults, exactly
// like real MTBF scaling.
//
// Synthesis policy (what a consumed arrival becomes):
//   * Computing arrivals corrupt the polled op's freshly written output
//     (random element, magnitude 1e3..1e5 relative).
//   * Storage arrivals strike a resident block of the live region —
//     block row at or below the current panel, block column at or
//     before it — occasionally the block's checksum rows (15%) or a
//     correlated pair of flips in one block column (10% of data
//     strikes; defeats single-error correction). Bit
//     patterns always include a high-mantissa/exponent bit so the
//     corruption is macroscopic, and are drawn from bits 8..61 so a
//     flip can never manufacture an Inf/NaN from a finite value.
//   * Transfer arrivals are handed to sim::Machine's transfer hook,
//     which knows the in-flight copy's shape (see fault.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"

namespace ftla::fault {

struct ProcessConfig {
  /// Mean time between faults, in virtual seconds. Must be > 0.
  double mtbf_s = 1.0e-3;
  std::uint64_t seed = 1;
  /// Hard cap on arrivals *per device* — bounds fault storms so the
  /// rerun escalation ladder terminates. The cap is deliberately not
  /// fleet-global: one noisy device exhausting a shared budget would
  /// starve injection on its healthy siblings and silently weaken
  /// fleet campaigns.
  int max_arrivals = 64;
  /// When true, synthesized storage specs carry explicit block targets
  /// using blocked-Cholesky lower-triangle geometry. When false they
  /// leave block_row/block_col at -1 and the polling driver's own
  /// default-target logic picks the block (LU/QR geometry).
  bool explicit_blocks = true;
  /// Devices this process covers. Each device gets an independent
  /// arrival stream (own rng, own clock, own storm cap); device 0's
  /// stream is seeded with `seed` exactly like the single-device
  /// process, so single-node runs are unchanged.
  int devices = 1;
};

/// Poisson arrival generator + arrival-to-FaultSpec synthesizer.
/// Deterministic for a given (config.seed, sequence of drain times).
/// With config.devices > 1 the process keeps one independent arrival
/// stream per device; drains apply to the *active* device (the one the
/// caller is currently driving), selected with set_active_device().
class FaultProcess {
 public:
  FaultProcess(ProcessConfig cfg, int nblocks);

  /// Consumes and counts the active device's arrivals of `type` due at
  /// or before virtual time `now`. Arrivals of other types stay pending
  /// for their own hooks. Monotonically increasing `now` is expected
  /// but not required; a stale `now` simply drains nothing new.
  int drain(FaultType type, double now);

  /// Turns one consumed arrival into concrete fault spec(s) at the
  /// given program point (two specs for a correlated double fault).
  std::vector<FaultSpec> synthesize(FaultType type, Op op, int iteration);

  /// Picks the multi-bit (or, one time in ten, single-bit) flip
  /// pattern used for storage and transfer corruption.
  std::vector<int> sample_bits();

  /// Routes subsequent drains to `device`'s arrival stream.
  void set_active_device(int device);
  [[nodiscard]] int active_device() const noexcept { return active_; }

  /// Scales `device`'s soft-error arrival rate (degraded hardware:
  /// multiplier > 1 means faults arrive that much faster). Applies to
  /// arrivals not yet generated; deterministic when set before the
  /// device's first drain.
  void set_rate_multiplier(int device, double multiplier);

  /// Arrivals generated across all devices.
  [[nodiscard]] int arrivals_generated() const noexcept;
  /// Arrivals generated on one device's stream.
  [[nodiscard]] int arrivals_generated(int device) const;
  [[nodiscard]] const ProcessConfig& config() const noexcept { return cfg_; }

 private:
  struct DeviceStream {
    explicit DeviceStream(std::uint64_t seed) : rng(seed) {}
    Rng rng;  // arrival times + categories
    double next_time = 0.0;
    double rate_multiplier = 1.0;
    int generated = 0;
    // Pending (arrived, not yet consumed) counts per category.
    int pending[3] = {0, 0, 0};
  };

  void generate_until(DeviceStream& ds, double now);
  [[nodiscard]] DeviceStream& active_stream();

  ProcessConfig cfg_;
  int nblocks_;
  std::vector<DeviceStream> dev_;
  int active_ = 0;
  Rng synth_rng_;  // targets, elements, bits (shared; drains are ordered)
};

}  // namespace ftla::fault
