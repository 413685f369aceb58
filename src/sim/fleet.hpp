// An N-device fleet of simulated CPU+GPU nodes (docs/fleet.md).
//
// Each device is a full sim::Machine — its own memory, streams, SM pool
// and copy engines — advancing its own virtual clock. The devices share
// one host-interconnect ResourceTimeline, so concurrent H2D/D2H
// transfers from different devices contend for link slots exactly like
// kernels contend for SM units. The fleet clock is the reconciliation
// of the per-device clocks: now() is the latest instant any device has
// reached; the service layer advances an idle device's clock before
// placing work on it so causality across devices is preserved.
//
// Device-level faults are armed here (fail-stop at a virtual instant,
// transient stall windows, per-device degradation factors) and
// *discovered* by whoever drives the device: a lost device throws
// DeviceLostError from every entry point, and the scheduler records the
// discovery with mark_lost().
#pragma once

#include <memory>
#include <vector>

#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/timeline.hpp"

namespace ftla::sim {

/// Shape of a homogeneous fleet: `devices` identical machines sharing a
/// host interconnect with `link_capacity` concurrent transfer slots.
struct FleetProfile {
  MachineProfile device;
  int devices = 2;
  /// Concurrent H2D/D2H transfers the shared host link sustains at full
  /// bandwidth; further transfers queue (PCIe-switch / root-complex
  /// contention).
  int link_capacity = 1;
};

enum class DeviceState { Healthy, Degraded, Lost };
const char* to_string(DeviceState s);

class Fleet {
 public:
  Fleet(FleetProfile profile, ExecutionMode mode);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(devices_.size());
  }
  [[nodiscard]] Machine& device(int id);
  [[nodiscard]] const Machine& device(int id) const;
  [[nodiscard]] const FleetProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] bool numeric() const noexcept {
    return mode_ == ExecutionMode::Numeric;
  }

  // ----- device health ----------------------------------------------
  [[nodiscard]] DeviceState state(int id) const;
  /// Devices not (yet) discovered lost.
  [[nodiscard]] int usable_count() const;
  /// Soft-error rate multiplier of a degraded device (1.0 = healthy).
  [[nodiscard]] double degrade_factor(int id) const;

  /// Arms a fail-stop loss on device `id` at virtual instant `at`
  /// (fault-plan side; the scheduler does not see it until the device
  /// throws).
  void arm_loss(int id, double at);
  /// Arms a transient stall window [from, to) on device `id`.
  void arm_stall(int id, double from, double to);
  /// Marks device `id` degraded: its soft-error arrival rate is scaled
  /// by `rate_multiplier` (and the scheduler may deprioritize it).
  void mark_degraded(int id, double rate_multiplier);
  /// Records the scheduler's *discovery* of a device loss (after a
  /// DeviceLostError unwound out of a job).
  void mark_lost(int id);
  [[nodiscard]] int losses_discovered() const noexcept { return losses_; }

  // ----- clocks ------------------------------------------------------
  /// Fleet clock: the latest virtual instant any device has reached.
  [[nodiscard]] double now() const;
  /// Completion time of everything issued fleet-wide.
  [[nodiscard]] double makespan() const;

  [[nodiscard]] ResourceTimeline& link() noexcept { return link_; }
  [[nodiscard]] const ResourceTimeline& link() const noexcept {
    return link_;
  }
  /// Drops link history no future transfer can see: breakpoints at or
  /// before the earliest host clock among devices that are not lost().
  /// Every reservation starts at or after its own device's host clock,
  /// host clocks only move forward, and a lost device throws before it
  /// reserves anything. The service calls this at each placement.
  void prune_link();

 private:
  FleetProfile profile_;
  ExecutionMode mode_;
  ResourceTimeline link_;
  std::vector<std::unique_ptr<Machine>> devices_;
  std::vector<DeviceState> states_;
  std::vector<double> degrade_;
  int losses_ = 0;
};

}  // namespace ftla::sim
