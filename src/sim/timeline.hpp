// Capacity timeline: the discrete-event allocator behind the simulated
// GPU's SM pool.
//
// A ResourceTimeline models a resource with integer capacity C. Each
// allocation requests `units <= C` for a duration and an earliest start;
// the allocator returns the earliest start time at which the request fits
// without ever exceeding capacity (space-sharing, no preemption, no
// slowdown under contention — contention delays starts instead, which is
// how SMs behave for co-resident kernels).
//
// Representation: a map from breakpoint time to the absolute usage on
// [time, next breakpoint); every allocation start and end is a
// breakpoint. allocate() reads the usage at its earliest start with one
// lookup, so it costs O(log B + k) for B breakpoints and k of them
// inside the scanned window, however far the queued future reaches;
// usage_at() costs O(log B). See docs/simulator.md.
#pragma once

#include <cstddef>
#include <map>

#include "common/error.hpp"

namespace ftla::sim {

class ResourceTimeline {
 public:
  explicit ResourceTimeline(int capacity) : capacity_(capacity) {
    FTLA_CHECK(capacity > 0);
  }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }

  /// Reserves `units` for [start, start + duration) where start is the
  /// earliest feasible time >= earliest. Returns start.
  double allocate(double earliest, double duration, int units);

  /// Usage at time t (counting an allocation as active on [start, end)).
  [[nodiscard]] int usage_at(double t) const;

  /// Total allocated unit-seconds so far (for utilization reports).
  [[nodiscard]] double busy_unit_seconds() const noexcept {
    return busy_unit_seconds_;
  }

  /// Latest end time of any allocation made so far.
  [[nodiscard]] double last_end() const noexcept { return last_end_; }

  /// Drops breakpoints at or before `t` (all future allocations must
  /// have earliest >= t). Keeps the timeline small over long runs.
  void prune(double t);

  /// Breakpoints currently held (what prune() keeps bounded).
  [[nodiscard]] std::size_t breakpoints() const noexcept {
    return level_.size();
  }

 private:
  using Levels = std::map<double, int>;

  /// Usage just before the breakpoint `it` (base before the first one).
  [[nodiscard]] int level_before(Levels::const_iterator it) const;
  /// The breakpoint at exactly `t`, inserted with the usage there if
  /// absent.
  Levels::iterator split_at(double t);

  int capacity_;
  int base_usage_ = 0;  // usage before the first breakpoint
  Levels level_;        // time -> usage on [time, next breakpoint)
  double busy_unit_seconds_ = 0.0;
  double last_end_ = 0.0;
  double prune_horizon_ = 0.0;
};

}  // namespace ftla::sim
