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
// Representation: one sorted array of (breakpoint time, absolute usage
// on [time, next breakpoint)); every allocation start and end is a
// breakpoint. A head index marks the pruned prefix. allocate() costs
// O(log B + k + r) for B breakpoints, k of them inside the scanned
// window and r after the insertion point; usage_at() costs O(log B) and
// prune() is amortized O(1). Requests mostly start near the end of the
// array, so the search for a start walks back from the end before it
// bisects. See docs/simulator.md.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ftla::sim {

class ResourceTimeline {
 public:
  explicit ResourceTimeline(int capacity) : capacity_(capacity) {
    FTLA_CHECK(capacity > 0);
  }

  /// Breakpoints the search for a start walks back from the end before
  /// it bisects the rest.
  static constexpr std::size_t kWalkBack = 32;

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
    return level_.size() - head_;
  }

 private:
  /// Index of the first held breakpoint strictly after `t`.
  [[nodiscard]] std::size_t first_after(double t) const;
  /// Usage just before the breakpoint at index `i` (the base level
  /// before the first held one).
  [[nodiscard]] int level_before(std::size_t i) const {
    return i == head_ ? base_usage_ : level_[i - 1].second;
  }

  int capacity_;
  int base_usage_ = 0;  // usage before the first held breakpoint
  /// (time, usage on [time, next breakpoint)), sorted by time; entries
  /// before head_ are pruned and wait for compaction.
  std::vector<std::pair<double, int>> level_;
  std::size_t head_ = 0;
  double busy_unit_seconds_ = 0.0;
  double last_end_ = 0.0;
  double prune_horizon_ = 0.0;
};

}  // namespace ftla::sim
