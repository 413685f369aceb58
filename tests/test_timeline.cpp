// ResourceTimeline tests: capacity packing, delayed starts, window
// conflicts, pruning, a randomized never-exceeds-capacity property, and
// a differential test against a brute-force first fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/timeline.hpp"

namespace ftla::sim {
namespace {

TEST(Timeline, ImmediateStartWhenEmpty) {
  ResourceTimeline t(4);
  EXPECT_DOUBLE_EQ(t.allocate(5.0, 2.0, 3), 5.0);
  EXPECT_DOUBLE_EQ(t.last_end(), 7.0);
}

TEST(Timeline, ConcurrentAllocationsShareCapacity) {
  ResourceTimeline t(4);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 10.0, 2), 0.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 10.0, 2), 0.0);  // fits alongside
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 5.0, 1), 10.0);  // must wait
}

TEST(Timeline, FullWidthSerializes) {
  ResourceTimeline t(4);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 4), 3.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 4), 6.0);
}

TEST(Timeline, StartsAtReleasePoint) {
  ResourceTimeline t(2);
  t.allocate(0.0, 4.0, 2);
  t.allocate(0.0, 2.0, 1);  // starts at 4
  EXPECT_DOUBLE_EQ(t.allocate(1.0, 1.0, 2), 6.0);  // needs both units
}

TEST(Timeline, WindowConflictPushesPastLaterBusyPeriod) {
  ResourceTimeline t(2);
  // Busy [5, 8) with full capacity.
  t.allocate(5.0, 3.0, 2);
  // A long job that would overlap [5,8) cannot start at 0.
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 6.0, 1), 8.0);
  // A short one fits before.
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 5.0, 1), 0.0);
}

TEST(Timeline, GapFitting) {
  ResourceTimeline t(1);
  t.allocate(0.0, 2.0, 1);   // [0,2)
  t.allocate(6.0, 2.0, 1);   // [6,8)
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 3.0, 1), 2.0);  // fits the [2,6) gap
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 2.0, 1), 8.0);  // gap now too small
}

TEST(Timeline, UsageAt) {
  ResourceTimeline t(8);
  t.allocate(1.0, 4.0, 3);
  t.allocate(2.0, 1.0, 2);
  EXPECT_EQ(t.usage_at(0.5), 0);
  EXPECT_EQ(t.usage_at(1.5), 3);
  EXPECT_EQ(t.usage_at(2.5), 5);
  EXPECT_EQ(t.usage_at(3.5), 3);
  EXPECT_EQ(t.usage_at(10.0), 0);
}

TEST(Timeline, UsageAtHalfOpenBoundaries) {
  // Allocations are active on the half-open interval [start, end): the
  // start instant counts, the end instant does not. The profiler's
  // utilization tracks depend on exactly this convention.
  ResourceTimeline t(4);
  t.allocate(1.0, 2.0, 3);  // [1, 3)
  EXPECT_EQ(t.usage_at(1.0), 3);  // closed at start
  EXPECT_EQ(t.usage_at(3.0), 0);  // open at end
  // Back-to-back allocations at a shared breakpoint never double-count:
  // at the handoff instant only the starting job is active.
  t.allocate(3.0, 2.0, 4);  // [3, 5)
  EXPECT_EQ(t.usage_at(3.0), 4);
  EXPECT_EQ(t.usage_at(5.0), 0);
  // A zero-duration allocation occupies no instant at all.
  ResourceTimeline z(1);
  z.allocate(2.0, 0.0, 1);
  EXPECT_EQ(z.usage_at(2.0), 0);
}

TEST(Timeline, BusyUnitSecondsAccumulates) {
  ResourceTimeline t(4);
  t.allocate(0.0, 2.0, 3);
  t.allocate(0.0, 4.0, 1);
  EXPECT_DOUBLE_EQ(t.busy_unit_seconds(), 10.0);
}

TEST(Timeline, BusyUnitSecondsUnderContentionDelayedStarts) {
  // Contention delays starts but never shrinks or stretches work:
  // busy_unit_seconds must equal sum(units * duration) over the
  // *requested* jobs regardless of where they were pushed to start.
  ResourceTimeline t(2);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 4.0, 2), 0.0);   // [0, 4) full width
  EXPECT_DOUBLE_EQ(t.allocate(1.0, 3.0, 1), 4.0);   // delayed to [4, 7)
  EXPECT_DOUBLE_EQ(t.allocate(2.0, 3.0, 1), 4.0);   // co-runs on [4, 7)
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 1.0, 2), 7.0);   // delayed to [7, 8)
  EXPECT_DOUBLE_EQ(t.busy_unit_seconds(),
                   2 * 4.0 + 1 * 3.0 + 1 * 3.0 + 2 * 1.0);
  // The accounting matches the integral of usage_at over the horizon.
  double integral = 0.0;
  for (double at = 0.005; at < 8.0; at += 0.01) {
    integral += t.usage_at(at) * 0.01;
  }
  EXPECT_NEAR(integral, t.busy_unit_seconds(), 1e-6);
}

TEST(Timeline, PrunePreservesActiveAllocations) {
  ResourceTimeline t(2);
  t.allocate(0.0, 100.0, 1);  // long-running, active across the prune
  t.allocate(0.0, 1.0, 1);    // finished before the prune
  t.prune(50.0);
  // Capacity still reflects the long-running allocation.
  EXPECT_DOUBLE_EQ(t.allocate(50.0, 1.0, 2), 100.0);
}

TEST(Timeline, ZeroDurationAllocation) {
  ResourceTimeline t(1);
  EXPECT_DOUBLE_EQ(t.allocate(3.0, 0.0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.allocate(0.0, 5.0, 1), 0.0);
}

TEST(TimelineProperty, NeverExceedsCapacityUnderRandomLoad) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const int cap = rng.uniform_int(2, 8);
    ResourceTimeline t(cap);
    struct Alloc {
      double start, end;
      int units;
    };
    std::vector<Alloc> allocs;
    double earliest = 0.0;
    for (int i = 0; i < 200; ++i) {
      earliest += rng.next_double() * 0.1;
      const double dur = 0.01 + rng.next_double();
      const int units = rng.uniform_int(1, cap);
      const double start = t.allocate(earliest, dur, units);
      EXPECT_GE(start, earliest);
      allocs.push_back({start, start + dur, units});
    }
    // Check usage at every interval boundary.
    for (const auto& probe : allocs) {
      for (double at : {probe.start, probe.start + 1e-9}) {
        int usage = 0;
        for (const auto& a : allocs) {
          if (a.start <= at && at < a.end) usage += a.units;
        }
        EXPECT_LE(usage, cap) << "seed " << seed;
      }
    }
  }
}

TEST(TimelineProperty, WorkConservingForUnitJobs) {
  // With unit-width jobs and a single unit of capacity, the timeline
  // must behave exactly like a FIFO queue: total busy time equals the
  // sum of durations and there are no overlaps.
  Rng rng(99);
  ResourceTimeline t(1);
  double total = 0.0;
  double prev_end = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double dur = 0.1 + rng.next_double();
    const double start = t.allocate(0.0, dur, 1);
    EXPECT_DOUBLE_EQ(start, prev_end);
    prev_end = start + dur;
    total += dur;
  }
  EXPECT_NEAR(t.busy_unit_seconds(), total, 1e-9);
  EXPECT_NEAR(t.last_end(), total, 1e-9);
}

TEST(Timeline, BreakpointsTrackStartsAndEndsAndPruneDropsThem) {
  ResourceTimeline t(2);
  EXPECT_EQ(t.breakpoints(), 0u);
  t.allocate(0.0, 2.0, 1);  // breakpoints 0, 2
  t.allocate(0.0, 3.0, 1);  // adds 3
  t.allocate(2.0, 0.0, 1);  // zero duration at an existing breakpoint
  EXPECT_EQ(t.breakpoints(), 3u);
  t.prune(2.0);  // drops 0 and 2, keeps 3
  EXPECT_EQ(t.breakpoints(), 1u);
  EXPECT_EQ(t.usage_at(2.0), 1);
  EXPECT_DOUBLE_EQ(t.allocate(2.0, 1.0, 2), 3.0);
}

/// Reference first fit over an explicit interval list: the earliest
/// candidate (the requested start, or any start or end at or after it)
/// whose usage, and the usage at every breakpoint strictly inside
/// [c, c + duration), leaves room for `units`.
class BruteForceTimeline {
 public:
  explicit BruteForceTimeline(int capacity) : capacity_(capacity) {}

  double allocate(double earliest, double duration, int units) {
    std::set<double> candidates{earliest};
    for (const Interval& iv : intervals_) {
      for (const double at : {iv.start, iv.end}) {
        if (at >= earliest) candidates.insert(at);
      }
    }
    const int avail = capacity_ - units;
    for (const double c : candidates) {
      bool fits = usage_at(c) <= avail;
      for (const Interval& iv : intervals_) {
        for (const double at : {iv.start, iv.end}) {
          if (at > c && at < c + duration && usage_at(at) > avail) {
            fits = false;
          }
        }
      }
      if (fits) {
        intervals_.push_back({c, c + duration, units});
        kept_.insert(c);
        kept_.insert(c + duration);
        busy_unit_seconds_ += duration * units;
        last_end_ = std::max(last_end_, c + duration);
        return c;
      }
    }
    ADD_FAILURE() << "no feasible start";
    return -1.0;
  }

  [[nodiscard]] int usage_at(double at) const {
    int usage = 0;
    for (const Interval& iv : intervals_) {
      if (iv.start <= at && at < iv.end) usage += iv.units;
    }
    return usage;
  }

  /// Drops starts and ends at or before `t` from the kept set; like the
  /// timeline, a prune that does not move the horizon does nothing.
  void prune(double t) {
    if (t <= horizon_) return;
    kept_.erase(kept_.begin(), kept_.upper_bound(t));
    horizon_ = t;
  }

  /// Distinct starts and ends not yet pruned: what the timeline keeps.
  [[nodiscard]] std::size_t breakpoints() const { return kept_.size(); }

  [[nodiscard]] std::vector<double> points() const {
    std::vector<double> out;
    for (const Interval& iv : intervals_) {
      out.push_back(iv.start);
      out.push_back(iv.end);
    }
    return out;
  }

  [[nodiscard]] double busy_unit_seconds() const { return busy_unit_seconds_; }
  [[nodiscard]] double last_end() const { return last_end_; }

 private:
  struct Interval {
    double start, end;
    int units;
  };
  int capacity_;
  std::vector<Interval> intervals_;
  std::set<double> kept_;
  double horizon_ = 0.0;
  double busy_unit_seconds_ = 0.0;
  double last_end_ = 0.0;
};

TEST(TimelineProperty, MatchesBruteForceFirstFit) {
  // Times and durations are multiples of 1/4, so sums are exact and
  // requested starts and window ends tie exactly on breakpoints often.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int cap = static_cast<int>(1 + (seed - 1) % 8);  // 1..8
    ResourceTimeline fast(cap);
    BruteForceTimeline slow(cap);
    double horizon = 0.0;
    for (int i = 0; i < 120; ++i) {
      const int pick = rng.uniform_int(0, 9);
      if (pick == 0) {
        // Prune at a random quarter just ahead of the horizon, or
        // exactly on a breakpoint.
        double h = horizon + 0.25 * rng.uniform_int(0, 8);
        const std::vector<double> pts = slow.points();
        if (!pts.empty() && rng.uniform_int(0, 1) == 0) {
          const double at =
              pts[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<int>(pts.size()) - 1))];
          if (at >= horizon) h = at;
        }
        fast.prune(h);
        slow.prune(h);
        horizon = std::max(horizon, h);
        EXPECT_EQ(fast.breakpoints(), slow.breakpoints())
            << "seed " << seed << " step " << i;
        continue;
      }
      double earliest = horizon + 0.25 * rng.uniform_int(0, 12);
      const std::vector<double> pts = slow.points();
      if (!pts.empty() && pick <= 3) {
        const double at =
            pts[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(pts.size()) - 1))];
        if (at >= horizon) earliest = at;  // tie on a breakpoint
      }
      const double dur = pick == 4 ? 0.0 : 0.25 * rng.uniform_int(1, 10);
      const int units = rng.uniform_int(1, cap);
      ASSERT_EQ(fast.allocate(earliest, dur, units),
                slow.allocate(earliest, dur, units))
          << "seed " << seed << " step " << i;
      EXPECT_EQ(fast.last_end(), slow.last_end());
      EXPECT_EQ(fast.busy_unit_seconds(), slow.busy_unit_seconds());
      EXPECT_EQ(fast.breakpoints(), slow.breakpoints());
    }
    for (const double at : slow.points()) {
      for (const double probe : {at, at + 0.125}) {
        if (probe < horizon) continue;
        EXPECT_EQ(fast.usage_at(probe), slow.usage_at(probe))
            << "seed " << seed << " t " << probe;
      }
    }
  }
}

}  // namespace
}  // namespace ftla::sim
