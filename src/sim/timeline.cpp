#include "sim/timeline.hpp"

#include <algorithm>

namespace ftla::sim {

namespace {

/// Prefix length below which prune() never compacts: small arrays are
/// left alone rather than shifted on every other prune.
constexpr std::size_t kCompactMin = 256;

}  // namespace

std::size_t ResourceTimeline::first_after(double t) const {
  std::size_t i = level_.size();
  const std::size_t stop = i - std::min(i - head_, kWalkBack);
  while (i != stop && level_[i - 1].first > t) --i;
  if (i != stop) return i;
  // Every walked breakpoint is after t: bisect those before them.
  const auto it = std::upper_bound(
      level_.begin() + static_cast<std::ptrdiff_t>(head_),
      level_.begin() + static_cast<std::ptrdiff_t>(stop), t,
      [](double v, const std::pair<double, int>& b) { return v < b.first; });
  return static_cast<std::size_t>(it - level_.begin());
}

double ResourceTimeline::allocate(double earliest, double duration,
                                  int units) {
  FTLA_CHECK(units > 0 && units <= capacity_);
  FTLA_CHECK(duration >= 0.0);
  FTLA_CHECK_MSG(earliest >= prune_horizon_,
                 "allocation starts before the pruned horizon");
  const int avail = capacity_ - units;
  const std::size_t n = level_.size();

  // Usage just after `earliest` (a breakpoint at exactly `earliest`
  // included): the level of the last breakpoint at or before it.
  double t = earliest;
  std::size_t i = first_after(t);
  int usage = level_before(i);

  // Slide the candidate start forward until [t, t+duration) fits.
  // `i` always indexes the first breakpoint strictly after t, and
  // `usage` is the usage on [t, level_[i].first).
  while (true) {
    if (usage > avail) {
      // Cannot start at t: advance to the next point where usage drops.
      FTLA_CHECK_MSG(i != n,
                     "timeline invariant broken: usage exceeds capacity "
                     "with no future release");
      t = level_[i].first;
      usage = level_[i].second;
      ++i;
      continue;
    }
    // t is feasible now; verify the whole window [t, t+duration).
    bool fits = true;
    for (std::size_t j = i; j != n && level_[j].first < t + duration; ++j) {
      if (level_[j].second > avail) {
        // Conflict inside the window: restart from this breakpoint.
        t = level_[j].first;
        usage = level_[j].second;
        i = j + 1;
        fits = false;
        break;
      }
    }
    if (fits) break;
  }

  // Every start and end is a breakpoint (one, for a zero duration). The
  // scan left `i` just past t, so the start split lands at i - 1 or i;
  // the end split scans forward from there. Raise every level between.
  std::size_t first = i;
  if (first != head_ && level_[first - 1].first == t) {
    --first;
  } else {
    level_.insert(level_.begin() + static_cast<std::ptrdiff_t>(first),
                  {t, level_before(first)});
  }
  const double end = t + duration;
  std::size_t last = first;
  while (last != level_.size() && level_[last].first < end) ++last;
  if (last == level_.size() || level_[last].first != end) {
    level_.insert(level_.begin() + static_cast<std::ptrdiff_t>(last),
                  {end, level_before(last)});
  }
  for (std::size_t j = first; j != last; ++j) level_[j].second += units;
  busy_unit_seconds_ += duration * units;
  last_end_ = std::max(last_end_, end);
  return t;
}

int ResourceTimeline::usage_at(double t) const {
  if (t < prune_horizon_) return 0;  // history discarded
  return level_before(first_after(t));
}

void ResourceTimeline::prune(double t) {
  if (t <= prune_horizon_) return;
  // Advance the head past every breakpoint at or before t; each one is
  // passed once, so the walk is amortized O(1) per breakpoint.
  std::size_t keep = head_;
  while (keep != level_.size() && level_[keep].first <= t) ++keep;
  base_usage_ = level_before(keep);
  head_ = keep;
  prune_horizon_ = t;
  // Compact once the pruned prefix passes half of the array: the shift
  // moves fewer entries than were pruned, so it too is amortized O(1).
  if (head_ >= kCompactMin && 2 * head_ > level_.size()) {
    level_.erase(level_.begin(),
                 level_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

}  // namespace ftla::sim
