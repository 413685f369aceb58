#include "runtime/sanitizer.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <tuple>
#include <utility>

namespace ftla::runtime {

namespace {

[[nodiscard]] bool reads(Access a) noexcept { return a != Access::Write; }
[[nodiscard]] bool writes(Access a) noexcept { return a != Access::Read; }

[[nodiscard]] const char* access_name(Access a) noexcept {
  switch (a) {
    case Access::Read: return "read";
    case Access::Write: return "write";
    case Access::ReadWrite: return "rw";
  }
  return "?";
}

[[nodiscard]] int violation_rank(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::UndeclaredRead: return 0;
    case ViolationKind::UndeclaredWrite: return 1;
    case ViolationKind::Race: return 2;
  }
  return 3;
}

[[nodiscard]] const char* violation_name(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::UndeclaredRead: return "undeclared-read";
    case ViolationKind::UndeclaredWrite: return "undeclared-write";
    case ViolationKind::Race: return "race";
  }
  return "?";
}

}  // namespace

void TileAccessor::record(Footprint f) const {
  if (tracker != nullptr) tracker->record(task, f.tile, f.access);
}

bool sanitize_env_enabled() {
  const char* env = std::getenv("FTLA_DAG_SANITIZE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

std::string tile_name(TileKey t) {
  return "tile(" + std::to_string(t.matrix) + ":" + std::to_string(t.row) +
         "," + std::to_string(t.col) + ")";
}

void AccessTracker::begin_run(const TaskGraph& graph) {
  const int n = graph.size();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;

  common::MutexLock lk(mu_);
  tasks_ = n;
  declared_.assign(static_cast<std::size_t>(n), {});
  for (int id = 0; id < n; ++id) {
    auto& fp = declared_[static_cast<std::size_t>(id)];
    const std::span<const Footprint> mine = graph.footprint(id);
    fp.assign(mine.begin(), mine.end());
    std::sort(fp.begin(), fp.end(),
              [](const Footprint& a, const Footprint& b) {
                return a.tile < b.tile;
              });
  }
  // Happens-before as ancestor bitsets: walking ids in order (every
  // pred is below its task, so id order is topological), every task's
  // set is the union of each predecessor's set plus the predecessor
  // itself, so bit a in ancestors_[b] iff a precedes b along some edge
  // path.
  ancestors_.assign(static_cast<std::size_t>(n),
                    std::vector<std::uint64_t>(words, 0));
  for (int id = 0; id < n; ++id) {
    auto& mine = ancestors_[static_cast<std::size_t>(id)];
    for (const int p : graph.preds(id)) {
      const auto& theirs = ancestors_[static_cast<std::size_t>(p)];
      for (std::size_t w = 0; w < words; ++w) mine[w] |= theirs[w];
      mine[static_cast<std::size_t>(p) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(p) % 64);
    }
  }
  history_.clear();
  executed_.clear();
  violations_.clear();
  accesses_ = 0;
}

void AccessTracker::begin_task(int task) {
  common::MutexLock lk(mu_);
  executed_.push_back(task);
}

bool AccessTracker::happens_before_locked(int a, int b) const {
  if (a == b) return true;
  const auto& anc = ancestors_[static_cast<std::size_t>(b)];
  return ((anc[static_cast<std::size_t>(a) / 64] >>
           (static_cast<std::size_t>(a) % 64)) &
          1) != 0;
}

void AccessTracker::add_violation_locked(Violation v) {
  v.prefix = static_cast<int>(executed_.size());
  violations_.push_back(v);
}

void AccessTracker::check_containment_locked(int task, TileKey tile,
                                             Access access) {
  // Effective declared access for this (task, tile): the union of all
  // matching footprint entries.
  bool declared = false;
  bool may_read = false;
  bool may_write = false;
  const auto& fp = declared_[static_cast<std::size_t>(task)];
  auto it = std::lower_bound(fp.begin(), fp.end(), tile,
                             [](const Footprint& f, const TileKey& key) {
                               return f.tile < key;
                             });
  for (; it != fp.end() && it->tile == tile; ++it) {
    declared = true;
    may_read = may_read || reads(it->access);
    may_write = may_write || writes(it->access);
  }

  if (writes(access) && !may_write) {
    add_violation_locked(
        {ViolationKind::UndeclaredWrite, task, -1, tile, access, 0});
    return;  // the write already damns the record; skip the read side
  }
  if (reads(access) && !may_read) {
    // Scratch idiom: reading back what this task itself wrote to a
    // declared Write tile consumes no external producer.
    if (declared && may_write) {
      auto ht = std::lower_bound(
          history_.begin(), history_.end(), tile,
          [](const auto& entry, const TileKey& key) {
            return entry.first < key;
          });
      if (ht != history_.end() && ht->first == tile) {
        for (const Recorded& r : ht->second) {
          if (r.task == task && writes(r.access)) return;
        }
      }
    }
    add_violation_locked(
        {ViolationKind::UndeclaredRead, task, -1, tile, access, 0});
  }
}

void AccessTracker::check_order_locked(int task, TileKey tile,
                                       Access access) {
  auto it = std::lower_bound(history_.begin(), history_.end(), tile,
                             [](const auto& entry, const TileKey& key) {
                               return entry.first < key;
                             });
  if (it == history_.end() || !(it->first == tile)) return;
  for (const Recorded& r : it->second) {
    if (r.task == task) continue;
    if (!writes(r.access) && !writes(access)) continue;  // read/read is fine
    if (happens_before_locked(r.task, task) ||
        happens_before_locked(task, r.task)) {
      continue;
    }
    // One report per unordered (pair, tile): the same conflict recurs
    // for every access the racing bodies make.
    const int lo = std::min(task, r.task);
    const int hi = std::max(task, r.task);
    bool seen = false;
    for (const Violation& v : violations_) {
      if (v.kind == ViolationKind::Race && v.tile == tile &&
          std::min(v.task, v.other) == lo && std::max(v.task, v.other) == hi) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      add_violation_locked(
          {ViolationKind::Race, task, r.task, tile, access, 0});
    }
  }
}

void AccessTracker::record(int task, TileKey tile, Access access) {
  common::MutexLock lk(mu_);
  if (task < 0 || task >= tasks_) return;  // accessor never armed
  ++accesses_;
  check_containment_locked(task, tile, access);
  check_order_locked(task, tile, access);
  auto it = std::lower_bound(history_.begin(), history_.end(), tile,
                             [](const auto& entry, const TileKey& key) {
                               return entry.first < key;
                             });
  if (it == history_.end() || !(it->first == tile)) {
    it = history_.insert(it, {tile, {}});
  }
  it->second.push_back({task, access});
}

bool AccessTracker::clean() const {
  common::MutexLock lk(mu_);
  return violations_.empty();
}

std::vector<Violation> AccessTracker::violations() const {
  common::MutexLock lk(mu_);
  return violations_;
}

std::vector<int> AccessTracker::schedule_prefix(int len) const {
  common::MutexLock lk(mu_);
  if (len < 0 || len > static_cast<int>(executed_.size())) {
    return executed_;
  }
  return {executed_.begin(), executed_.begin() + len};
}

std::int64_t AccessTracker::accesses() const {
  common::MutexLock lk(mu_);
  return accesses_;
}

std::string AccessTracker::report(const TaskGraph& graph) const {
  std::vector<Violation> sorted;
  std::vector<int> executed;
  {
    common::MutexLock lk(mu_);
    sorted = violations_;
    executed = executed_;
  }
  if (sorted.empty()) return {};
  // Sorted, not detection-ordered: detection follows the issue order,
  // which a seeded random schedule permutes; the report must not.
  std::sort(sorted.begin(), sorted.end(),
            [](const Violation& a, const Violation& b) {
              return std::tuple(a.task, violation_rank(a.kind), a.tile,
                                a.other) <
                     std::tuple(b.task, violation_rank(b.kind), b.tile,
                                b.other);
            });

  const auto task_label = [&](int id) {
    return "task " + std::to_string(id) + " '" + graph.name(id) + "'";
  };
  const auto declared_line = [&](int id) {
    const std::span<const Footprint> footprint = graph.footprint(id);
    if (footprint.empty()) return std::string("(empty footprint)");
    std::string s;
    for (const Footprint& f : footprint) {
      if (!s.empty()) s += ", ";
      s += std::string(access_name(f.access)) + " " + tile_name(f.tile);
    }
    return s;
  };

  std::string out = "DAG sanitizer: " + std::to_string(sorted.size()) +
                    " violation(s)\n";
  for (const Violation& v : sorted) {
    out += "  [" + std::string(violation_name(v.kind)) + "] ";
    if (v.kind == ViolationKind::Race) {
      out += task_label(v.task) + " and " + task_label(v.other) +
             " access " + tile_name(v.tile) +
             " with no happens-before order (" +
             std::string(access_name(v.access)) + " by the former)\n";
      out += "      declared by the latter: " + declared_line(v.other) + "\n";
    } else {
      out += task_label(v.task) + " did a " +
             std::string(access_name(v.access)) + " of " +
             tile_name(v.tile) + " outside its declared footprint\n";
    }
    out += "      declared: " + declared_line(v.task) + "\n";
    // The executed prefix at detection time is the witness schedule.
    const int plen =
        std::min(v.prefix, static_cast<int>(executed.size()));
    out += "      after " + std::to_string(plen) + " issued task(s)";
    const int shown = std::min(plen, 8);
    if (shown > 0) {
      out += ": ";
      if (shown < plen) out += "... ";
      for (int i = plen - shown; i < plen; ++i) {
        if (i > plen - shown) out += " -> ";
        out += graph.name(executed[static_cast<std::size_t>(i)]);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace ftla::runtime
