// Dynamic footprint sanitizer for the task-graph runtime.
//
// The runtime infers every RAW/WAR/WAW edge from *declared* tile
// footprints (graph.hpp), so its soundness rests entirely on those
// declarations being complete: a body touching an undeclared tile is a
// silent race that no schedule can be blamed for — the eager-at-issue
// numeric bodies mask it on every run that happens to issue in a safe
// order. The AccessTracker closes that gap dynamically. Arm it with
// TaskGraph::set_access_tracker (the DAG drivers arm it when
// FTLA_DAG_SANITIZE is set in the environment); executors then hand
// every body a recording TileAccessor through TaskContext::tiles. The
// drivers' bodies record from the operands they really use — each
// device region handed to a kernel or a copy, mapped to the tiles it
// covers, and the host staging tile (abft::Driver::use and staging) —
// so a footprint is checked against the body, not against a second
// tile list. Each recorded access is checked two ways:
//
//   * containment — the access must be covered by the task's declared
//     footprint (a Read may also hit a declared Write tile after the
//     task's own write: the scratch idiom);
//   * ordering — per-tile "vector clocks" (ancestor bitsets over task
//     ids, i.e. the inferred happens-before relation) must order the
//     access against every conflicting access already recorded on the
//     tile; an unordered conflicting pair is a race.
//
// Violations carry task names, tile keys, and the executed schedule
// prefix at detection time, and report() renders them as one
// deterministic, actionable block of text. Recording takes a mutex, so
// a body may record from any thread. See docs/static-analysis.md
// ("Dynamic footprint sanitizer").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "runtime/graph.hpp"

namespace ftla::runtime {

enum class ViolationKind {
  UndeclaredRead,   ///< body read a tile outside its declared footprint
  UndeclaredWrite,  ///< body wrote a tile outside its declared footprint
  Race,             ///< conflicting accesses not ordered by happens-before
};

struct Violation {
  ViolationKind kind = ViolationKind::UndeclaredRead;
  int task = -1;   ///< offending task (the later access for races)
  int other = -1;  ///< the unordered peer task (Race only)
  TileKey tile;
  Access access = Access::Read;  ///< what the body actually did
  /// Length of the executed-order prefix (see schedule_prefix()) when
  /// the violation was detected — the report shows these tasks as the
  /// offending schedule prefix.
  int prefix = 0;
};

/// Collects dynamic accesses for one graph execution and checks them
/// against the declared footprints and inferred happens-before order.
/// Reusable: begin_run resets all state for a fresh execution.
class AccessTracker {
 public:
  /// Snapshots the graph's declared footprints and computes per-task
  /// ancestor bitsets (the happens-before relation). Call before
  /// executing; the executors do this when the tracker is armed.
  void begin_run(const TaskGraph& graph);

  /// Marks the task as issued (appends to the executed-order prefix).
  void begin_task(int task);

  /// Records one dynamic access; checks containment and ordering.
  /// Called through TileAccessor from task bodies.
  void record(int task, TileKey tile, Access access);

  [[nodiscard]] bool clean() const;
  [[nodiscard]] std::vector<Violation> violations() const;
  /// Tasks in the order they were issued, up to `len` (-1 = all).
  [[nodiscard]] std::vector<int> schedule_prefix(int len = -1) const;
  [[nodiscard]] std::int64_t accesses() const;

  /// Deterministic human-readable account of every violation: task
  /// names, tile keys, declared footprints, and the offending schedule
  /// prefix. Empty string when clean. `graph` must be the graph passed
  /// to begin_run.
  [[nodiscard]] std::string report(const TaskGraph& graph) const;

 private:
  struct Recorded {
    int task = -1;
    Access access = Access::Read;
  };

  [[nodiscard]] bool happens_before_locked(int a, int b) const
      FTLA_REQUIRES(mu_);
  void check_containment_locked(int task, TileKey tile, Access access)
      FTLA_REQUIRES(mu_);
  void check_order_locked(int task, TileKey tile, Access access)
      FTLA_REQUIRES(mu_);
  void add_violation_locked(Violation v) FTLA_REQUIRES(mu_);

  mutable common::Mutex mu_;
  int tasks_ FTLA_GUARDED_BY(mu_) = 0;
  /// Declared footprint per task, sorted by tile for binary search.
  std::vector<std::vector<Footprint>> declared_ FTLA_GUARDED_BY(mu_);
  /// Ancestor bitset per task over task ids: bit a set in ancestors_[b]
  /// iff a happens-before b through the graph's edges.
  std::vector<std::vector<std::uint64_t>> ancestors_ FTLA_GUARDED_BY(mu_);
  /// Per-tile dynamic access history, sorted by tile key.
  std::vector<std::pair<TileKey, std::vector<Recorded>>> history_
      FTLA_GUARDED_BY(mu_);
  std::vector<int> executed_ FTLA_GUARDED_BY(mu_);
  std::vector<Violation> violations_ FTLA_GUARDED_BY(mu_);
  std::int64_t accesses_ FTLA_GUARDED_BY(mu_) = 0;
};

/// True when FTLA_DAG_SANITIZE is set in the environment to anything
/// other than "" or "0" — the DAG drivers' opt-in switch.
[[nodiscard]] bool sanitize_env_enabled();

/// Formats a tile key as e.g. "tile(2:1,3)" (matrix:row,col).
[[nodiscard]] std::string tile_name(TileKey t);

}  // namespace ftla::runtime
