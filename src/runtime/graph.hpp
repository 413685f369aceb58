// Dependency-driven task graph: the runtime's core data structure.
//
// A TaskGraph is a DAG of named tasks, each declaring the tiles it
// reads and writes (its *footprint*). Dependencies are not wired by
// hand: add_task infers them from footprint overlap with the classic
// hazard rules —
//
//   * RAW: a Read of tile T depends on T's last writer;
//   * WAW: a Write of T depends on T's last writer;
//   * WAR: a Write of T depends on every reader of T since that writer.
//
// Every edge is inferred and points from an earlier-inserted task into
// the one being added, so insertion order (node ids 0..n-1) is a
// topological order by construction: the graph cannot be cyclic, and
// executors issue in id order with no scheduler. That order is a pure
// function of the build sequence — no pointer values, no hash
// iteration order, no wall clock — which is what makes the DAG drivers
// issue exactly the bulk program order (docs/runtime.md).
//
// The graph itself is execution-agnostic: bodies are opaque callables
// and `Where` only tells an executor which issue protocol a task needs
// (device stream, host, or inline). See docs/runtime.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hpp"

namespace ftla::runtime {

class AccessTracker;  // sanitizer.hpp — opt-in dynamic footprint checker

/// A tile is any unit of data a task can depend on: a block of the
/// factor matrix, a checksum strip, a host staging buffer, a scratch
/// slot. `matrix` namespaces independent arrays so (row, col) spaces
/// never collide across them.
struct TileKey {
  int matrix = 0;
  int row = 0;
  int col = 0;

  friend bool operator==(const TileKey& a, const TileKey& b) noexcept {
    return a.matrix == b.matrix && a.row == b.row && a.col == b.col;
  }
  friend bool operator<(const TileKey& a, const TileKey& b) noexcept {
    if (a.matrix != b.matrix) return a.matrix < b.matrix;
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  }
};

enum class Access {
  Read,       ///< consumes the tile's current contents
  Write,      ///< fully overwrites the tile
  ReadWrite,  ///< updates in place (both hazard directions)
};

struct Footprint {
  TileKey tile;
  Access access = Access::Read;
};

/// Convenience builders, so driver code reads like the math.
[[nodiscard]] inline Footprint read(TileKey t) { return {t, Access::Read}; }
[[nodiscard]] inline Footprint write(TileKey t) { return {t, Access::Write}; }
[[nodiscard]] inline Footprint rw(TileKey t) { return {t, Access::ReadWrite}; }

/// Which issue protocol a task needs from an executor.
enum class Where {
  Device,  ///< issues kernels/copies on an executor-chosen stream
  Host,    ///< runs host-side work; executor syncs device predecessors
  Inline,  ///< runs at issue time with no machine interaction
};

/// Checked tile handle passed to task bodies via TaskContext. When the
/// graph has an AccessTracker armed (TaskGraph::set_access_tracker /
/// FTLA_DAG_SANITIZE), every call records the dynamic access so the
/// sanitizer can verify it against the declared footprint and the
/// inferred happens-before order; with no tracker armed the calls are
/// no-ops, so instrumented bodies cost nothing in production runs.
struct TileAccessor {
  AccessTracker* tracker = nullptr;
  int task = -1;

  /// True while a tracker records accesses. Bodies guard their
  /// annotation walks with it, so a disarmed run walks none.
  [[nodiscard]] bool armed() const noexcept { return tracker != nullptr; }

  void read(TileKey t) const;   ///< body consumed the tile's contents
  void write(TileKey t) const;  ///< body fully overwrote the tile
  void rw(TileKey t) const;     ///< body updated the tile in place
};

/// Handed to the body at execution time.
struct TaskContext {
  int task = -1;    ///< node id in the graph
  int stream = -1;  ///< chosen sim stream (Where::Device only)
  /// Dynamic-footprint recording handle (inert unless a sanitizer
  /// tracker is armed on the graph).
  TileAccessor tiles;
};

using TaskBody = std::function<void(const TaskContext&)>;

struct TaskOptions {
  obs::Phase phase = obs::Phase::Base;
  int iteration = -1;
  Where where = Where::Device;
};

struct TaskNode {
  std::string name;
  std::vector<Footprint> footprint;
  TaskBody body;
  TaskOptions opts;
  std::vector<int> preds;  ///< deduplicated, first-seen; all below the id
  std::vector<int> succs;
};

class TaskGraph {
 public:
  /// Appends a task and infers RAW/WAR/WAW edges from its footprint.
  /// Returns the node id (dense, starting at 0).
  int add_task(std::string name, std::vector<Footprint> footprint,
               TaskBody body, TaskOptions opts = {});

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] const TaskNode& node(int id) const { return nodes_.at(id); }
  [[nodiscard]] std::int64_t edge_count() const noexcept { return edges_; }

  /// A seeded random valid topological order, for the schedule-
  /// permutation fuzzer. Tasks with an *empty* footprint are treated as
  /// sequence points and keep exactly the position (same preceding task
  /// set) they have in insertion order: an empty footprint opted out of
  /// dependency inference (the fault hooks use it to pin a program
  /// point), so no reordering across one can be proven safe. All other
  /// tasks are permuted freely within those fences, subject to the
  /// graph's edges. seed selects the permutation; the result is a pure
  /// function of (graph, seed).
  [[nodiscard]] std::vector<int> random_schedule(std::uint64_t seed) const;

  /// Arms (or disarms, with nullptr) the dynamic footprint sanitizer.
  /// Executors call tracker->begin_run/begin_task and hand bodies a
  /// recording TileAccessor; see sanitizer.hpp. Not owned.
  void set_access_tracker(AccessTracker* tracker) noexcept {
    tracker_ = tracker;
  }
  [[nodiscard]] AccessTracker* access_tracker() const noexcept {
    return tracker_;
  }

 private:
  struct TileState {
    int last_writer = -1;
    std::vector<int> readers_since_write;
  };

  /// Adds edge from -> to, the task being added: `linked_into_[from] ==
  /// to` marks a duplicate in O(1), and a self-edge is skipped.
  void infer(int from, int to);
  /// The state of tile `key`, created empty on first use.
  TileState& tile_state(const TileKey& key);

  std::vector<TaskNode> nodes_;
  // Tile states in first-use order, indexed by an open-addressing table
  // (slot -> index into tiles_, -1 empty; a power of two, at most half
  // full). Only lookups read the table, so hash order never reaches the
  // graph. Two flat arrays instead of one node per tile keep the heap
  // compact.
  std::vector<std::pair<TileKey, TileState>> tiles_;
  std::vector<int> slots_;
  std::vector<int> linked_into_;  // per source: last task inferred into
  std::int64_t edges_ = 0;
  AccessTracker* tracker_ = nullptr;  // not owned
};

}  // namespace ftla::runtime
