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
//
// Storage: a task costs only its own data. Its name is a pointer to a
// string with static storage, and its footprint, inferred preds and
// body are copied into one per-graph arena of fixed-size chunks, so
// adding a task allocates nothing once the arena has a chunk with room.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/function_ref.hpp"
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
/// no-ops.
struct TileAccessor {
  AccessTracker* tracker = nullptr;
  int task = -1;

  /// True while a tracker records accesses. A body that derives its
  /// records from the operands it uses tests this first, so a disarmed
  /// run derives none.
  [[nodiscard]] bool armed() const noexcept { return tracker != nullptr; }

  /// Records that the body accessed `f.tile` with `f.access`: e.g.
  /// record(read(t)) when it consumed the tile's contents.
  void record(Footprint f) const;
};

/// Handed to the body at execution time.
struct TaskContext {
  int task = -1;    ///< node id in the graph
  int stream = -1;  ///< chosen sim stream (Where::Device only)
  /// Dynamic-footprint recording handle (inert unless a sanitizer
  /// tracker is armed on the graph); the factorization drivers record
  /// through it from the regions their bodies hand to kernels and
  /// copies.
  TileAccessor tiles;
};

struct TaskOptions {
  obs::Phase phase = obs::Phase::Base;
  int iteration = -1;
  Where where = Where::Device;
};

/// A dependency-driven task graph. Move-only: each task's body is bound
/// to the graph's own copy of it.
class TaskGraph {
 public:
  /// Appends a task and infers RAW/WAR/WAW edges from its footprint.
  /// Returns the node id (dense, starting at 0). The graph copies the
  /// footprint and moves the body into its arena; a body that is not
  /// trivially destructible is destroyed once, with the graph.
  ///
  /// `name` is not copied: it must outlive the graph and any sanitizer
  /// report made from it (a string literal or a static table entry).
  template <class Body>
  int add_task(const char* name, std::span<const Footprint> footprint,
               Body&& body, TaskOptions opts = {}) {
    using Stored = std::decay_t<Body>;
    static_assert(std::is_invocable_v<Stored&, const TaskContext&>,
                  "a task body is called with a const TaskContext&");
    Stored& stored = arena_.make<Stored>(std::forward<Body>(body));
    return add(name, footprint, TaskFn(stored), opts);
  }
  template <class Body>
  int add_task(const char* name, std::initializer_list<Footprint> footprint,
               Body&& body, TaskOptions opts = {}) {
    return add_task(name, std::span<const Footprint>(footprint),
                    std::forward<Body>(body), opts);
  }

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] std::int64_t edge_count() const noexcept { return edges_; }

  // Per-task accessors; `id` must be in [0, size()).
  [[nodiscard]] const char* name(int id) const { return node(id).name; }
  [[nodiscard]] const TaskOptions& options(int id) const {
    return node(id).opts;
  }
  [[nodiscard]] std::span<const Footprint> footprint(int id) const {
    return node(id).footprint;
  }
  /// Deduplicated, in first-seen order; every pred is below `id`.
  [[nodiscard]] std::span<const int> preds(int id) const {
    return node(id).preds;
  }
  /// True when some later task lists `id` among its preds.
  [[nodiscard]] bool has_successor(int id) const {
    return node(id).has_successor;
  }
  /// Runs task `id`'s body.
  void run(int id, const TaskContext& ctx) const { node(id).body(ctx); }

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
  using TaskFn = FunctionRef<void(const TaskContext&)>;

  /// Bump allocation from fixed-size chunks; a request larger than a
  /// quarter chunk gets a block of its own, so no chunk wastes more
  /// than a quarter of itself on a tail. Runs the destructors of the
  /// objects it holds that need one, in reverse order, when it dies.
  class Arena {
   public:
    Arena() = default;
    Arena(Arena&& other) noexcept;
    Arena& operator=(Arena&& other) noexcept;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena() { destroy(); }

    /// `bytes` of storage aligned to `align` (a power of two).
    void* allocate(std::size_t bytes, std::size_t align) {
      const std::size_t pad =
          -reinterpret_cast<std::uintptr_t>(cur_) & (align - 1);
      if (pad + bytes > left_) return allocate_slow(bytes, align);
      void* p = cur_ + pad;
      cur_ += pad + bytes;
      left_ -= pad + bytes;
      return p;
    }
    template <class T>
    std::span<const T> copy(std::span<const T> items) {
      static_assert(std::is_trivially_copyable_v<T>);
      if (items.empty()) return {};
      T* p = static_cast<T*>(allocate(items.size_bytes(), alignof(T)));
      std::uninitialized_copy(items.begin(), items.end(), p);
      return {p, items.size()};
    }
    template <class T, class... Args>
    T& make(Args&&... args) {
      if constexpr (std::is_trivially_destructible_v<T>) {
        return *::new (allocate(sizeof(T), alignof(T)))
            T(std::forward<Args>(args)...);
      } else {
        // The record is allocated first, so a throw from either
        // allocation leaves nothing constructed.
        void* rec = allocate(sizeof(Dtor), alignof(Dtor));
        T* obj = ::new (allocate(sizeof(T), alignof(T)))
            T(std::forward<Args>(args)...);
        dtors_ = ::new (rec) Dtor{
            dtors_, obj, [](void* o) { static_cast<T*>(o)->~T(); }};
        return *obj;
      }
    }

   private:
    // 256 KiB: with 16 or 64 KiB chunks, glibc's reuse of freed heap
    // let paper_sweep's peak RSS reach 51.7 MB on some sweep orders
    // (seeds 1-30); 256 KiB stayed at or below 46.2 MB on seeds 1-60.
    static constexpr std::size_t kChunkBytes = std::size_t{256} << 10;
    struct Dtor {
      Dtor* next;
      void* obj;
      void (*destroy)(void*);
    };

    void* allocate_slow(std::size_t bytes, std::size_t align);
    void destroy() noexcept;

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::byte* cur_ = nullptr;
    std::size_t left_ = 0;
    Dtor* dtors_ = nullptr;  // intrusive list, newest first
  };

  struct Node {
    TaskFn body;  // bound to the arena copy
    std::span<const Footprint> footprint;
    std::span<const int> preds;
    const char* name = nullptr;
    TaskOptions opts;
    int linked_into = -1;  // last task inferred from this one
    bool has_successor = false;
  };
  static constexpr int kNodeShift = 9;  // 512 nodes per chunk

  struct TileState {
    int last_writer = -1;
    std::vector<int> readers_since_write;
  };

  int add(const char* name, std::span<const Footprint> footprint,
          TaskFn body, TaskOptions opts);
  [[nodiscard]] const Node& node(int id) const {
    return node_chunks_[static_cast<std::size_t>(id) >> kNodeShift]
                       [static_cast<std::size_t>(id) &
                        ((std::size_t{1} << kNodeShift) - 1)];
  }
  [[nodiscard]] Node& node(int id) {
    return const_cast<Node&>(std::as_const(*this).node(id));
  }
  /// Adds edge from -> to, the task being added: a source whose
  /// `linked_into` already names `to` is a duplicate, and a self-edge is
  /// skipped.
  void infer(int from, int to);
  /// The state of tile `key`, created empty on first use.
  TileState& tile_state(const TileKey& key);

  // Nodes live in fixed-size chunks, so growing the graph never moves
  // or copies one.
  std::vector<std::unique_ptr<Node[]>> node_chunks_;
  int size_ = 0;
  Arena arena_;
  std::vector<int> preds_;  // the task being added's preds, reused
  // Tile states in first-use order, indexed by an open-addressing table
  // (slot -> index into tiles_, -1 empty; a power of two, at most half
  // full). Only lookups read the table, so hash order never reaches the
  // graph. Two flat arrays instead of one node per tile keep the heap
  // compact.
  std::vector<std::pair<TileKey, TileState>> tiles_;
  std::vector<int> slots_;
  std::int64_t edges_ = 0;
  AccessTracker* tracker_ = nullptr;  // not owned
};

}  // namespace ftla::runtime
