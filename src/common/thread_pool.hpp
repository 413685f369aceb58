// Shared host thread pool: parallel-for over index ranges, and the
// draw-ordered runner both fault campaigns execute their scenarios on.
//
// One pool serves every parallel host path in ftla — the blocked level-3
// BLAS (parallel over MC row panels), checksum block recalculation (the
// host-side analogue of the paper's Opt-1 concurrent-recalc streams),
// and the campaign runner (run_draw_ordered below). Usage rules
// (enforced, see docs/performance.md):
//
//   * Only non-pool threads may submit work. A parallel_for issued from
//     inside a pool body (any pool's body) runs INLINE on the calling
//     worker — nesting never spawns nested parallelism and never
//     deadlocks, and a worker-thread caller observes serial semantics.
//   * Bodies must not throw: exceptions cannot cross the pool boundary
//     and will terminate the process.
//   * Work partitioning never changes the result: each index (or chunk)
//     is executed exactly once by exactly one thread, so any body whose
//     per-index work is independent is bit-deterministic regardless of
//     the thread count.
//
// The pool's internal locking is written against the annotated
// primitives in common/thread_annotations.hpp, so clang's
// `-Wthread-safety` checks the guarded state machine on every build
// (see docs/static-analysis.md); the lock-free slice loop documents its
// publish protocol at the one place the analysis is waived.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace ftla::common {

class ThreadPool {
 public:
  /// `threads` is the total lane count including the submitting thread;
  /// <= 1 means no workers (everything runs inline) and 0 means "use
  /// hardware_threads()".
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (worker threads + the submitting caller); always >= 1.
  [[nodiscard]] int threads() const noexcept { return lanes_; }

  /// Runs body(i) for every i in [begin, end), distributing indices
  /// dynamically across lanes (the caller participates). Blocks until
  /// every index has completed. Indices are claimed one at a time, so
  /// use this for coarse tasks (scenarios, blocks), not tight loops.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& body);

  /// Runs body(lo, hi) over a static partition of [begin, end) into
  /// ~threads() contiguous chunks. Each chunk is claimed by exactly one
  /// lane, which lets the body reuse per-chunk scratch (e.g. a packed
  /// panel buffer) across the chunk's indices.
  void parallel_for_chunks(
      std::int64_t begin, std::int64_t end,
      const std::function<void(std::int64_t, std::int64_t)>& body);

  /// True while the calling thread is executing inside any pool body
  /// (used to run nested submissions inline).
  static bool in_parallel_region() noexcept;

 private:
  struct Impl;
  Impl* impl_;
  int lanes_ = 1;
};

/// std::thread::hardware_concurrency() with a floor of 1.
[[nodiscard]] int hardware_threads() noexcept;

/// The process-wide pool used by the BLAS and checksum layers. Starts
/// with FTLA_THREADS lanes (default 1 — fully serial) on first use.
ThreadPool& global_pool();

/// Lane count of the global pool (>= 1) without forcing construction of
/// worker threads when it was never configured.
[[nodiscard]] int global_threads() noexcept;

/// Rebuilds the global pool with `threads` lanes (0 = hardware). Must
/// not be called while any pool work is in flight.
void set_global_threads(int threads);

/// Runs `count` independent items of a seeded campaign in draw order.
/// Items are drawn serially (`draw()`, item after item, so every thread
/// count sees the same draws), executed with `run(item)` on a pool of
/// `threads` lanes (0 = hardware_threads(); 1 runs inline) one item per
/// claim so uneven items load-balance, and folded back with
/// `merge(index, item, result)` in draw order on the calling thread.
/// The campaign advances in windows of `window` items (all of them when
/// `window` <= 0), each drawn, run and merged before the next is drawn,
/// so whatever merge() prints after item `index` reads the same at
/// every thread count. `run` executes concurrently and must touch no
/// state shared with other items; draw() and merge() never overlap it.
template <typename Draw, typename Run, typename Merge>
void run_draw_ordered(int count, int threads, int window, Draw&& draw,
                      Run&& run, Merge&& merge) {
  using Item = std::decay_t<std::invoke_result_t<Draw&>>;
  using Result = std::decay_t<std::invoke_result_t<Run&, const Item&>>;
  if (count <= 0) return;
  if (window <= 0 || window > count) window = count;
  ThreadPool pool(
      std::min(threads > 0 ? threads : hardware_threads(), window));
  std::vector<Item> items;
  std::vector<Result> results;
  for (int lo = 0; lo < count; lo += window) {
    const int size = std::min(window, count - lo);
    items.clear();
    for (int i = 0; i < size; ++i) items.push_back(draw());
    results.clear();
    results.resize(static_cast<std::size_t>(size));
    pool.parallel_for(0, size, [&](std::int64_t i) {
      const auto u = static_cast<std::size_t>(i);
      results[u] = run(items[u]);
    });
    for (int i = 0; i < size; ++i) {
      const auto u = static_cast<std::size_t>(i);
      merge(lo + i, items[u], results[u]);
    }
  }
}

}  // namespace ftla::common
