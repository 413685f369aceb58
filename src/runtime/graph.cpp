#include "runtime/graph.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"

namespace ftla::runtime {

namespace {

/// splitmix64 finalizer over the packed key: spreads the small, dense
/// coordinates drivers use across the whole word.
std::size_t tile_hash(const TileKey& k) {
  std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.matrix))
       << 42) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.row)) << 21) ^
      static_cast<std::uint32_t>(k.col);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h);
}

}  // namespace

TaskGraph::TileState& TaskGraph::tile_state(const TileKey& key) {
  // Linear probing from the key's hash to its slot or the first empty
  // one; the table is at most half full, so an empty slot exists.
  const auto probe = [this](const TileKey& k) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t h = tile_hash(k) & mask;
    while (slots_[h] >= 0 &&
           !(tiles_[static_cast<std::size_t>(slots_[h])].first == k)) {
      h = (h + 1) & mask;
    }
    return h;
  };
  if (!slots_.empty()) {
    const int at = slots_[probe(key)];
    if (at >= 0) return tiles_[static_cast<std::size_t>(at)].second;
  }
  tiles_.emplace_back(key, TileState{});
  if (2 * tiles_.size() > slots_.size()) {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), -1);
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      slots_[probe(tiles_[i].first)] = static_cast<int>(i);
    }
  } else {
    slots_[probe(key)] = static_cast<int>(tiles_.size() - 1);
  }
  return tiles_.back().second;
}

void TaskGraph::infer(int from, int to) {
  if (from == to) return;
  Node& src = node(from);
  if (src.linked_into == to) return;
  src.linked_into = to;
  src.has_successor = true;
  preds_.push_back(from);
  ++edges_;
}

int TaskGraph::add(const char* name, std::span<const Footprint> footprint,
                   TaskFn body, TaskOptions opts) {
  const int id = size_;
  constexpr std::size_t kChunkNodes = std::size_t{1} << kNodeShift;
  if (static_cast<std::size_t>(id) == node_chunks_.size() * kChunkNodes) {
    node_chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
  }
  Node& task = node(id);
  task.body = body;
  task.footprint = arena_.copy(footprint);
  task.name = name;
  task.opts = opts;
  ++size_;

  preds_.clear();
  for (const Footprint& f : task.footprint) {
    TileState& state = tile_state(f.tile);
    switch (f.access) {
      case Access::Read:
        if (state.last_writer >= 0) infer(state.last_writer, id);
        state.readers_since_write.push_back(id);
        break;
      case Access::Write:
      case Access::ReadWrite:
        if (state.last_writer >= 0) infer(state.last_writer, id);
        for (int r : state.readers_since_write) infer(r, id);
        state.readers_since_write.clear();
        state.last_writer = id;
        break;
    }
  }
  task.preds = arena_.copy(std::span<const int>(preds_));
  return id;
}

std::vector<int> TaskGraph::random_schedule(std::uint64_t seed) const {
  // Split insertion order (a topological order: every edge points
  // forward) at the sequence points (empty-footprint tasks). Each
  // segment is then re-drawn as a random topological order of its own
  // tasks: every edge between two segment members is respected, every
  // edge across a fence keeps its direction because segments run in
  // order, so the result is a valid topological order of the whole
  // graph with each sequence point preceded by exactly the task set
  // that precedes it in insertion order.
  const auto n = static_cast<std::size_t>(size());
  // The graph keeps preds only; successor lists are derived here, in
  // compressed rows: task id's successors are succs[first[id] ..
  // first[id + 1]), in increasing id, the order inference found them.
  std::vector<std::size_t> first(n + 1, 0);
  for (int id = 0; id < size(); ++id) {
    for (const int p : preds(id)) ++first[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<int> succs(first[n]);
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (int id = 0; id < size(); ++id) {
      for (const int p : preds(id)) {
        succs[next[static_cast<std::size_t>(p)]++] = id;
      }
    }
  }

  Rng rng(seed);
  std::vector<int> order;
  order.reserve(n);

  std::vector<int> segment;
  std::vector<int> pending;  // scratch for the per-segment ready draw
  const auto flush = [&] {
    if (segment.empty()) return;
    // indexed by position in `segment`
    std::vector<int> indegree(segment.size(), 0);
    std::vector<int> pos_of(n, -1);
    for (std::size_t i = 0; i < segment.size(); ++i) {
      pos_of[static_cast<std::size_t>(segment[i])] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < segment.size(); ++i) {
      for (const int p : preds(segment[i])) {
        if (pos_of[static_cast<std::size_t>(p)] >= 0) ++indegree[i];
      }
    }
    pending.clear();
    for (std::size_t i = 0; i < segment.size(); ++i) {
      if (indegree[i] == 0) pending.push_back(static_cast<int>(i));
    }
    while (!pending.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(pending.size())));
      const int at = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
      const auto id = static_cast<std::size_t>(
          segment[static_cast<std::size_t>(at)]);
      order.push_back(static_cast<int>(id));
      for (std::size_t e = first[id]; e < first[id + 1]; ++e) {
        const int sp = pos_of[static_cast<std::size_t>(succs[e])];
        if (sp >= 0 && --indegree[static_cast<std::size_t>(sp)] == 0) {
          pending.push_back(sp);
        }
      }
    }
    segment.clear();
  };

  for (int id = 0; id < size(); ++id) {
    if (footprint(id).empty()) {
      flush();
      order.push_back(id);  // sequence point: keep its insertion slot
    } else {
      segment.push_back(id);
    }
  }
  flush();
  return order;
}

// ----------------------------------------------------------------------
// The arena
// ----------------------------------------------------------------------

TaskGraph::Arena::Arena(Arena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      cur_(std::exchange(other.cur_, nullptr)),
      left_(std::exchange(other.left_, 0)),
      dtors_(std::exchange(other.dtors_, nullptr)) {}

TaskGraph::Arena& TaskGraph::Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    destroy();
    chunks_ = std::move(other.chunks_);
    cur_ = std::exchange(other.cur_, nullptr);
    left_ = std::exchange(other.left_, 0);
    dtors_ = std::exchange(other.dtors_, nullptr);
  }
  return *this;
}

void* TaskGraph::Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  const std::size_t need = bytes + align - 1;  // room to align inside
  if (need > kChunkBytes / 4) {
    // Its own block; the current chunk keeps its room for small
    // requests.
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(need));
    auto* p = chunks_.back().get();
    return p + (-reinterpret_cast<std::uintptr_t>(p) & (align - 1));
  }
  chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
  cur_ = chunks_.back().get();
  left_ = kChunkBytes;
  return allocate(bytes, align);
}

void TaskGraph::Arena::destroy() noexcept {
  for (Dtor* d = dtors_; d != nullptr; d = d->next) d->destroy(d->obj);
  dtors_ = nullptr;
  chunks_.clear();
  cur_ = nullptr;
  left_ = 0;
}

}  // namespace ftla::runtime
