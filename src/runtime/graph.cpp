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
  int& stamp = linked_into_[static_cast<std::size_t>(from)];
  if (from == to || stamp == to) return;
  stamp = to;
  nodes_[static_cast<std::size_t>(to)].preds.push_back(from);
  nodes_[static_cast<std::size_t>(from)].succs.push_back(to);
  ++edges_;
}

int TaskGraph::add_task(std::string name, std::vector<Footprint> footprint,
                        TaskBody body, TaskOptions opts) {
  const int id = static_cast<int>(nodes_.size());
  TaskNode node;
  node.name = std::move(name);
  node.footprint = std::move(footprint);
  node.body = std::move(body);
  node.opts = opts;
  nodes_.push_back(std::move(node));
  linked_into_.push_back(-1);

  for (const Footprint& f : nodes_.back().footprint) {
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
  Rng rng(seed);
  std::vector<int> order;
  order.reserve(nodes_.size());

  std::vector<int> segment;
  std::vector<int> pending;  // scratch for the per-segment ready draw
  const auto flush = [&] {
    if (segment.empty()) return;
    // indexed by position in `segment`
    std::vector<int> indegree(segment.size(), 0);
    std::vector<int> pos_of(static_cast<std::size_t>(size()), -1);
    for (std::size_t i = 0; i < segment.size(); ++i) {
      pos_of[static_cast<std::size_t>(segment[i])] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < segment.size(); ++i) {
      for (const int p : nodes_[static_cast<std::size_t>(segment[i])].preds) {
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
      const int id = segment[static_cast<std::size_t>(at)];
      order.push_back(id);
      for (const int s : nodes_[static_cast<std::size_t>(id)].succs) {
        const int sp = pos_of[static_cast<std::size_t>(s)];
        if (sp >= 0 && --indegree[static_cast<std::size_t>(sp)] == 0) {
          pending.push_back(sp);
        }
      }
    }
    segment.clear();
  };

  for (int id = 0; id < size(); ++id) {
    if (nodes_[static_cast<std::size_t>(id)].footprint.empty()) {
      flush();
      order.push_back(id);  // sequence point: keep its insertion slot
    } else {
      segment.push_back(id);
    }
  }
  flush();
  return order;
}

}  // namespace ftla::runtime
