// Fixture: default lambda captures inside add_task calls — each must
// fire dag-capture-hygiene under src/abft.
#include <initializer_list>
#include <span>

namespace runtime {
struct TileKey {
  int matrix = 0;
};
struct Footprint;
Footprint read(TileKey t);
Footprint write(TileKey t);
struct TaskContext {};
struct TaskOptions {
  int phase = 0;
};
struct TaskGraph {
  template <class Body>
  int add_task(const char* name, std::span<const Footprint> footprint,
               Body&& body, TaskOptions opts = {});
  template <class Body>
  int add_task(const char* name, std::initializer_list<Footprint> footprint,
               Body&& body, TaskOptions opts = {});
};
}  // namespace runtime

void build(runtime::TaskGraph& g, runtime::TileKey t, int j) {
  runtime::TaskOptions opts;
  opts.phase = 1;
  g.add_task("capture_all_by_ref", {runtime::read(t)},
             [&](const runtime::TaskContext&) { (void)j; }, opts);
  g.add_task("capture_all_by_value", {runtime::write(t)},
             [=](const runtime::TaskContext&) { (void)j; }, opts);
  g.add_task("ref_default_with_extras", {runtime::read(t)},
             [&, j](const runtime::TaskContext&) { (void)j; }, opts);
}
