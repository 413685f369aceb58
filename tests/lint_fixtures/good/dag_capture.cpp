// Fixture: explicit captures (including named by-reference ones) and
// array subscripts inside add_task bodies — must stay silent.
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

void build(runtime::TaskGraph& g, runtime::TileKey t, int j,
           const std::vector<int>& lengths) {
  runtime::TaskOptions opts;
  opts.phase = 1;
  g.add_task("explicit_captures", {runtime::read(t)},
             [t, j](const runtime::TaskContext&) {
               (void)t;
               (void)j;
             },
             opts);
  g.add_task("named_reference_capture", {runtime::write(t)},
             [&lengths, j](const runtime::TaskContext&) {
               (void)lengths[j];
             },
             opts);
}
