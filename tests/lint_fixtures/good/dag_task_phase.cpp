// Fixture: every add_task call names its phase (a named TaskOptions
// assigned in the enclosing function, a copied one, or a designated
// initializer) — must stay silent.
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
  int iteration = 0;
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

void build(runtime::TaskGraph& g, runtime::TileKey t) {
  runtime::TaskOptions opts;
  opts.phase = 1;
  g.add_task("named_options", {runtime::read(t)},
             [t](const runtime::TaskContext&) { (void)t; }, opts);

  runtime::TaskOptions update = opts;
  update.phase = 2;
  g.add_task("copied_options", {runtime::write(t)},
             [t](const runtime::TaskContext&) { (void)t; }, update);

  g.add_task("braced_options", {runtime::read(t)},
             [t](const runtime::TaskContext&) { (void)t; },
             runtime::TaskOptions{.phase = 3});
}
