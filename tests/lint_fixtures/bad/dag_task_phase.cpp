// Fixture: add_task call sites that never name an observability
// phase — all three must fire dag-task-phase under src/abft.
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
  g.add_task("lambda_last", {runtime::read(t)},  // line 29: no options
             [t](const runtime::TaskContext&) { (void)t; });

  runtime::TaskOptions opts;
  opts.iteration = 3;
  g.add_task("phaseless_options", {runtime::write(t)},  // line 34
             [t](const runtime::TaskContext&) { (void)t; }, opts);

  g.add_task("default_options", {runtime::read(t)},  // line 37
             [t](const runtime::TaskContext&) { (void)t; }, {});
}
