// Fixture: step() call sites — the drivers' helper that runs a body at
// once (bulk) or hands it to add_task (DAG). Default captures in the
// body and options without a phase must fire under src/abft; the
// by-reference footprint builders must not.
#include <vector>

namespace runtime {
struct TileKey {
  int matrix = 0;
};
struct Footprint;
Footprint read(TileKey t);
struct TaskContext {};
struct TaskOptions {
  int phase = 0;
};
}  // namespace runtime

struct Driver {
  template <class Fp, class Body>
  void step(const char* name, Fp&& fp, Body&& body,
            const runtime::TaskOptions& opts, int stream);
  void iteration(runtime::TileKey t, int j);
};

void Driver::iteration(runtime::TileKey t, int j) {
  runtime::TaskOptions base;
  base.phase = 1;
  runtime::TaskOptions bare;
  step("body_by_ref", [&] { return std::vector{runtime::read(t)}; },
       [&](const runtime::TaskContext&) { (void)j; },  // line 31
       base, 0);
  step("body_by_value", [&] { return std::vector{runtime::read(t)}; },
       [=](const runtime::TaskContext&) { (void)j; },  // line 34
       base, 0);
  step("phaseless_options",  // line 36
       [&] { return std::vector{runtime::read(t)}; },
       [t](const runtime::TaskContext&) { (void)t; }, bare, 0);
  if (j > 0) step("no_options", [&] { return std::vector<int>{}; },  // 39
                  [t](const runtime::TaskContext&) { (void)t; });
}
