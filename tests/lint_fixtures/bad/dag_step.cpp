// Fixture: step() call sites — the drivers' helper that runs a body at
// once (bulk) or hands it to add_task (DAG). Default captures in the
// body and options without a phase must fire under src/abft; the
// by-reference footprint builders, which append to the reused buffer,
// must not.
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
  using Footprints = std::vector<runtime::Footprint>;
  template <class Fp, class Body>
  void step(const char* name, Fp&& fp, Body&& body,
            const runtime::TaskOptions& opts, int stream);
  void iteration(runtime::TileKey t, int j);
};

void Driver::iteration(runtime::TileKey t, int j) {
  runtime::TaskOptions base;
  base.phase = 1;
  runtime::TaskOptions bare;
  step(
      "body_by_ref",
      [&](Footprints& fp) {
        for (int k = 0; k < j; ++k) fp.push_back(runtime::read(t));
      },
      [&](const runtime::TaskContext&) { (void)j; },  // line 37
      base, 0);
  step(
      "body_by_value",
      [&](Footprints& fp) { fp.push_back(runtime::read(t)); },
      [=](const runtime::TaskContext&) { (void)j; },  // line 42
      base, 0);
  step(  // line 44
      "phaseless_options",
      [&](Footprints& fp) { fp.push_back(runtime::read(t)); },
      [t](const runtime::TaskContext&) { (void)t; }, bare, 0);
  if (j > 0) step("no_options", [&](Footprints&) {},  // line 48
                  [t](const runtime::TaskContext&) { (void)t; });
}
