// Fixture: well-formed step() call sites — by-reference footprint
// builders appending to the reused buffer, explicitly captured bodies,
// phase-bearing options, literal names — plus a declaration and an
// out-of-line definition of step itself, which are not calls. All must
// stay silent.
#include <vector>

namespace runtime {
struct TileKey {
  int matrix = 0;
};
struct Footprint;
Footprint read(TileKey t);
Footprint rw(TileKey t);
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
  void iteration(const std::vector<runtime::TileKey>& tiles, int j);
  void finish();

  Footprints fp_;
};

template <class Fp, class Body>
void Driver::step(const char* name, Fp&& fp, Body&& body,
                  const runtime::TaskOptions& opts, int stream) {
  (void)name;
  fp_.clear();
  fp(fp_);
  (void)opts;
  body(runtime::TaskContext{});
  (void)stream;
}

void Driver::iteration(const std::vector<runtime::TileKey>& tiles, int j) {
  runtime::TaskOptions update;
  update.phase = 2;
  step(
      "footprint_by_ref",
      [&](Footprints& fp) {
        for (const runtime::TileKey& t : tiles) fp.push_back(runtime::rw(t));
      },
      [this, j](const runtime::TaskContext&) { (void)j; }, update, 0);
  if (j > 0) {
    step(
        "inline_phase",
        [&](Footprints& fp) { fp.push_back(runtime::read(tiles[0])); },
        [j](const runtime::TaskContext&) { (void)j; },
        runtime::TaskOptions{.phase = 3}, 1);
  } else step("after_else", [](Footprints&) {},
              [j](const runtime::TaskContext&) { (void)j; }, update, 1);
}
