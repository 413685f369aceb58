// Paper Table VII: fault-tolerance capability on TARDIS with a
// 20480 x 20480 Cholesky decomposition.
#include "fault_capability.hpp"

int main(int argc, char** argv) {
  ftla::bench::require_flags(argc, argv, {"--profile-out"});
  ftla::bench::run_fault_capability(
      ftla::sim::tardis(), 20480,
      /*reduced_n=*/1024,
      /*reduced_block=*/128, ftla::bench::profile_out_path(argc, argv));
  return 0;
}
