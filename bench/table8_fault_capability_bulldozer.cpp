// Paper Table VIII: fault-tolerance capability on BULLDOZER64 with a
// 30720 x 30720 Cholesky decomposition.
#include "fault_capability.hpp"

int main(int argc, char** argv) {
  ftla::bench::require_flags(argc, argv, {"--profile-out"});
  ftla::bench::run_fault_capability(
      ftla::sim::bulldozer64(), 30720,
      /*reduced_n=*/1024,
      /*reduced_block=*/128, ftla::bench::profile_out_path(argc, argv));
  return 0;
}
