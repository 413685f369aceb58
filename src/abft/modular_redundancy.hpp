// Double and Triple Modular Redundancy baselines (paper §I).
//
// The paper motivates ABFT by contrasting it with the general-purpose
// alternatives: DMR detects soft errors by running the computation twice
// and comparing (~100% overhead, detection only), TMR corrects them by
// running three times and voting (~200% overhead). These drivers
// implement exactly that — temporal redundancy of the NoFT hybrid
// Cholesky on the simulated node — so the overhead gap against ABFT can
// be measured rather than asserted.
#pragma once

#include "abft/options.hpp"
#include "common/matrix.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"

namespace ftla::abft {

// Both share one replica loop: an attempt stops at the first replica
// that fail-stops, and a failed attempt is re-run up to twice. Only the
// first replica of the first attempt sees `injector`; `block_size` 0
// selects the machine profile's default.

/// Runs the factorization twice and compares the factors elementwise.
/// A mismatch proves a transient error struck one replica; the pair is
/// re-run (DMR can detect but not tell which replica is right).
/// Numeric mode only for fault experiments; TimingOnly prices the
/// schedule (two factorizations + one comparison sweep).
CholeskyResult dmr_cholesky(sim::Machine& machine, Matrix<double>* a, int n,
                            int block_size = 0,
                            fault::Injector* injector = nullptr);

/// Runs the factorization three times and majority-votes every element
/// of the lower triangle. An element where all three replicas disagree
/// is unrecoverable and forces a re-run.
CholeskyResult tmr_cholesky(sim::Machine& machine, Matrix<double>* a, int n,
                            int block_size = 0,
                            fault::Injector* injector = nullptr);

}  // namespace ftla::abft
