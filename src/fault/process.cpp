#include "fault/process.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ftla::fault {

FaultProcess::FaultProcess(ProcessConfig cfg, int nblocks)
    : cfg_(cfg),
      nblocks_(nblocks),
      synth_rng_(cfg.seed ^ 0x9e3779b97f4a7c15ULL) {
  FTLA_CHECK(cfg_.mtbf_s > 0.0);
  FTLA_CHECK(nblocks_ >= 1);
  FTLA_CHECK(cfg_.devices >= 1);
  dev_.reserve(static_cast<std::size_t>(cfg_.devices));
  for (int d = 0; d < cfg_.devices; ++d) {
    // Device 0 is seeded exactly like the historical single-device
    // process; siblings mix the device id in with an odd multiplier so
    // no derived seed collides with the synth stream's seed ^ golden.
    const std::uint64_t seed =
        d == 0 ? cfg_.seed
               : cfg_.seed ^
                     (0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(d));
    dev_.emplace_back(seed);
    // First arrival: exponential gap from t = 0.
    dev_.back().next_time =
        -cfg_.mtbf_s * std::log(1.0 - dev_.back().rng.next_double());
  }
}

FaultProcess::DeviceStream& FaultProcess::active_stream() {
  return dev_[static_cast<std::size_t>(active_)];
}

void FaultProcess::set_active_device(int device) {
  FTLA_CHECK(device >= 0 && device < static_cast<int>(dev_.size()));
  active_ = device;
}

void FaultProcess::set_rate_multiplier(int device, double multiplier) {
  FTLA_CHECK(device >= 0 && device < static_cast<int>(dev_.size()));
  FTLA_CHECK(multiplier > 0.0);
  auto& ds = dev_[static_cast<std::size_t>(device)];
  // Rescale the already-drawn pending gap so the change is exact when
  // applied before the device's first generated arrival.
  ds.next_time *= ds.rate_multiplier / multiplier;
  ds.rate_multiplier = multiplier;
}

int FaultProcess::arrivals_generated() const noexcept {
  int total = 0;
  for (const auto& ds : dev_) total += ds.generated;
  return total;
}

int FaultProcess::arrivals_generated(int device) const {
  FTLA_CHECK(device >= 0 && device < static_cast<int>(dev_.size()));
  return dev_[static_cast<std::size_t>(device)].generated;
}

void FaultProcess::generate_until(DeviceStream& ds, double now) {
  // Relative category weights of an arrival.
  constexpr double kComputing = 0.35;
  constexpr double kStorage = 0.45;
  constexpr double kTransfer = 0.20;
  constexpr double kWeights = kComputing + kStorage + kTransfer;
  // The storm cap is per-device: a noisy sibling never consumes this
  // device's injection budget.
  while (ds.next_time <= now && ds.generated < cfg_.max_arrivals) {
    const double u = ds.rng.next_double() * kWeights;
    int cat = 0;  // FaultType::Computing
    if (u >= kComputing) {
      cat = u < kComputing + kStorage ? 1 : 2;
    }
    ++ds.pending[cat];
    ++ds.generated;
    ds.next_time += -(cfg_.mtbf_s / ds.rate_multiplier) *
                    std::log(1.0 - ds.rng.next_double());
  }
}

int FaultProcess::drain(FaultType type, double now) {
  DeviceStream& ds = active_stream();
  generate_until(ds, now);
  const int idx = static_cast<int>(type);
  const int due = ds.pending[idx];
  ds.pending[idx] = 0;
  return due;
}

std::vector<int> FaultProcess::sample_bits() {
  // One anchor bit in the high mantissa / low exponent range keeps the
  // corruption macroscopic (visible to both verification and the SDC
  // oracle); extra bits defeat SEC-DED ECC. Bits stay in 8..61 so the
  // exponent can never become all-ones — a flip never yields Inf/NaN.
  // A single-bit flip is absorbed when the run models ECC.
  constexpr double kSingleBit = 0.10;
  if (synth_rng_.next_double() < kSingleBit) {
    return {synth_rng_.uniform_int(44, 56)};
  }
  std::vector<int> bits;
  bits.push_back(synth_rng_.uniform_int(44, 56));
  bits.push_back(synth_rng_.uniform_int(8, 43));
  if (synth_rng_.next_double() < 0.5) {
    bits.push_back(synth_rng_.uniform_int(57, 61));
  }
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  return bits;
}

std::vector<FaultSpec> FaultProcess::synthesize(FaultType type, Op op,
                                                int iteration) {
  std::vector<FaultSpec> out;
  const int j = std::clamp(iteration, 0, nblocks_ - 1);
  if (type == FaultType::Computing) {
    FaultSpec s;
    s.type = FaultType::Computing;
    s.op = op;
    s.iteration = iteration;
    // Leave the block at the driver's default output target; randomize
    // the element so strikes spread over the block.
    s.elem_row = synth_rng_.uniform_int(0, 63);
    s.elem_col = synth_rng_.uniform_int(0, 63);
    s.magnitude = synth_rng_.uniform(1.0e3, 1.0e5);
    out.push_back(s);
    return out;
  }
  FTLA_CHECK(type == FaultType::Storage);
  FaultSpec s;
  s.type = FaultType::Storage;
  s.op = op;
  s.iteration = iteration;
  if (cfg_.explicit_blocks) {
    // Live lower-triangle region: any block at or below the current
    // panel row whose column is already decomposed or being decomposed.
    // Retired rows (above j) are never re-read by the inner-product
    // algorithm, so a strike there could not influence the run.
    const int bi = synth_rng_.uniform_int(j, nblocks_ - 1);
    const int bk = synth_rng_.uniform_int(0, std::min(bi, j));
    s.block_row = bi;
    s.block_col = bk;
  }
  s.elem_row = synth_rng_.uniform_int(0, 63);
  s.elem_col = synth_rng_.uniform_int(0, 63);
  s.bits = sample_bits();
  // A storage strike hits a checksum row instead of matrix data, or a
  // data strike brings a second flip in its column.
  constexpr double kChecksumTarget = 0.15;
  constexpr double kDoubleFault = 0.10;
  s.target_checksum = synth_rng_.next_double() < kChecksumTarget;
  out.push_back(s);
  if (!s.target_checksum && synth_rng_.next_double() < kDoubleFault) {
    // Correlated double fault: a second flip in the same column of the
    // same block. Two errors in one block column exceed the scheme's
    // correction capability and must escalate (rollback/rerun). Rows
    // stay in 0..15 so they remain distinct after the driver clamps
    // them to the block size (campaign blocks are at least 16 wide).
    FaultSpec t = s;
    out.back().elem_row = synth_rng_.uniform_int(0, 14);
    t.elem_row = synth_rng_.uniform_int(out.back().elem_row + 1, 15);
    t.bits = sample_bits();
    out.push_back(t);
  }
  return out;
}

}  // namespace ftla::fault
