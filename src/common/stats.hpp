// Streaming statistics accumulator (Welford) used by benches and the
// simulator's per-resource utilization reports, plus the nearest-rank
// percentile of raw samples and a fixed-bucket histogram with the same
// percentile rule for the observability layer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace ftla {

class Stats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] long long count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  /// Rebuilds an accumulator from closed-form moments (used by
  /// Histogram::merge, which combines two Welford streams exactly).
  static Stats from_moments(long long n, double mean, double m2, double sum,
                            double min, double max) {
    Stats s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.sum_ = sum;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  long long n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Nearest-rank percentile of an ascending-sorted sample vector: the
/// value at rank max(1, ceil(p/100 * n)) for p clamped to [0, 100]; 0
/// when empty. Histogram::percentile follows the same rank rule over its
/// buckets; this one is exact because the raw samples are kept.
inline double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Fixed-bucket histogram: bucket boundaries are chosen at construction
/// and never move, so two histograms with identical edges merge exactly
/// (the property the metrics registry relies on). Bucket i holds samples
/// with x <= edges[i] (first matching bucket); one implicit overflow
/// bucket catches everything above the last edge.
///
/// Percentile contract (deterministic nearest-rank): for p > 0,
/// percentile(p) is the upper edge of the bucket containing the sample
/// of rank max(1, ceil(p/100 * count)), clamped to [min(), max()];
/// percentile(0) is exactly min() (the rank-0 convention). Properties
/// exporters and their tests rely on:
///   * pure function of (edges, hits, min, max) — two histograms with
///     the same state report byte-identical percentiles, and a merge of
///     partial streams matches the single-stream histogram exactly;
///   * no interpolation, so no accumulation-order float sensitivity;
///   * edge cases: empty -> 0; a single sample or an all-equal stream
///     collapses to that value via the min/max clamp (the overflow
///     bucket's +inf upper bound clamps to max()).
class Histogram {
 public:
  /// Default edges: 2-per-decade log spacing over [1e-9, 1e3] seconds —
  /// wide enough for virtual-time latencies from sub-microsecond kernel
  /// gaps to full paper-scale factorizations.
  Histogram() : Histogram(log_edges(1e-9, 1e3, 2)) {}

  /// `upper_edges` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_edges)
      : edges_(std::move(upper_edges)), hits_(edges_.size() + 1, 0) {
    FTLA_CHECK(!edges_.empty());
    for (std::size_t i = 1; i < edges_.size(); ++i) {
      FTLA_CHECK(edges_[i - 1] < edges_[i]);
    }
  }

  /// Log-spaced edges covering [lo, hi] with `per_decade` buckets per
  /// factor of 10.
  static std::vector<double> log_edges(double lo, double hi,
                                       int per_decade) {
    FTLA_CHECK(lo > 0.0 && hi > lo && per_decade >= 1);
    std::vector<double> edges;
    const double step = std::pow(10.0, 1.0 / per_decade);
    for (double e = lo; e < hi * (1.0 + 1e-12); e *= step) edges.push_back(e);
    return edges;
  }

  void add(double x) {
    stats_.add(x);
    ++hits_[bucket_index(x)];
  }

  [[nodiscard]] long long count() const noexcept { return stats_.count(); }
  [[nodiscard]] double sum() const noexcept { return stats_.sum(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return hits_.size();
  }
  /// Inclusive upper bound of bucket i (+inf for the overflow bucket).
  [[nodiscard]] double bucket_upper(std::size_t i) const {
    return i < edges_.size() ? edges_[i]
                             : std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] long long bucket_hits(std::size_t i) const {
    return hits_[i];
  }
  [[nodiscard]] const std::vector<double>& edges() const noexcept {
    return edges_;
  }

  /// Nearest-rank percentile for p in [0, 100]; 0 when empty. See the
  /// class comment for the full contract.
  [[nodiscard]] double percentile(double p) const {
    const long long n = count();
    if (n == 0) return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    if (clamped == 0.0) return min();
    long long rank = static_cast<long long>(
        std::ceil(clamped / 100.0 * static_cast<double>(n)));
    rank = std::clamp(rank, 1LL, n);
    long long cum = 0;
    for (std::size_t i = 0; i < hits_.size(); ++i) {
      cum += hits_[i];
      if (cum >= rank) {
        return std::clamp(bucket_upper(i), min(), max());
      }
    }
    return max();  // unreachable: cum == n covers every rank
  }
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  /// Merge another histogram with identical edges.
  void merge(const Histogram& other) {
    FTLA_CHECK_MSG(edges_ == other.edges_,
                   "histogram merge requires identical bucket edges");
    for (std::size_t i = 0; i < hits_.size(); ++i) hits_[i] += other.hits_[i];
    // Welford streams do not compose exactly; fold the scalar summary by
    // replaying the closed-form merge for count/mean/M2.
    merge_stats(other.stats_);
  }

 private:
  [[nodiscard]] std::size_t bucket_index(double x) const {
    const auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
    return static_cast<std::size_t>(it - edges_.begin());
  }

  // Chan et al. parallel merge of two (count, mean, M2) Welford streams.
  void merge_stats(const Stats& o) {
    const long long na = stats_.count();
    const long long nb = o.count();
    if (nb == 0) return;
    if (na == 0) {
      stats_ = o;
      return;
    }
    const double delta = o.mean() - stats_.mean();
    const double mean =
        stats_.mean() + delta * static_cast<double>(nb) /
                            static_cast<double>(na + nb);
    const double m2 = stats_.variance() * static_cast<double>(na - 1) +
                      o.variance() * static_cast<double>(nb - 1) +
                      delta * delta * static_cast<double>(na) *
                          static_cast<double>(nb) /
                          static_cast<double>(na + nb);
    stats_ = Stats::from_moments(na + nb, mean, m2, stats_.sum() + o.sum(),
                                 std::min(stats_.min(), o.min()),
                                 std::max(stats_.max(), o.max()));
  }

  std::vector<double> edges_;
  std::vector<long long> hits_;
  Stats stats_;
};

}  // namespace ftla
