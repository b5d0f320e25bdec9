#pragma once
// Order statistics for the benchmark's reports.
//
// Percentiles use the nearest-rank definition on the sorted samples: the
// p-quantile of n samples is the value at rank ceil(p * n). A tail
// percentile is only reported when at least kMinBeyond samples lie strictly
// beyond its rank, so a "p99" always rests on enough tail samples to mean
// something (the benchmark treats an unsupported p99 as an invalid run).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
  double value{0};
  std::size_t samples{0};  ///< sample count the quantile was taken over
  std::size_t beyond{0};   ///< samples ranked strictly after it
  /// True when at least kMinBeyond samples lie beyond the reported rank.
  [[nodiscard]] bool supported() const noexcept { return beyond >= kMinBeyond; }
};

/// Nearest-rank quantile of `samples` (sorted in place), p in (0, 1].
/// An empty input yields a zero, unsupported quantile.
inline Quantile quantile(std::vector<double>& samples, double p) {
  Quantile q;
  q.samples = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const double exact = std::ceil(p * static_cast<double>(samples.size()));
  std::size_t rank = exact < 1 ? 1 : static_cast<std::size_t>(exact);
  rank = std::min(rank, samples.size());
  q.value = samples[rank - 1];
  q.beyond = samples.size() - rank;
  return q;
}

/// Median of a copy of `samples`: the middle value, or the mean of the two
/// middle values for an even count (0 for no samples).
[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
}

/// Interquartile mean: the mean of the middle half of the samples (the
/// lowest and highest quarter, rounded down, are dropped). Steadier than the
/// median when the samples fall in a few discrete clusters, where the median
/// jumps from cluster to cluster with the counts.
[[nodiscard]] inline double iq_mean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t cut = samples.size() / 4;
  double s = 0;
  for (std::size_t i = cut; i < samples.size() - cut; ++i) s += samples[i];
  return s / static_cast<double>(samples.size() - 2 * cut);
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double s = 0;
  for (const double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

}  // namespace perfbench
