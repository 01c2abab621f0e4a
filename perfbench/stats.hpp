#pragma once
// Timing statistics computed from raw samples. The library's obs
// histograms keep only count/min/mean/max, which cannot back a percentile
// claim, so the benchmark keeps every sample and reduces it here.
//
// Percentiles use the nearest-rank rule: the q-quantile of n sorted samples
// is sorted[ceil(q * n) - 1]. A percentile is only reported when at least
// ten samples lie beyond it, so the tail figure rests on more than a
// handful of outliers.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of an ascending-sorted sample.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (mean of the two middle values for an even
/// count, so two runs of the same data agree exactly). 0 for no samples.
double median(std::vector<double> samples);

/// Whether the nearest-rank q-quantile of n samples has at least
/// kTailSamples samples beyond it.
bool percentile_supported(std::size_t n, double q);

/// Summary of one timing sample set.
struct TimingStats {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest percentile with >= kTailSamples samples beyond it: the value
  /// sorted[n - kTailSamples - 1] and its level 100 * (n - kTailSamples) / n.
  /// has_tail is false below kTailSamples + 1 samples.
  bool has_tail = false;
  double tail = 0.0;
  double tail_pct = 0.0;
};

TimingStats timing_stats(std::vector<double> samples);

/// "name: n=…, median=…, p99.5=…" in the sample's own unit.
std::string describe(const std::string& name, const TimingStats& stats,
                     const std::string& unit);

}  // namespace perfbench
