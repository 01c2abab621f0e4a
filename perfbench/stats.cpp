#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lhd/util/check.hpp"

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double q) {
  LHD_CHECK(!sorted.empty(), "percentile of an empty sample");
  LHD_CHECK(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool percentile_supported(std::size_t n, double q) {
  if (n == 0) return false;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return rank >= 1 && rank <= n && n - rank >= kTailSamples;
}

TimingStats timing_stats(std::vector<double> samples) {
  TimingStats out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = median(samples);
  if (out.count > kTailSamples) {
    out.has_tail = true;
    out.tail = samples[out.count - kTailSamples - 1];
    out.tail_pct = 100.0 * static_cast<double>(out.count - kTailSamples) /
                   static_cast<double>(out.count);
  }
  return out;
}

std::string describe(const std::string& name, const TimingStats& stats,
                     const std::string& unit) {
  std::ostringstream os;
  os << name << ": n=" << stats.count << " median=" << stats.median << " "
     << unit;
  if (stats.has_tail) {
    os << " p" << stats.tail_pct << "=" << stats.tail << " " << unit;
  } else {
    os << " (too few samples for a tail percentile)";
  }
  return os.str();
}

}  // namespace perfbench
