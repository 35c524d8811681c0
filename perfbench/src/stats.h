#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// One percentile read from raw samples, with the evidence behind it.
struct Quantile {
  /// The sample at the percentile actually used; NaN when there are no
  /// samples.
  double value = 0.0;
  /// The percentile used, in [0, 1]. For a tail percentile (above the
  /// median) it is lower than the one asked for when the sample is too
  /// small to leave kTailSamples samples beyond that.
  double used = 0.0;
  size_t count = 0;
  /// Windows the value is the median over (1 for a plain percentile).
  size_t windows = 1;
};

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kTailSamples = 10;

/// The nearest-rank percentile `q` of `samples`. A tail percentile (q above
/// one half) is clamped down to the highest rank that still has
/// kTailSamples samples above it, but never below the median. Every
/// percentile the benchmark reports comes from here; the registry's
/// log-bucket histograms are never read for percentiles.
Quantile Percentile(std::vector<double> samples, double q);

/// The median over `windows` of each window's Percentile(window, q): one
/// burst of interference then moves a single window, not the figure.
/// `used` is the lowest percentile any window used; `count` sums the
/// windows' samples. Empty windows are skipped.
Quantile WindowedPercentile(const std::vector<std::vector<double>>& windows,
                            double q);

/// The plain median (mean of the middle two for an even count) of a small
/// set of repeated measurements, such as set-up times; 0 when empty.
double Median(std::vector<double> samples);

/// Mean of `samples`; 0 for an empty vector.
double Mean(const std::vector<double>& samples);

/// "p99=12.5 (used p99.0, n=4000)" for the human-readable report.
std::string Describe(const char* name, const Quantile& quantile);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
