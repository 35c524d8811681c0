#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) {
    out.value = std::numeric_limits<double>::quiet_NaN();
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank: the smallest index whose cumulative share reaches q.
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(clamped_q * static_cast<double>(n)));
  size_t index = rank == 0 ? 0 : rank - 1;
  // A tail percentile needs at least kTailSamples samples beyond it.
  if (clamped_q > 0.5) {
    const size_t highest = n > kTailSamples ? n - 1 - kTailSamples : 0;
    index = std::min(index, std::max(highest, (n - 1) / 2));
  }
  out.value = samples[index];
  out.used = static_cast<double>(index + 1) / static_cast<double>(n);
  out.used = std::min(out.used, clamped_q);
  return out;
}

Quantile WindowedPercentile(const std::vector<std::vector<double>>& windows,
                            double q) {
  Quantile out;
  out.used = q;
  out.windows = 0;
  std::vector<double> values;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    Quantile quantile = Percentile(window, q);
    values.push_back(quantile.value);
    out.used = std::min(out.used, quantile.used);
    out.count += quantile.count;
    ++out.windows;
  }
  out.value = values.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : Median(std::move(values));
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

std::string Describe(const char* name, const Quantile& quantile) {
  char buffer[160];
  if (quantile.windows > 1) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s=%.6g (median of %zu windows' p%.2f, n=%zu in all)", name,
                  quantile.value, quantile.windows, quantile.used * 100.0,
                  quantile.count);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%s=%.6g (p%.2f of n=%zu)", name,
                  quantile.value, quantile.used * 100.0, quantile.count);
  }
  return buffer;
}

}  // namespace perfbench
