#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace perfbench {

KeySampler::KeySampler(const std::vector<data::TrustPair>* keys,
                       int num_users, KeyChoice choice, double zipf_s,
                       uint64_t seed)
    : keys_(keys), num_users_(num_users), choice_(choice), rng_(seed) {
  if (choice_ == KeyChoice::kUniformUsers) {
    AHNTP_CHECK_GT(num_users_, 1);
    return;
  }
  AHNTP_CHECK(keys_ != nullptr && !keys_->empty());
  if (choice_ != KeyChoice::kZipf) return;
  rank_to_key_.resize(keys_->size());
  std::iota(rank_to_key_.begin(), rank_to_key_.end(), size_t{0});
  rng_.Shuffle(&rank_to_key_);
  cdf_.resize(keys_->size());
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

data::TrustPair KeySampler::Next() {
  switch (choice_) {
    case KeyChoice::kUniformUsers: {
      data::TrustPair pair;
      pair.src = static_cast<int>(rng_.NextBounded(num_users_));
      pair.dst = static_cast<int>(rng_.NextBounded(num_users_ - 1));
      if (pair.dst >= pair.src) ++pair.dst;
      return pair;
    }
    case KeyChoice::kUniformList:
      return (*keys_)[rng_.NextBounded(keys_->size())];
    case KeyChoice::kZipf: {
      const double u = rng_.NextDouble();
      size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      rank = std::min(rank, cdf_.size() - 1);
      return (*keys_)[rank_to_key_[rank]];
    }
  }
  return {};
}

std::vector<Op> MakeSchedule(const TrafficConfig& config, KeySampler* sampler,
                             int first_write) {
  AHNTP_CHECK(sampler != nullptr);
  AHNTP_CHECK(config.read_rate > 0.0 && config.seconds > 0.0);
  const int64_t end_ns = static_cast<int64_t>(config.seconds * 1e9);
  ahntp::Rng arrivals(config.seed);
  // Exponential gaps by inversion; 1 - u keeps the log argument in (0, 1].
  auto gap_ns = [&arrivals](double rate) {
    return static_cast<int64_t>(-std::log(1.0 - arrivals.NextDouble()) /
                                rate * 1e9);
  };

  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(config.read_rate * config.seconds * 1.1) +
              16);
  for (int64_t t = gap_ns(config.read_rate); t < end_ns;
       t += gap_ns(config.read_rate)) {
    data::TrustPair pair = sampler->Next();
    ops.push_back(Op{t, false, pair.src, pair.dst});
  }
  if (config.write_rate > 0.0) {
    // Writes arrive evenly spaced from a seeded phase: a Poisson count of
    // ~100 ms applies would swing the share of reads stuck behind one by a
    // tenth from run to run.
    const auto interval = static_cast<int64_t>(1e9 / config.write_rate);
    int index = first_write;
    std::vector<Op> writes;
    for (int64_t t = static_cast<int64_t>(arrivals.NextBounded(interval));
         t < end_ns; t += interval) {
      writes.push_back(Op{t, true, index++, 0});
    }
    std::vector<Op> merged;
    merged.reserve(ops.size() + writes.size());
    std::merge(ops.begin(), ops.end(), writes.begin(), writes.end(),
               std::back_inserter(merged),
               [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; });
    ops = std::move(merged);
  }
  return ops;
}

}  // namespace perfbench
