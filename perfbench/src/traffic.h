#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/split.h"

namespace perfbench {

namespace data = ahntp::data;

/// How reads pick their (src, dst) pair.
enum class KeyChoice {
  /// Zipf-skewed over a fixed key list (the held-out test pairs): rank r
  /// is drawn with weight 1 / (r + 1)^s, so hot keys repeat.
  kZipf,
  /// Uniform over the key list.
  kUniformList,
  /// Uniform random (src, dst), src != dst, over all users.
  kUniformUsers,
};

struct TrafficConfig {
  /// Offered rates, per second. Reads arrive as a Poisson process, writes
  /// evenly spaced; the two streams are merged by due time.
  double read_rate = 1000.0;
  double write_rate = 0.0;
  /// How long the schedule runs, in seconds.
  double seconds = 1.0;
  uint64_t seed = 1;
};

/// One scheduled operation. `due_ns` counts from the start of the phase.
struct Op {
  int64_t due_ns = 0;
  bool is_write = false;
  /// Reads: the pair to score. Writes: `src` is the index of the delta in
  /// the workload's delta stream.
  int src = 0;
  int dst = 0;
};

/// Draws keys for reads. Pure in (key list, user count, choice, s, rng).
class KeySampler {
 public:
  KeySampler(const std::vector<data::TrustPair>* keys, int num_users,
             KeyChoice choice, double zipf_s, uint64_t seed);

  data::TrustPair Next();

 private:
  const std::vector<data::TrustPair>* keys_;
  int num_users_;
  KeyChoice choice_;
  /// Zipf: a seeded permutation of key indices (rank -> key) and the
  /// cumulative rank weights.
  std::vector<size_t> rank_to_key_;
  std::vector<double> cdf_;
  ahntp::Rng rng_;
};

/// The full operation schedule of one open-loop phase: Poisson arrivals at
/// the configured rates, reads keyed by `sampler`, writes numbered in order
/// from `first_write`. The same config and sampler state give the same
/// sequence, op for op.
std::vector<Op> MakeSchedule(const TrafficConfig& config, KeySampler* sampler,
                             int first_write = 0);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
