#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/backend.h"
#include "serve/mutation.h"

namespace perfbench {

namespace data = ahntp::data;

/// Monotonic nanoseconds on the clock every bench-side span uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One backend call seen by ProbedBackend.
struct BatchRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<data::TrustPair> pairs;
  /// Registry deltas over the call (0 while the registry is off).
  int64_t shard_faults = 0;
  int64_t shard_hits = 0;
};

/// One delta apply seen by ProbedBackend.
struct ApplyRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Per-stage seconds of this apply, read as deltas of the
  /// dynamic.apply.*_seconds histogram sums (0 while the registry is off).
  double analytics_s = 0.0;
  double hypergroups_s = 0.0;
  double diff_s = 0.0;
  double refresh_s = 0.0;
  double plan_s = 0.0;
  int64_t dirty_users = 0;
  int64_t pagerank_iterations = 0;
};

/// A decorator in front of the server's backends: forwards every call to
/// the wrapped ScoreBackend (and, when given, MutationSink) unchanged and
/// counts calls. With recording on it also keeps one record per call —
/// its start, end, pairs, and the registry counters it moved — which the
/// traced run turns into per-layer spans. Scoring and applies are invoked
/// only from the server's dispatcher thread; the records are read after
/// the server has shut down.
class ProbedBackend : public ahntp::serve::ScoreBackend,
                      public ahntp::serve::MutationSink {
 public:
  /// `scores` must be non-null; `mutations` may be null for a read-only
  /// backend. Both must outlive the decorator.
  ProbedBackend(ahntp::serve::ScoreBackend* scores,
                ahntp::serve::MutationSink* mutations);

  ahntp::Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override;
  ahntp::Result<ahntp::serve::BatchScores> ScoreBatchWithConfidence(
      const std::vector<data::TrustPair>& pairs) override;
  std::string name() const override { return scores_->name(); }
  int64_t generation() const override { return scores_->generation(); }

  ahntp::Result<ahntp::graph::DeltaReceipt> ApplyMutation(
      const ahntp::graph::GraphDelta& delta) override;

  void set_recording(bool on) { recording_ = on; }
  /// Moves the records out and clears them.
  std::vector<BatchRecord> TakeBatches();
  std::vector<ApplyRecord> TakeApplies();

  int64_t score_calls() const { return score_calls_; }
  int64_t scored_pairs() const { return scored_pairs_; }
  int64_t apply_calls() const { return apply_calls_; }
  /// Wall time spent inside the wrapped backend's scoring calls.
  int64_t score_busy_ns() const { return score_busy_ns_; }

 private:
  template <typename Call>
  auto TimedScore(const std::vector<data::TrustPair>& pairs, Call call);

  ahntp::serve::ScoreBackend* scores_;
  ahntp::serve::MutationSink* mutations_;
  bool recording_ = false;
  int64_t score_calls_ = 0;
  int64_t scored_pairs_ = 0;
  int64_t apply_calls_ = 0;
  int64_t score_busy_ns_ = 0;
  std::vector<BatchRecord> batches_;
  std::vector<ApplyRecord> applies_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
