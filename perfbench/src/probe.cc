#include "probe.h"

#include <utility>

#include "common/check.h"
#include "common/metrics.h"

namespace perfbench {

namespace {

namespace metrics = ahntp::metrics;

int64_t CounterNow(const char* name) {
  return metrics::Enabled() ? metrics::GetCounter(name).Value() : 0;
}

double HistogramSumNow(const char* name) {
  return metrics::Enabled() ? metrics::GetHistogram(name).Sum() : 0.0;
}

}  // namespace

ProbedBackend::ProbedBackend(ahntp::serve::ScoreBackend* scores,
                             ahntp::serve::MutationSink* mutations)
    : scores_(scores), mutations_(mutations) {
  AHNTP_CHECK(scores_ != nullptr);
}

template <typename Call>
auto ProbedBackend::TimedScore(const std::vector<data::TrustPair>& pairs,
                               Call call) {
  const int64_t faults = recording_ ? CounterNow("infer.shard_faults") : 0;
  const int64_t hits = recording_ ? CounterNow("infer.shard_hits") : 0;
  const int64_t start = NowNs();
  auto result = call();
  const int64_t end = NowNs();
  ++score_calls_;
  scored_pairs_ += static_cast<int64_t>(pairs.size());
  score_busy_ns_ += end - start;
  if (recording_) {
    BatchRecord record;
    record.start_ns = start;
    record.end_ns = end;
    record.pairs = pairs;
    record.shard_faults = CounterNow("infer.shard_faults") - faults;
    record.shard_hits = CounterNow("infer.shard_hits") - hits;
    batches_.push_back(std::move(record));
  }
  return result;
}

ahntp::Result<std::vector<float>> ProbedBackend::ScoreBatch(
    const std::vector<data::TrustPair>& pairs) {
  return TimedScore(pairs, [&] { return scores_->ScoreBatch(pairs); });
}

ahntp::Result<ahntp::serve::BatchScores>
ProbedBackend::ScoreBatchWithConfidence(
    const std::vector<data::TrustPair>& pairs) {
  return TimedScore(
      pairs, [&] { return scores_->ScoreBatchWithConfidence(pairs); });
}

ahntp::Result<ahntp::graph::DeltaReceipt> ProbedBackend::ApplyMutation(
    const ahntp::graph::GraphDelta& delta) {
  AHNTP_CHECK(mutations_ != nullptr) << "ProbedBackend has no mutation sink";
  ApplyRecord record;
  if (recording_) {
    record.analytics_s = -HistogramSumNow("dynamic.apply.analytics_seconds");
    record.hypergroups_s =
        -HistogramSumNow("dynamic.apply.hypergroups_seconds");
    record.diff_s = -HistogramSumNow("dynamic.apply.diff_seconds");
    record.refresh_s = -HistogramSumNow("dynamic.apply.refresh_seconds");
    record.plan_s = -HistogramSumNow("dynamic.apply.plan_seconds");
    record.dirty_users = -CounterNow("dynamic.apply.dirty_users");
    record.pagerank_iterations = -CounterNow("graph.pagerank.iterations");
  }
  record.start_ns = NowNs();
  auto result = mutations_->ApplyMutation(delta);
  record.end_ns = NowNs();
  ++apply_calls_;
  if (recording_) {
    record.analytics_s += HistogramSumNow("dynamic.apply.analytics_seconds");
    record.hypergroups_s +=
        HistogramSumNow("dynamic.apply.hypergroups_seconds");
    record.diff_s += HistogramSumNow("dynamic.apply.diff_seconds");
    record.refresh_s += HistogramSumNow("dynamic.apply.refresh_seconds");
    record.plan_s += HistogramSumNow("dynamic.apply.plan_seconds");
    record.dirty_users += CounterNow("dynamic.apply.dirty_users");
    record.pagerank_iterations += CounterNow("graph.pagerank.iterations");
    applies_.push_back(record);
  }
  return result;
}

std::vector<BatchRecord> ProbedBackend::TakeBatches() {
  return std::exchange(batches_, {});
}

std::vector<ApplyRecord> ProbedBackend::TakeApplies() {
  return std::exchange(applies_, {});
}

}  // namespace perfbench
