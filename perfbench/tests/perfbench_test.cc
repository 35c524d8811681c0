// Unit tests of the benchmark's own machinery: the percentile helper, the
// traffic schedule, and the backend decorator. Built by perfbench's CMake
// project; run with `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "probe.h"
#include "serve/server.h"
#include "stats.h"
#include "traffic.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

TEST(PercentileTest, NearestRankOnLargeSamples) {
  Quantile p50 = Percentile(Range(1000), 0.5);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.count, 1000u);
  EXPECT_DOUBLE_EQ(p50.used, 0.5);
  Quantile p99 = Percentile(Range(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_DOUBLE_EQ(p99.used, 0.99);
}

TEST(PercentileTest, ClampsToLeaveTenSamplesBeyond) {
  // 100 samples: p99 would leave 1 sample beyond it; the highest rank with
  // 10 beyond is the 90th.
  Quantile q = Percentile(Range(100), 0.99);
  EXPECT_EQ(q.value, 90.0);
  EXPECT_DOUBLE_EQ(q.used, 0.9);
  // Exactly enough: 1000 samples leave 10 beyond the 990th.
  EXPECT_EQ(Percentile(Range(1000), 0.999).value, 990.0);
}

TEST(PercentileTest, TinyAndEmptySamples) {
  // The median is never clamped; a tail percentile falls back to it when
  // no rank has 10 samples beyond.
  Quantile median = Percentile(Range(5), 0.5);
  EXPECT_EQ(median.value, 3.0);
  EXPECT_EQ(median.count, 5u);
  Quantile tail = Percentile(Range(5), 0.9);
  EXPECT_EQ(tail.value, 3.0);
  EXPECT_DOUBLE_EQ(tail.used, 0.6);
  EXPECT_EQ(Percentile(Range(17), 0.9).value, 9.0);
  Quantile none = Percentile({}, 0.5);
  EXPECT_TRUE(std::isnan(none.value));
  EXPECT_EQ(none.count, 0u);
}

TEST(PercentileTest, InfinityCountsAsSlowest) {
  std::vector<double> samples = Range(100);
  samples.push_back(INFINITY);
  // An unanswered read (infinitely late) sorts last, so it is one of the
  // ten samples beyond the highest reportable rank.
  EXPECT_EQ(Percentile(samples, 1.0).value, 91.0);
  EXPECT_EQ(Percentile(samples, 0.5).value, 51.0);
}

std::vector<data::TrustPair> Keys(int n) {
  std::vector<data::TrustPair> keys;
  for (int i = 0; i < n; ++i) keys.push_back({i, i + 1, 0.0f});
  return keys;
}

TEST(ScheduleTest, SameSeedSameSequence) {
  const std::vector<data::TrustPair> keys = Keys(500);
  TrafficConfig config;
  config.read_rate = 5000.0;
  config.write_rate = 20.0;
  config.seconds = 2.0;
  config.seed = 42;
  KeySampler a(&keys, 600, KeyChoice::kZipf, 1.0, 7);
  KeySampler b(&keys, 600, KeyChoice::kZipf, 1.0, 7);
  std::vector<Op> first = MakeSchedule(config, &a);
  std::vector<Op> second = MakeSchedule(config, &b);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].due_ns, second[i].due_ns);
    EXPECT_EQ(first[i].is_write, second[i].is_write);
    EXPECT_EQ(first[i].src, second[i].src);
    EXPECT_EQ(first[i].dst, second[i].dst);
  }
  config.seed = 43;
  KeySampler c(&keys, 600, KeyChoice::kZipf, 1.0, 7);
  std::vector<Op> other = MakeSchedule(config, &c);
  bool differs = other.size() != first.size();
  for (size_t i = 0; !differs && i < first.size(); ++i) {
    differs = other[i].due_ns != first[i].due_ns;
  }
  EXPECT_TRUE(differs);
}

TEST(ScheduleTest, PoissonReadsEvenWrites) {
  const std::vector<data::TrustPair> keys = Keys(10);
  TrafficConfig config;
  config.read_rate = 10000.0;
  config.write_rate = 50.0;
  config.seconds = 4.0;
  config.seed = 3;
  KeySampler sampler(&keys, 20, KeyChoice::kUniformList, 1.0, 1);
  std::vector<Op> ops = MakeSchedule(config, &sampler, 5);
  int reads = 0, next_write = 5;
  std::vector<int64_t> write_times;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) EXPECT_LE(ops[i - 1].due_ns, ops[i].due_ns);
    EXPECT_LT(ops[i].due_ns, 4'000'000'000);
    if (ops[i].is_write) {
      EXPECT_EQ(ops[i].src, next_write++);
      write_times.push_back(ops[i].due_ns);
    } else {
      ++reads;
    }
  }
  // 40k expected reads (sd 200); writes exactly every 20 ms.
  EXPECT_NEAR(reads, 40000, 1200);
  ASSERT_EQ(write_times.size(), 200u);
  EXPECT_LT(write_times[0], 20'000'000);
  for (size_t i = 1; i < write_times.size(); ++i) {
    EXPECT_EQ(write_times[i] - write_times[i - 1], 20'000'000);
  }
}

TEST(ScheduleTest, ZipfSkewsTowardHotKeys) {
  const std::vector<data::TrustPair> keys = Keys(1000);
  KeySampler sampler(&keys, 1100, KeyChoice::kZipf, 1.0, 9);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Next().src];
  int max_count = 0, seen = 0;
  for (int c : counts) {
    max_count = std::max(max_count, c);
    seen += c > 0;
  }
  // Rank 1 carries 1/H(1000) ~ 13% of the draws; uniform would be 0.1%.
  EXPECT_GT(max_count, 2000);
  EXPECT_LT(seen, 1000);
}

TEST(ScheduleTest, UniformUsersNeverSelfPairs) {
  KeySampler sampler(nullptr, 5, KeyChoice::kUniformUsers, 1.0, 11);
  for (int i = 0; i < 2000; ++i) {
    data::TrustPair p = sampler.Next();
    EXPECT_NE(p.src, p.dst);
    EXPECT_GE(p.src, 0);
    EXPECT_LT(p.dst, 5);
  }
}

/// Scores src / 100 and applies nothing; counts what reached it.
class FakeBackend : public ahntp::serve::ScoreBackend,
                    public ahntp::serve::MutationSink {
 public:
  ahntp::Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override {
    ++calls;
    std::vector<float> out;
    for (const auto& p : pairs) out.push_back(p.src / 100.0f);
    return out;
  }
  std::string name() const override { return "fake"; }
  int64_t generation() const override { return generation_; }
  ahntp::Result<ahntp::graph::DeltaReceipt> ApplyMutation(
      const ahntp::graph::GraphDelta&) override {
    ++applies;
    ++generation_;
    return ahntp::graph::DeltaReceipt{};
  }
  int calls = 0;
  int applies = 0;
  int64_t generation_ = 0;
};

TEST(ProbedBackendTest, ForwardsAndCountsEveryCall) {
  FakeBackend fake;
  ProbedBackend probe(&fake, &fake);
  std::vector<data::TrustPair> pairs = {{1, 2, 0.0f}, {3, 4, 0.0f}};
  auto plain = probe.ScoreBatch(pairs);
  ASSERT_TRUE(plain.ok());
  EXPECT_FLOAT_EQ((*plain)[1], 0.03f);
  probe.set_recording(true);
  auto scored = probe.ScoreBatchWithConfidence(pairs);
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(scored->confidence.size(), 2u);
  ASSERT_TRUE(probe.ApplyMutation(ahntp::graph::GraphDelta{}).ok());
  EXPECT_EQ(probe.generation(), 1);
  EXPECT_EQ(fake.calls, 2);
  EXPECT_EQ(fake.applies, 1);
  EXPECT_EQ(probe.score_calls(), 2);
  EXPECT_EQ(probe.scored_pairs(), 4);
  EXPECT_EQ(probe.apply_calls(), 1);
  // Only calls made while recording leave records.
  std::vector<BatchRecord> batches = probe.TakeBatches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].pairs.size(), 2u);
  EXPECT_LE(batches[0].start_ns, batches[0].end_ns);
  EXPECT_EQ(probe.TakeApplies().size(), 1u);
  EXPECT_TRUE(probe.TakeBatches().empty());
}

TEST(ProbedBackendTest, ServerCallsEqualDecoratorCounts) {
  FakeBackend fake;
  ProbedBackend probe(&fake, &fake);
  ahntp::serve::ServeOptions options;
  options.max_batch_size = 8;
  ahntp::serve::TrustServer server(options, &probe, nullptr, &probe);
  server.Start();
  std::vector<Op> ops;
  for (int i = 0; i < 40; ++i) {
    ops.push_back(Op{i * 20'000, false, i, i + 1});
    if (i % 10 == 9) ops.push_back(Op{i * 20'000 + 1, true, 0, 0});
  }
  std::vector<ahntp::graph::GraphDelta> deltas(1);
  OpenLoopResult result = RunOpenLoop(&server, ops, &deltas);
  server.Shutdown();
  ahntp::serve::ServerStats stats = server.Stats();
  ASSERT_EQ(result.reads.size(), 40u);
  ASSERT_EQ(result.writes.size(), 4u);
  for (const ReadRecord& r : result.reads) {
    EXPECT_TRUE(r.ok);
    EXPECT_FLOAT_EQ(r.score, r.src / 100.0f);
    EXPECT_GE(r.submit_start_ns, r.due_ns);
    EXPECT_GE(r.LatencyMs(), 0.0);
  }
  for (const WriteRecord& w : result.writes) EXPECT_TRUE(w.ok);
  EXPECT_EQ(probe.score_calls(), stats.batches);
  EXPECT_EQ(probe.scored_pairs(), 40);
  EXPECT_EQ(probe.apply_calls(), 4);
  EXPECT_EQ(fake.calls, probe.score_calls());
}

}  // namespace
}  // namespace perfbench
