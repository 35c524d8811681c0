#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/features.h"
#include "graph/motifs.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"

namespace ahntp::data {
namespace {

GeneratorConfig TinyConfig() {
  GeneratorConfig config;
  config.name = "tiny";
  config.num_users = 120;
  config.num_items = 200;
  config.num_communities = 4;
  config.avg_trust_out_degree = 6.0;
  config.avg_purchases_per_user = 8.0;
  config.seed = 7;
  return config;
}

SocialDataset TinyDataset() {
  return SocialNetworkGenerator(TinyConfig()).Generate();
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(GeneratorTest, ProducesValidDataset) {
  SocialDataset ds = TinyDataset();
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_EQ(ds.num_users, 120u);
  EXPECT_EQ(ds.num_items, 200u);
  EXPECT_EQ(ds.attributes.size(), 4u);  // hobby, school, city, age_band
  EXPECT_EQ(ds.communities.size(), 120u);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  SocialDataset a = TinyDataset();
  SocialDataset b = TinyDataset();
  ASSERT_EQ(a.trust_edges.size(), b.trust_edges.size());
  for (size_t i = 0; i < a.trust_edges.size(); ++i) {
    EXPECT_EQ(a.trust_edges[i].src, b.trust_edges[i].src);
    EXPECT_EQ(a.trust_edges[i].dst, b.trust_edges[i].dst);
  }
  ASSERT_EQ(a.purchases.size(), b.purchases.size());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig config = TinyConfig();
  config.seed = 8;
  SocialDataset a = TinyDataset();
  SocialDataset b = SocialNetworkGenerator(config).Generate();
  size_t same = 0;
  size_t n = std::min(a.trust_edges.size(), b.trust_edges.size());
  for (size_t i = 0; i < n; ++i) {
    if (a.trust_edges[i].src == b.trust_edges[i].src &&
        a.trust_edges[i].dst == b.trust_edges[i].dst) {
      ++same;
    }
  }
  EXPECT_LT(same, n / 2);
}

TEST(GeneratorTest, EdgeCountNearTarget) {
  SocialDataset ds = TinyDataset();
  double target = 120 * 6.0;
  EXPECT_NEAR(static_cast<double>(ds.trust_edges.size()), target,
              target * 0.05);
}

TEST(GeneratorTest, TrustIsHomophilous) {
  SocialDataset ds = TinyDataset();
  size_t intra = 0;
  for (const graph::Edge& e : ds.trust_edges) {
    if (ds.communities[static_cast<size_t>(e.src)] ==
        ds.communities[static_cast<size_t>(e.dst)]) {
      ++intra;
    }
  }
  double frac =
      static_cast<double>(intra) / static_cast<double>(ds.trust_edges.size());
  // Config plants 0.8 intra-community probability (closure reinforces it);
  // a uniform random graph over 4 communities would sit near 0.25.
  EXPECT_GT(frac, 0.6);
}

TEST(GeneratorTest, TrustGraphContainsTriangles) {
  SocialDataset ds = TinyDataset();
  auto g = ds.TrustGraph();
  ASSERT_TRUE(g.ok());
  // Triadic closure must generate motif instances (the MPR signal).
  auto motifs = graph::AllMotifAdjacencies(g->Adjacency());
  int64_t total = 0;
  for (const auto& m : motifs) total += graph::CountMotifInstances(m);
  EXPECT_GT(total, 20);
}

TEST(GeneratorTest, AttributesCorrelateWithCommunities) {
  SocialDataset ds = TinyDataset();
  // Check attribute 0 (hobby): same-community pairs should agree more often
  // than cross-community pairs.
  const auto& hobby = ds.attributes[0];
  size_t same_comm_agree = 0, same_comm_total = 0;
  size_t diff_comm_agree = 0, diff_comm_total = 0;
  for (size_t u = 0; u < ds.num_users; ++u) {
    for (size_t v = u + 1; v < ds.num_users; ++v) {
      bool same_comm = ds.communities[u] == ds.communities[v];
      bool agree = hobby[u] == hobby[v];
      if (same_comm) {
        ++same_comm_total;
        if (agree) ++same_comm_agree;
      } else {
        ++diff_comm_total;
        if (agree) ++diff_comm_agree;
      }
    }
  }
  double p_same = static_cast<double>(same_comm_agree) / same_comm_total;
  double p_diff = static_cast<double>(diff_comm_agree) / diff_comm_total;
  EXPECT_GT(p_same, p_diff + 0.2);
}

TEST(GeneratorTest, InfluencersExist) {
  SocialDataset ds = TinyDataset();
  auto g = ds.TrustGraph();
  ASSERT_TRUE(g.ok());
  size_t max_in = 0;
  for (size_t u = 0; u < ds.num_users; ++u) {
    max_in = std::max(max_in, g->InDegree(static_cast<int>(u)));
  }
  // Preferential attachment should create hubs well above the mean (~6).
  EXPECT_GT(max_in, 15u);
}

TEST(GeneratorTest, PresetsMatchTableThreeShape) {
  GeneratorConfig epinions = GeneratorConfig::EpinionsLike(1.0);
  EXPECT_EQ(epinions.num_users, 8935u);
  EXPECT_EQ(epinions.num_items, 21335u);
  EXPECT_NEAR(epinions.avg_trust_out_degree, 65948.0 / 8935.0, 1e-9);
  GeneratorConfig ciao = GeneratorConfig::CiaoLike(1.0);
  EXPECT_EQ(ciao.num_users, 4104u);
  EXPECT_EQ(ciao.num_items, 75071u);
  // Ciao has more trust per user and more purchases per user than Epinions.
  EXPECT_GT(ciao.avg_trust_out_degree, epinions.avg_trust_out_degree);
  EXPECT_GT(ciao.avg_purchases_per_user, epinions.avg_purchases_per_user);
}

TEST(GeneratorTest, ScaledPresetKeepsDegrees) {
  GeneratorConfig full = GeneratorConfig::EpinionsLike(1.0);
  GeneratorConfig eighth = GeneratorConfig::EpinionsLike(0.125);
  EXPECT_NEAR(static_cast<double>(eighth.num_users),
              static_cast<double>(full.num_users) / 8.0, 1.0);
  EXPECT_DOUBLE_EQ(eighth.avg_trust_out_degree, full.avg_trust_out_degree);
}

TEST(GeneratorTest, HandlesZeroItems) {
  GeneratorConfig config = TinyConfig();
  config.num_items = 0;
  config.avg_purchases_per_user = 0.0;
  SocialDataset ds = SocialNetworkGenerator(config).Generate();
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_TRUE(ds.purchases.empty());
  // Feature matrix still builds (behaviour/histogram features are zero).
  tensor::Matrix x = BuildFeatureMatrix(ds);
  EXPECT_EQ(x.rows(), ds.num_users);
}

TEST(GeneratorTest, MinimumViableSize) {
  GeneratorConfig config;
  config.num_users = 10;
  config.num_items = 5;
  config.num_communities = 2;
  config.avg_trust_out_degree = 2.0;
  config.avg_purchases_per_user = 2.0;
  config.seed = 1;
  SocialDataset ds = SocialNetworkGenerator(config).Generate();
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_GT(ds.trust_edges.size(), 4u);  // enough for MakeSplit
}

TEST(StatisticsTest, MatchesDataset) {
  SocialDataset ds = TinyDataset();
  DatasetStatistics stats = ComputeStatistics(ds);
  EXPECT_EQ(stats.num_users, ds.num_users);
  EXPECT_EQ(stats.num_trust_relations, ds.trust_edges.size());
  EXPECT_NEAR(stats.trust_density, ds.TrustDensity(), 1e-12);
  EXPECT_GT(stats.reciprocity, 0.1);  // reciprocation_prob = 0.3
  EXPECT_LT(stats.reciprocity, 0.8);
}

// ---------------------------------------------------------------------------
// Features
// ---------------------------------------------------------------------------

TEST(FeaturesTest, DimensionMatchesOptions) {
  SocialDataset ds = TinyDataset();
  FeatureOptions all;
  size_t expected = 0;
  for (int card : ds.attribute_cardinalities) {
    expected += static_cast<size_t>(card);
  }
  expected += 2 + static_cast<size_t>(ds.num_item_categories);
  EXPECT_EQ(FeatureDimension(ds, all), expected);
  tensor::Matrix x = BuildFeatureMatrix(ds, all);
  EXPECT_EQ(x.rows(), ds.num_users);
  EXPECT_EQ(x.cols(), expected);
}

TEST(FeaturesTest, OneHotRowsSumToAttributeCount) {
  SocialDataset ds = TinyDataset();
  FeatureOptions attrs_only;
  attrs_only.include_behavior = false;
  attrs_only.include_category_histogram = false;
  tensor::Matrix x = BuildFeatureMatrix(ds, attrs_only);
  for (size_t u = 0; u < 10; ++u) {
    float row_sum = 0.0f;
    for (size_t c = 0; c < x.cols(); ++c) row_sum += x.At(u, c);
    EXPECT_EQ(row_sum, 4.0f);  // one 1 per attribute column
  }
}

TEST(FeaturesTest, HistogramRowsNormalized) {
  SocialDataset ds = TinyDataset();
  FeatureOptions hist_only;
  hist_only.include_attributes = false;
  hist_only.include_behavior = false;
  tensor::Matrix x = BuildFeatureMatrix(ds, hist_only);
  for (size_t u = 0; u < ds.num_users; ++u) {
    float row_sum = 0.0f;
    for (size_t c = 0; c < x.cols(); ++c) row_sum += x.At(u, c);
    EXPECT_TRUE(row_sum == 0.0f || std::fabs(row_sum - 1.0f) < 1e-4f);
  }
}

// ---------------------------------------------------------------------------
// Split
// ---------------------------------------------------------------------------

TEST(SplitTest, SizesFollowFractions) {
  SocialDataset ds = TinyDataset();
  SplitOptions options;
  options.train_fraction = 0.8;
  options.test_fraction = 0.2;
  TrustSplit split = MakeSplit(ds, options);
  size_t total = ds.trust_edges.size();
  EXPECT_NEAR(static_cast<double>(split.test_positive.size()),
              0.2 * static_cast<double>(total), 2.0);
  EXPECT_NEAR(static_cast<double>(split.train_positive.size()),
              0.8 * static_cast<double>(total),
              static_cast<double>(total) * 0.05);
  // 2 negatives per positive in train, 1 in test.
  EXPECT_EQ(split.train_pairs.size(), split.train_positive.size() * 3);
  EXPECT_EQ(split.test_pairs.size(), split.test_positive.size() * 2);
}

TEST(SplitTest, TrainAndTestPositivesDisjoint) {
  SocialDataset ds = TinyDataset();
  TrustSplit split = MakeSplit(ds);
  std::set<std::pair<int, int>> train;
  for (const auto& e : split.train_positive) train.insert({e.src, e.dst});
  for (const auto& e : split.test_positive) {
    EXPECT_EQ(train.count({e.src, e.dst}), 0u);
  }
}

TEST(SplitTest, TestSetFixedAcrossTrainFractions) {
  SocialDataset ds = TinyDataset();
  SplitOptions a;
  a.train_fraction = 0.5;
  SplitOptions b;
  b.train_fraction = 0.8;
  TrustSplit split_a = MakeSplit(ds, a);
  TrustSplit split_b = MakeSplit(ds, b);
  ASSERT_EQ(split_a.test_positive.size(), split_b.test_positive.size());
  for (size_t i = 0; i < split_a.test_positive.size(); ++i) {
    EXPECT_EQ(split_a.test_positive[i].src, split_b.test_positive[i].src);
    EXPECT_EQ(split_a.test_positive[i].dst, split_b.test_positive[i].dst);
  }
  EXPECT_LT(split_a.train_positive.size(), split_b.train_positive.size());
}

TEST(SplitTest, NegativesAreNeverTrustEdges) {
  SocialDataset ds = TinyDataset();
  TrustSplit split = MakeSplit(ds);
  std::set<std::pair<int, int>> all_positive;
  for (const auto& e : ds.trust_edges) all_positive.insert({e.src, e.dst});
  auto check = [&](const std::vector<TrustPair>& pairs) {
    for (const TrustPair& p : pairs) {
      if (p.label == 0.0f) {
        EXPECT_EQ(all_positive.count({p.src, p.dst}), 0u);
        EXPECT_NE(p.src, p.dst);
      }
    }
  };
  check(split.train_pairs);
  check(split.test_pairs);
}

TEST(SplitTest, HardNegativesAreNearbyNonEdges) {
  SocialDataset ds = TinyDataset();
  SplitOptions options;
  options.hard_negative_fraction = 1.0;
  TrustSplit split = MakeSplit(ds, options);
  auto g = ds.TrustGraph().value();
  size_t near = 0, total = 0;
  for (const TrustPair& p : split.test_pairs) {
    if (p.label != 0.0f) continue;
    ++total;
    std::vector<int> ball = g.NeighborhoodBall(p.src, 3);
    if (std::find(ball.begin(), ball.end(), p.dst) != ball.end()) ++near;
  }
  ASSERT_GT(total, 0u);
  // All-hard sampling: nearly every negative within 3 hops (a few fall back
  // to uniform when the ball has no eligible target).
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(total), 0.9);
}

TEST(SplitTest, ZeroHardFractionIsUniform) {
  SocialDataset ds = TinyDataset();
  SplitOptions options;
  options.hard_negative_fraction = 0.0;
  TrustSplit split = MakeSplit(ds, options);
  // Still valid negatives, still the right count.
  EXPECT_EQ(split.test_pairs.size(), split.test_positive.size() * 2);
}

TEST(SplitTest, DeterministicForSeed) {
  SocialDataset ds = TinyDataset();
  TrustSplit a = MakeSplit(ds);
  TrustSplit b = MakeSplit(ds);
  ASSERT_EQ(a.train_pairs.size(), b.train_pairs.size());
  for (size_t i = 0; i < a.train_pairs.size(); ++i) {
    EXPECT_EQ(a.train_pairs[i].src, b.train_pairs[i].src);
    EXPECT_EQ(a.train_pairs[i].dst, b.train_pairs[i].dst);
    EXPECT_EQ(a.train_pairs[i].label, b.train_pairs[i].label);
  }
}

/// FNV-1a over every field of the split, in order (labels by bit pattern).
uint64_t SplitDigest(const TrustSplit& split) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto* edges : {&split.train_positive, &split.test_positive}) {
    for (const graph::Edge& e : *edges) {
      mix(static_cast<uint32_t>(e.src));
      mix(static_cast<uint32_t>(e.dst));
    }
  }
  for (const auto* pairs : {&split.train_pairs, &split.test_pairs}) {
    for (const TrustPair& p : *pairs) {
      uint32_t label_bits = 0;
      std::memcpy(&label_bits, &p.label, sizeof(label_bits));
      mix(static_cast<uint32_t>(p.src));
      mix(static_cast<uint32_t>(p.dst));
      mix(label_bits);
    }
  }
  return h;
}

// Digests recorded before the 3-hop balls were memoized: the memo and the
// hash-set membership tests must leave every split bitwise unchanged.
TEST(SplitTest, DigestPinnedAcrossMemo) {
  SocialDataset ciao =
      SocialNetworkGenerator(GeneratorConfig::CiaoLike(0.25)).Generate();
  SplitOptions seed1;
  seed1.seed = 1;
  SplitOptions seed2;
  seed2.seed = 2;
  EXPECT_EQ(SplitDigest(MakeSplit(ciao, seed1)), 0xd33fae6be5be35a8ull);
  EXPECT_EQ(SplitDigest(MakeSplit(ciao, seed2)), 0xe12a1d9a6fbc8984ull);
  EXPECT_EQ(SplitDigest(MakeTemporalSplit(ciao, seed1)),
            0xd19d674eae740804ull);
  EXPECT_EQ(SplitDigest(MakeTemporalSplit(ciao, seed2)),
            0x668f8147f539d24cull);

  SocialDataset tiny = TinyDataset();
  SplitOptions all_hard;
  all_hard.hard_negative_fraction = 1.0;
  EXPECT_EQ(SplitDigest(MakeSplit(tiny, all_hard)), 0x000bf944e9f69068ull);
  EXPECT_EQ(SplitDigest(MakeTemporalSplit(tiny, all_hard)),
            0x70c06c8d21f7d40bull);
}

// All-hard sampling draws far more negatives than there are users; the memo
// must still run at most one BFS per distinct source.
TEST(SplitTest, OneBallBfsPerSource) {
  SocialDataset ds = TinyDataset();
  SplitOptions options;
  options.hard_negative_fraction = 1.0;
  metrics::Disable();
  metrics::Enable();
  TrustSplit split = MakeSplit(ds, options);
  const int64_t bfs = metrics::GetCounter("data.split.ball_bfs").Value();
  metrics::Disable();
  EXPECT_GT(split.train_pairs.size() - split.train_positive.size(),
            ds.num_users);
  EXPECT_GT(bfs, 0);
  EXPECT_LE(bfs, static_cast<int64_t>(ds.num_users));
}

// ---------------------------------------------------------------------------
// Temporal split
// ---------------------------------------------------------------------------

TEST(TemporalSplitTest, GeneratorEmitsMonotoneTimes) {
  SocialDataset ds = TinyDataset();
  ASSERT_EQ(ds.trust_edge_times.size(), ds.trust_edges.size());
  for (size_t i = 1; i < ds.trust_edge_times.size(); ++i) {
    EXPECT_LE(ds.trust_edge_times[i - 1], ds.trust_edge_times[i]);
  }
  EXPECT_EQ(ds.trust_edge_times.front(), 0.0);
  EXPECT_EQ(ds.trust_edge_times.back(), 1.0);
}

TEST(TemporalSplitTest, TrainsOnPastTestsOnFuture) {
  SocialDataset ds = TinyDataset();
  TrustSplit split = MakeTemporalSplit(ds);
  // Map each edge to its time.
  std::map<std::pair<int, int>, double> time_of;
  for (size_t i = 0; i < ds.trust_edges.size(); ++i) {
    time_of[{ds.trust_edges[i].src, ds.trust_edges[i].dst}] =
        ds.trust_edge_times[i];
  }
  double max_train = 0.0;
  for (const auto& e : split.train_positive) {
    max_train = std::max(max_train, time_of[{e.src, e.dst}]);
  }
  double min_test = 1.0;
  for (const auto& e : split.test_positive) {
    min_test = std::min(min_test, time_of[{e.src, e.dst}]);
  }
  EXPECT_LE(max_train, min_test);
}

TEST(TemporalSplitTest, RequiresTimes) {
  SocialDataset ds = TinyDataset();
  ds.trust_edge_times.clear();
  EXPECT_DEATH(MakeTemporalSplit(ds), "trust_edge_times");
}

// ---------------------------------------------------------------------------
// IO round trip
// ---------------------------------------------------------------------------

TEST(IoTest, SaveLoadRoundTrip) {
  SocialDataset ds = TinyDataset();
  std::string dir = ::testing::TempDir() + "/ahntp_io_test";
  ASSERT_TRUE(SaveDataset(ds, dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, ds.name);
  EXPECT_EQ(loaded->num_users, ds.num_users);
  EXPECT_EQ(loaded->num_items, ds.num_items);
  EXPECT_EQ(loaded->attribute_names, ds.attribute_names);
  EXPECT_EQ(loaded->attributes, ds.attributes);
  EXPECT_EQ(loaded->item_categories, ds.item_categories);
  EXPECT_EQ(loaded->communities, ds.communities);
  ASSERT_EQ(loaded->purchases.size(), ds.purchases.size());
  for (size_t i = 0; i < ds.purchases.size(); ++i) {
    EXPECT_EQ(loaded->purchases[i].user, ds.purchases[i].user);
    EXPECT_EQ(loaded->purchases[i].item, ds.purchases[i].item);
    EXPECT_NEAR(loaded->purchases[i].rating, ds.purchases[i].rating, 1e-4f);
  }
  ASSERT_EQ(loaded->trust_edges.size(), ds.trust_edges.size());
  ASSERT_EQ(loaded->trust_edge_times.size(), ds.trust_edge_times.size());
  for (size_t i = 0; i < ds.trust_edge_times.size(); ++i) {
    EXPECT_NEAR(loaded->trust_edge_times[i], ds.trust_edge_times[i], 1e-5);
  }
  std::filesystem::remove_all(dir);
}

TEST(IoTest, LoadMissingDirectoryFails) {
  auto loaded = LoadDataset("/definitely/not/a/real/dir");
  EXPECT_FALSE(loaded.ok());
}

// ---------------------------------------------------------------------------
// Adversarial attack overlays (DESIGN.md §16)
// ---------------------------------------------------------------------------

TEST(AttackTest, AllDefaultSpecMatchesCleanGeneration) {
  SocialNetworkGenerator gen(TinyConfig());
  SocialDataset clean = gen.Generate();
  AttackReport report;
  auto attacked = gen.GenerateWithAttacks(AttackSpec{}, &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  EXPECT_FALSE(AttackSpec{}.any());
  EXPECT_TRUE(report.attackers.empty());
  ASSERT_EQ(attacked->trust_edges.size(), clean.trust_edges.size());
  for (size_t i = 0; i < clean.trust_edges.size(); ++i) {
    EXPECT_EQ(attacked->trust_edges[i].src, clean.trust_edges[i].src);
    EXPECT_EQ(attacked->trust_edges[i].dst, clean.trust_edges[i].dst);
  }
  EXPECT_EQ(attacked->trust_edge_times, clean.trust_edge_times);
  EXPECT_EQ(attacked->attributes, clean.attributes);
  ASSERT_EQ(attacked->purchases.size(), clean.purchases.size());
}

TEST(AttackTest, CleanPrefixPreservedUnderSybilRings) {
  SocialNetworkGenerator gen(TinyConfig());
  SocialDataset clean = gen.Generate();
  AttackReport report;
  auto attacked =
      gen.GenerateWithAttacks(AttackSpec::SybilRing(2, 4), &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  ASSERT_EQ(report.clean_edges, clean.trust_edges.size());
  // The clean generation phases ran on the untouched RNG prefix, so the
  // first clean_edges edges are element-for-element the clean dataset's.
  for (size_t i = 0; i < report.clean_edges; ++i) {
    EXPECT_EQ(attacked->trust_edges[i].src, clean.trust_edges[i].src);
    EXPECT_EQ(attacked->trust_edges[i].dst, clean.trust_edges[i].dst);
  }
  EXPECT_GT(report.sybil_edges, 0u);
  EXPECT_EQ(attacked->trust_edges.size(),
            report.clean_edges + report.sybil_edges);
  // Roster: 2 rings x 4 members, distinct, ascending.
  ASSERT_EQ(report.attackers.size(), 8u);
  for (size_t i = 1; i < report.attackers.size(); ++i) {
    EXPECT_LT(report.attackers[i - 1], report.attackers[i]);
  }
  EXPECT_TRUE(attacked->Validate().ok());
}

TEST(AttackTest, SybilRingOfFourIsMutuallyConnected) {
  // Cycle + reverse + chords on a 4-ring yields every ordered member pair.
  SocialNetworkGenerator gen(TinyConfig());
  AttackReport report;
  auto attacked =
      gen.GenerateWithAttacks(AttackSpec::SybilRing(1, 4), &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  ASSERT_EQ(report.attackers.size(), 4u);
  std::set<std::pair<int, int>> edges;
  for (const auto& e : attacked->trust_edges) edges.insert({e.src, e.dst});
  for (int a : report.attackers) {
    for (int b : report.attackers) {
      if (a == b) continue;
      EXPECT_TRUE(edges.count({a, b}) > 0)
          << "missing intra-ring edge " << a << " -> " << b;
    }
  }
}

TEST(AttackTest, SpamHubsEmitTheReportedOutEdges) {
  SocialNetworkGenerator gen(TinyConfig());
  SocialDataset clean = gen.Generate();
  AttackReport report;
  auto attacked =
      gen.GenerateWithAttacks(AttackSpec::SpamHubs(2, 30), &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  EXPECT_GT(report.spam_edges, 0u);
  EXPECT_EQ(attacked->trust_edges.size(),
            report.clean_edges + report.spam_edges);
  // Every post-dedup spam edge is accounted for by hub out-degree growth.
  auto out_degree = [](const SocialDataset& ds, int user) {
    size_t d = 0;
    for (const auto& e : ds.trust_edges) d += e.src == user ? 1 : 0;
    return d;
  };
  size_t growth = 0;
  for (int hub : report.attackers) {
    growth += out_degree(*attacked, hub) - out_degree(clean, hub);
  }
  EXPECT_EQ(growth, report.spam_edges);
}

TEST(AttackTest, ShiftRewritesOnlyTailEdgesCrossCommunity) {
  SocialNetworkGenerator gen(TinyConfig());
  SocialDataset clean = gen.Generate();
  AttackReport report;
  auto attacked = gen.GenerateWithAttacks(AttackSpec::Shift(0.5), &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  EXPECT_GT(report.shifted_edges, 0u);
  // Shift re-targets in place: no edges added or removed.
  ASSERT_EQ(attacked->trust_edges.size(), clean.trust_edges.size());
  const size_t window_start =
      clean.trust_edges.size() - clean.trust_edges.size() / 4;
  size_t shifted_seen = 0;
  for (size_t i = 0; i < clean.trust_edges.size(); ++i) {
    EXPECT_EQ(attacked->trust_edges[i].src, clean.trust_edges[i].src);
    if (attacked->trust_edges[i].dst == clean.trust_edges[i].dst) continue;
    ++shifted_seen;
    EXPECT_GE(i, window_start) << "shift touched a pre-window edge";
    const auto& e = attacked->trust_edges[i];
    EXPECT_NE(attacked->communities[static_cast<size_t>(e.src)],
              attacked->communities[static_cast<size_t>(e.dst)])
        << "shifted edge " << i << " stayed intra-community";
  }
  EXPECT_EQ(shifted_seen, report.shifted_edges);
}

TEST(AttackTest, CamouflageCopiesRoleModelAttributesAndPurchases) {
  SocialNetworkGenerator gen(TinyConfig());
  SocialDataset clean = gen.Generate();
  AttackReport report;
  auto attacked =
      gen.GenerateWithAttacks(AttackSpec::Camouflaged(2, 4, 0.9), &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  EXPECT_GT(report.camouflaged_users, 0u);
  EXPECT_LE(report.camouflaged_users, report.attackers.size());
  EXPECT_LE(report.camouflage_purchases, report.camouflaged_users * 20);
  ASSERT_EQ(attacked->purchases.size(),
            clean.purchases.size() + report.camouflage_purchases);
  // Every appended purchase belongs to an attacker (the copied baskets).
  std::set<int> attackers(report.attackers.begin(), report.attackers.end());
  for (size_t p = clean.purchases.size(); p < attacked->purchases.size();
       ++p) {
    EXPECT_TRUE(attackers.count(attacked->purchases[p].user) > 0);
  }
  // A camouflaged attacker's full attribute row matches some honest user's.
  size_t disguised = 0;
  for (int attacker : report.attackers) {
    for (size_t u = 0; u < attacked->num_users; ++u) {
      if (attackers.count(static_cast<int>(u)) > 0) continue;
      bool match = true;
      for (const auto& column : attacked->attributes) {
        if (column[static_cast<size_t>(attacker)] != column[u]) {
          match = false;
          break;
        }
      }
      if (match) {
        ++disguised;
        break;
      }
    }
  }
  EXPECT_GE(disguised, report.camouflaged_users);
}

TEST(AttackTest, EdgeTimesRenormalizedOverFinalList) {
  SocialNetworkGenerator gen(TinyConfig());
  AttackReport report;
  auto attacked =
      gen.GenerateWithAttacks(AttackSpec::SpamHubs(3, 20), &report);
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  ASSERT_EQ(attacked->trust_edge_times.size(), attacked->trust_edges.size());
  EXPECT_DOUBLE_EQ(attacked->trust_edge_times.front(), 0.0);
  EXPECT_DOUBLE_EQ(attacked->trust_edge_times.back(), 1.0);
  for (size_t i = 1; i < attacked->trust_edge_times.size(); ++i) {
    EXPECT_LT(attacked->trust_edge_times[i - 1],
              attacked->trust_edge_times[i]);
  }
}

TEST(AttackTest, DeterministicForSameSpec) {
  SocialNetworkGenerator gen(TinyConfig());
  AttackSpec spec = AttackSpec::Camouflaged(2, 4, 0.9);
  spec.shift_fraction = 0.3;
  auto a = gen.GenerateWithAttacks(spec);
  auto b = gen.GenerateWithAttacks(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->trust_edges.size(), b->trust_edges.size());
  for (size_t i = 0; i < a->trust_edges.size(); ++i) {
    EXPECT_EQ(a->trust_edges[i].src, b->trust_edges[i].src);
    EXPECT_EQ(a->trust_edges[i].dst, b->trust_edges[i].dst);
  }
  EXPECT_EQ(a->attributes, b->attributes);
  EXPECT_EQ(a->purchases.size(), b->purchases.size());
}

TEST(AttackTest, DegenerateSpecsAreRejected) {
  const GeneratorConfig config = TinyConfig();
  auto expect_invalid = [&config](AttackSpec spec, const char* what) {
    Status status = spec.Validate(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    // The generator surface agrees with Validate.
    auto result = SocialNetworkGenerator(config).GenerateWithAttacks(spec);
    EXPECT_FALSE(result.ok()) << what;
  };
  expect_invalid(AttackSpec::SybilRing(2, 0), "zero-size rings");
  expect_invalid(AttackSpec::SybilRing(0, 4), "rings without a count");
  expect_invalid(AttackSpec::SybilRing(2, 1), "one-member ring");
  expect_invalid(AttackSpec::SybilRing(200, 4),
                 "roster exceeding the population");
  expect_invalid(AttackSpec::SpamHubs(2, 0), "hubs without edges");
  expect_invalid(AttackSpec::SpamHubs(0, 10), "edges without hubs");
  expect_invalid(AttackSpec::SpamHubs(2, 500),
                 "per-hub fanout exceeding the population");
  expect_invalid(AttackSpec::Camouflaged(2, 4, 0.0), "zero camouflage");
  expect_invalid(AttackSpec::Camouflaged(2, 4, 1.0), "total camouflage");
  expect_invalid(AttackSpec::Camouflaged(2, 4,
                     std::numeric_limits<double>::quiet_NaN()),
                 "NaN camouflage fraction");
  {
    AttackSpec spec;
    spec.camouflage_fraction = 0.5;  // nobody to disguise
    expect_invalid(spec, "camouflage without attackers");
  }
  expect_invalid(AttackSpec::Shift(0.0), "zero shift");
  expect_invalid(AttackSpec::Shift(1.0), "total shift");
  expect_invalid(AttackSpec::Shift(
                     std::numeric_limits<double>::quiet_NaN()),
                 "NaN shift fraction");
  {
    GeneratorConfig one_community = config;
    one_community.num_communities = 1;
    Status status = AttackSpec::Shift(0.5).Validate(one_community);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "shift needs >= 2 communities";
  }
  // A well-formed composite spec passes the same gate.
  AttackSpec composite = AttackSpec::Camouflaged(2, 4, 0.9);
  composite.shift_fraction = 0.3;
  EXPECT_TRUE(composite.Validate(config).ok());
}

}  // namespace
}  // namespace ahntp::data
