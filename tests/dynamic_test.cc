// Tests for the dynamic trust stack (DESIGN.md §17): the mutable store's
// delta semantics, incremental motif counts and warm-started influence
// against full recomputation, incremental hypergroup maintenance, the
// apply(delta) ≡ rebuild-from-scratch equivalence for fp32 and int8
// inference plans across thread counts, fault-injection rollback, and the
// serve write lane.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/parallel.h"
#include "core/dynamic_pipeline.h"
#include "data/generator.h"
#include "graph/delta.h"
#include "graph/dynamic_motifs.h"
#include "graph/motifs.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"
#include "models/inference_plan.h"
#include "serve/dynamic.h"
#include "serve/server.h"

namespace ahntp {
namespace {

using core::DynamicPipelineOptions;
using core::DynamicTrustPipeline;
using graph::GraphDelta;
using hypergraph::Hypergraph;

data::SocialDataset TestDataset() {
  data::GeneratorConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.num_communities = 3;
  config.avg_trust_out_degree = 5.0;
  config.avg_purchases_per_user = 6.0;
  config.seed = 7;
  return data::SocialNetworkGenerator(config).Generate();
}

DynamicPipelineOptions SmallOptions() {
  DynamicPipelineOptions options;
  options.model.hidden_dims = {16, 8};
  return options;
}

std::vector<GraphDelta> TestDeltas(const data::SocialDataset& dataset,
                                   size_t count) {
  data::DeltaStreamConfig config;
  config.num_deltas = count;
  return data::GenerateTrustDeltas(dataset, config);
}

std::vector<data::TrustPair> Queries(const data::SocialDataset& dataset,
                                     size_t n) {
  std::vector<data::TrustPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({static_cast<int>(i % dataset.num_users),
                     static_cast<int>((3 * i + 1) % dataset.num_users),
                     1.0f});
  }
  return pairs;
}

std::vector<std::pair<int, int>> AsPairs(const std::vector<graph::Edge>& edges) {
  std::vector<std::pair<int, int>> out;
  out.reserve(edges.size());
  for (const graph::Edge& e : edges) out.emplace_back(e.src, e.dst);
  return out;
}

serve::TrustQuery MakeQuery(int src, int dst) {
  serve::TrustQuery query;
  query.src = src;
  query.dst = dst;
  return query;
}

void ExpectCsrEq(const tensor::CsrMatrix& a, const tensor::CsrMatrix& b,
                 const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(a.values(), b.values()) << what;
}

void ExpectHypergraphEq(const Hypergraph& a, const Hypergraph& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  for (size_t e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.EdgeVertices(e), b.EdgeVertices(e)) << what << " edge " << e;
    EXPECT_EQ(a.EdgeWeight(e), b.EdgeWeight(e)) << what << " edge " << e;
  }
}

// ---------------------------------------------------------------------------
// Store semantics.
// ---------------------------------------------------------------------------

TEST(MutableGraphTest, DeltaSemanticsAndGeneration) {
  auto store =
      graph::MutableTrustGraph::Create(5, {{0, 1}, {1, 2}, {2, 3}}).value();
  EXPECT_EQ(store.generation(), 0);
  EXPECT_EQ(store.num_edges(), 3u);

  // Empty delta: applied, generation bumped, nothing changes.
  auto empty = store.Apply(GraphDelta{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->generation, 1);
  EXPECT_FALSE(empty->structural_change());
  EXPECT_EQ(store.num_edges(), 3u);

  // Duplicate adds, self-loops, and nonexistent removes are ignored and
  // counted; a remove+add of the same edge leaves it present (removes
  // apply first).
  GraphDelta delta;
  delta.add_edges = {{0, 1}, {3, 4}, {3, 4}, {2, 2}};
  delta.remove_edges = {{1, 2}, {4, 0}, {0, 1}};
  delta.add_edges.push_back({0, 1});  // re-add what the remove deleted
  auto receipt = store.Apply(delta);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->generation, 2);
  EXPECT_EQ(receipt->edges_added, 2u);     // {3,4} and the {0,1} re-add
  EXPECT_EQ(receipt->edges_removed, 2u);   // {1,2} and {0,1}
  // Ignored adds: dup {3,4}, self-loop {2,2}, and the second {0,1} (the
  // first one already restored the edge the remove deleted).
  EXPECT_EQ(receipt->adds_ignored, 3u);
  EXPECT_EQ(receipt->removes_ignored, 1u); // {4,0} absent
  EXPECT_TRUE(store.HasEdge(0, 1));
  EXPECT_TRUE(store.HasEdge(3, 4));
  EXPECT_FALSE(store.HasEdge(1, 2));

  // Replaying the same delta is idempotent on membership.
  auto replay = store.Apply(delta);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(AsPairs(store.CanonicalEdges()),
            (std::vector<std::pair<int, int>>{{0, 1}, {2, 3}, {3, 4}}));
}

TEST(MutableGraphTest, CanonicalOrderIndependentOfHistory) {
  // Two stores reaching the same edge set through different mutation
  // histories expose identical canonical edge lists and views.
  auto a = graph::MutableTrustGraph::Create(6, {{0, 1}, {2, 3}}).value();
  GraphDelta d1;
  d1.add_edges = {{4, 5}, {1, 0}};
  ASSERT_TRUE(a.Apply(d1).ok());

  auto b = graph::MutableTrustGraph::Create(
               6, {{4, 5}, {0, 1}, {1, 0}, {2, 3}, {5, 4}})
               .value();
  GraphDelta d2;
  d2.remove_edges = {{5, 4}};
  ASSERT_TRUE(b.Apply(d2).ok());

  EXPECT_EQ(AsPairs(a.CanonicalEdges()), AsPairs(b.CanonicalEdges()));
  EXPECT_EQ(a.View().Adjacency().row_ptr(), b.View().Adjacency().row_ptr());
  EXPECT_EQ(a.View().Adjacency().col_idx(), b.View().Adjacency().col_idx());
}

TEST(MutableGraphTest, CompactionPreservesStateAcrossThreshold) {
  graph::MutableGraphOptions options;
  options.compaction_threshold = 4;
  auto store = graph::MutableTrustGraph::Create(20, {{0, 1}}, options).value();
  std::vector<std::pair<int, int>> expected = {{0, 1}};
  for (int i = 1; i < 12; ++i) {
    GraphDelta delta;
    delta.add_edges = {{i, (i + 7) % 20}};
    if (i % 3 == 0) {
      delta.remove_edges = {{expected.front().first, expected.front().second}};
    }
    auto receipt = store.Apply(delta);
    ASSERT_TRUE(receipt.ok());
    if (i % 3 == 0) expected.erase(expected.begin());
    if ((i + 7) % 20 != i) expected.push_back({i, (i + 7) % 20});
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(AsPairs(store.CanonicalEdges()), expected) << "after delta " << i;
  }
  // Overlays must have folded at least once under threshold 4.
  EXPECT_LT(store.overlay_size(), 8u);
}

// ---------------------------------------------------------------------------
// Incremental analytics: motifs and warm PageRank.
// ---------------------------------------------------------------------------

TEST(DynamicAnalyticsTest, MotifCountsMatchFullRebuildAfterDeltas) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  ASSERT_NE(pipeline.motif_counts(), nullptr);
  for (const GraphDelta& delta : TestDeltas(dataset, 6)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    tensor::CsrMatrix incremental = pipeline.motif_counts()->ToCsr();
    tensor::CsrMatrix full = graph::MotifAdjacency(
        pipeline.store().View().Adjacency(), graph::Motif::kM6);
    ExpectCsrEq(incremental, full, "motif counts");
  }
}

TEST(DynamicAnalyticsTest, WarmInfluenceMatchesColdSolve) {
  // The small fixture and a 1,026-user graph: at the larger size the solves
  // need tens of iterations, so a warm start that stops at the cap would
  // save none.
  for (double scale : {0.0, 0.25}) {
    SCOPED_TRACE(scale == 0.0 ? "60-user fixture" : "CiaoLike 0.25");
    data::SocialDataset dataset =
        scale == 0.0 ? TestDataset()
                     : data::SocialNetworkGenerator(
                           data::GeneratorConfig::CiaoLike(scale))
                           .Generate();
    DynamicPipelineOptions options = SmallOptions();
    auto pipeline = DynamicTrustPipeline::Create(dataset, options).value();
    int saved_total = 0;
    for (const GraphDelta& delta : TestDeltas(dataset, 6)) {
      auto outcome = pipeline.ApplyDelta(delta);
      ASSERT_TRUE(outcome.ok());
      if (!outcome->receipt.structural_change()) continue;

      graph::MotifPageRankOptions mpr;
      mpr.alpha = options.model.mpr_alpha;
      mpr.motif = options.model.motif;
      mpr.pagerank = options.model.pagerank;
      graph::PageRankStats cold_stats;
      std::vector<double> cold =
          graph::MotifPageRankFrom(pipeline.store().View().Adjacency(),
                                   pipeline.motif_counts()->ToCsr(), mpr,
                                   /*warm_start=*/nullptr, &cold_stats)
              .scores;
      ASSERT_EQ(pipeline.influence().size(), cold.size());
      // PowerIterate runs its SpMV in float (the score vector is quantized
      // to float every iteration), so warm and cold solves converge to
      // slightly different fixed points of the float-roundtripped map: the
      // reachable agreement floor is ~3e-9. Bound the comparison just above
      // that noise floor.
      for (size_t i = 0; i < cold.size(); ++i) {
        double bound = 1e-9 + 1e-6 * std::abs(cold[i]);
        EXPECT_NEAR(pipeline.influence()[i], cold[i], bound) << "node " << i;
      }
      // Per delta, on both graphs, warm <= the construction-time cold count
      // (pagerank_cold_iterations, the solve on the initial graph). At 1,026
      // users warm <= this cold solve of the current graph holds per delta
      // as well. On the 60-user fixture it does not: both solves stop at a
      // 1e-9 tolerance just below the float SpMV's noise floor, their last
      // few iterations wander at ~1e-8, and the warm start's head start (a
      // first step of ~2e-2 against ~0.5) is worth about as many iterations
      // as that wander, so two of its six deltas take 1-3 more warm
      // iterations than cold. There the current graph's count is held to the
      // run total below.
      EXPECT_GT(outcome->pagerank_iterations, 0);
      EXPECT_LE(outcome->pagerank_iterations,
                outcome->pagerank_cold_iterations);
      if (scale != 0.0) {
        EXPECT_LE(outcome->pagerank_iterations, cold_stats.iterations);
      }
      saved_total += cold_stats.iterations - outcome->pagerank_iterations;
    }
    // Warm starts must actually save iterations over the run (the
    // telemetry the bench reports); equality everywhere would mean the warm
    // start is not wired through or both solves stop at the cap.
    EXPECT_GT(saved_total, 0);
  }
}

// ---------------------------------------------------------------------------
// Incremental hypergroups.
// ---------------------------------------------------------------------------

TEST(DynamicHypergroupTest, AllFourGroupsMatchBuildersAfterDeltas) {
  data::SocialDataset dataset = TestDataset();
  DynamicPipelineOptions options = SmallOptions();
  auto pipeline = DynamicTrustPipeline::Create(dataset, options).value();
  for (const GraphDelta& delta : TestDeltas(dataset, 6)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    const graph::Digraph& view = pipeline.store().View();
    ExpectHypergraphEq(
        pipeline.social_hypergroup(),
        hypergraph::BuildSocialInfluenceHypergroup(
            view, pipeline.influence(), options.model.social_top_k),
        "social");
    ExpectHypergraphEq(pipeline.attribute_hypergroup(),
                       hypergraph::BuildAttributeHypergroup(
                           view.num_nodes(), pipeline.dataset().attributes,
                           options.model.attribute_min_size),
                       "attribute");
    ExpectHypergraphEq(pipeline.pairwise_hypergroup(),
                       hypergraph::BuildPairwiseHypergroup(view), "pairwise");
    hypergraph::MultiHopOptions hop;
    hop.num_hops = options.model.multi_hop;
    hop.max_edge_size = options.model.multi_hop_max_edge_size;
    ExpectHypergraphEq(pipeline.multihop_hypergroup(),
                       hypergraph::BuildMultiHopHypergroup(view, hop),
                       "multi-hop");
  }
}

// ---------------------------------------------------------------------------
// The end-to-end equivalence oracle: apply(delta) ≡ rebuild, bitwise, for
// fp32 and int8 plans, K ∈ {1, 3}, threads ∈ {1, 2, 8}.
// ---------------------------------------------------------------------------

struct OracleCase {
  int social_top_k;
  models::PlanPrecision precision;
};

class DynamicOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DynamicOracleTest, IncrementalMatchesRebuildBitwise) {
  const OracleCase& param = GetParam();
  data::SocialDataset dataset = TestDataset();
  DynamicPipelineOptions options = SmallOptions();
  options.model.social_top_k = param.social_top_k;
  auto pipeline = DynamicTrustPipeline::Create(dataset, options).value();
  pipeline.predictor().SetInferencePrecision(param.precision);
  // Build the plan tables up front so ApplyDelta patches rows instead of
  // the first prediction paying a full encode.
  pipeline.predictor().WarmInferencePlan();

  std::vector<data::TrustPair> pairs = Queries(dataset, 24);
  for (const GraphDelta& delta : TestDeltas(dataset, 4)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    auto oracle = pipeline.RebuildFromScratch();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle->predictor().SetInferencePrecision(param.precision);

    std::vector<float> expected = oracle->predictor().PredictProbabilities(pairs);
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      std::vector<float> got =
          pipeline.predictor().PredictProbabilities(pairs);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "pair " << i << " threads=" << threads
            << " K=" << param.social_top_k;
      }
    }
    SetNumThreads(0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionAndTopK, DynamicOracleTest,
    ::testing::Values(
        OracleCase{1, models::PlanPrecision::kFloat32},
        OracleCase{3, models::PlanPrecision::kFloat32},
        OracleCase{1, models::PlanPrecision::kInt8},
        OracleCase{3, models::PlanPrecision::kInt8}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string("K") + std::to_string(info.param.social_top_k) +
             (info.param.precision == models::PlanPrecision::kInt8
                  ? "_int8"
                  : "_fp32");
    });

// Deltas that change no edge: a rating-only delta (features move, both
// branch structures stay) and a delta whose adds the store ignores
// (duplicates and self-loops: nothing derived moves). Either way the live
// plan must equal the rebuild bitwise and the generation must bump.
TEST(DynamicNonStructuralTest, MatchesRebuildBitwise) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  pipeline.predictor().WarmInferencePlan();
  const graph::Edge present = pipeline.store().CanonicalEdges().front();

  GraphDelta ratings_only;
  ratings_only.add_ratings = {{/*user=*/0, /*item=*/1, /*rating=*/5.0f},
                              {/*user=*/7, /*item=*/3, /*rating=*/1.0f}};
  GraphDelta ignored_adds;
  ignored_adds.add_edges = {present, {4, 4}, present};

  const tensor::Matrix features_before = pipeline.features();
  std::vector<data::TrustPair> pairs = Queries(dataset, 24);
  for (const GraphDelta& delta : {ratings_only, ignored_adds}) {
    const int64_t generation = pipeline.generation();
    auto outcome = pipeline.ApplyDelta(delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->receipt.structural_change());
    EXPECT_EQ(pipeline.generation(), generation + 1);

    auto oracle = pipeline.RebuildFromScratch();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    std::vector<float> expected =
        oracle->predictor().PredictProbabilities(pairs);
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      std::vector<float> got =
          pipeline.predictor().PredictProbabilities(pairs);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << "pair " << i << " threads="
                                       << threads;
      }
    }
    SetNumThreads(0);
  }
  // The rating delta did reach the features (the rated user's row moved).
  const size_t cols = features_before.cols();
  EXPECT_NE(std::vector<float>(features_before.RowPtr(0),
                               features_before.RowPtr(0) + cols),
            std::vector<float>(pipeline.features().RowPtr(0),
                               pipeline.features().RowPtr(0) + cols));
}

TEST(DynamicShardedTest, ShardedPlanPatchedRowsMatchOracle) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  const std::string spill_dir =
      ::testing::TempDir() + "/dynamic_shard_" + std::to_string(getpid());
  models::ShardedPlanOptions sharded;
  sharded.num_shards = 4;
  sharded.max_resident_shards = 2;
  sharded.spill_dir = spill_dir;
  pipeline.predictor().EnableShardedInference(sharded);
  pipeline.predictor().WarmInferencePlan();

  std::vector<data::TrustPair> pairs = Queries(dataset, 24);
  for (const GraphDelta& delta : TestDeltas(dataset, 3)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    auto oracle = pipeline.RebuildFromScratch();
    ASSERT_TRUE(oracle.ok());
    std::vector<float> expected =
        oracle->predictor().PredictProbabilities(pairs);
    std::vector<float> got = pipeline.predictor().PredictProbabilities(pairs);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "pair " << i;
    }
  }
  std::filesystem::remove_all(spill_dir);
}

// A sharded plan whose re-spill fails during ApplyDelta's plan rebuild: the
// IoError comes back as ApplyDelta's status (no abort), and once the spill
// directory is usable again the plan rebuilds at its next use and matches
// the oracle.
TEST(DynamicShardedTest, SpillFailureDuringApplyReturnsStatus) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  const std::string spill_dir = ::testing::TempDir() + "/dynamic_spill_fail_" +
                                std::to_string(getpid());
  std::filesystem::remove_all(spill_dir);
  models::ShardedPlanOptions sharded;
  sharded.num_shards = 4;
  sharded.max_resident_shards = 2;
  sharded.spill_dir = spill_dir;
  pipeline.predictor().EnableShardedInference(sharded);
  pipeline.predictor().WarmInferencePlan();

  // A regular file where the spill directory was: every block write fails.
  std::filesystem::remove_all(spill_dir);
  { std::ofstream(spill_dir) << "not a directory"; }
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 1);
  auto failed = pipeline.ApplyDelta(deltas[0]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(pipeline.generation(), 1);

  std::filesystem::remove(spill_dir);
  auto oracle = pipeline.RebuildFromScratch();
  ASSERT_TRUE(oracle.ok());
  std::vector<data::TrustPair> pairs = Queries(dataset, 24);
  EXPECT_EQ(pipeline.predictor().PredictProbabilities(pairs),
            oracle->predictor().PredictProbabilities(pairs));
  std::filesystem::remove_all(spill_dir);
}

// ---------------------------------------------------------------------------
// Fault rollback: both sites leave the pipeline at the previous generation
// with every derived structure intact.
// ---------------------------------------------------------------------------

class DynamicFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Disable(); }
  void TearDown() override { fault::Disable(); }
};

TEST_F(DynamicFaultTest, StoreApplyFaultRollsBack) {
  auto store = graph::MutableTrustGraph::Create(5, {{0, 1}, {1, 2}}).value();
  GraphDelta delta;
  delta.add_edges = {{2, 3}};
  ASSERT_TRUE(store.Apply(delta).ok());
  EXPECT_EQ(store.generation(), 1);

  ASSERT_TRUE(fault::EnableFromSpec("graph.delta.apply@1").ok());
  GraphDelta second;
  second.add_edges = {{3, 4}};
  second.remove_edges = {{0, 1}};
  auto failed = store.Apply(second);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  fault::Disable();

  // Bit-identical to the pre-apply state: same generation, same edges.
  EXPECT_EQ(store.generation(), 1);
  EXPECT_TRUE(store.HasEdge(0, 1));
  EXPECT_FALSE(store.HasEdge(3, 4));

  // The store still works after the fault.
  ASSERT_TRUE(store.Apply(second).ok());
  EXPECT_EQ(store.generation(), 2);
  EXPECT_TRUE(store.HasEdge(3, 4));
  EXPECT_FALSE(store.HasEdge(0, 1));
}

TEST_F(DynamicFaultTest, PlanRefreshFaultRevertsStoreAndDerivedState) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  std::vector<data::TrustPair> pairs = Queries(dataset, 16);
  std::vector<float> before = pipeline.predictor().PredictProbabilities(pairs);
  const int64_t generation = pipeline.generation();
  std::vector<std::pair<int, int>> edges = AsPairs(pipeline.store().CanonicalEdges());

  std::vector<GraphDelta> deltas = TestDeltas(dataset, 2);
  ASSERT_TRUE(fault::EnableFromSpec("plan.delta.refresh@1").ok());
  auto failed = pipeline.ApplyDelta(deltas[0]);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  fault::Disable();

  // Store rolled back to the previous generation; derived state (motifs,
  // influence, hypergroups, plans) was never touched, so predictions are
  // bit-identical.
  EXPECT_EQ(pipeline.generation(), generation);
  EXPECT_EQ(AsPairs(pipeline.store().CanonicalEdges()), edges);
  std::vector<float> after = pipeline.predictor().PredictProbabilities(pairs);
  EXPECT_EQ(before, after);

  // And the cascade still applies cleanly afterwards, matching the oracle.
  ASSERT_TRUE(pipeline.ApplyDelta(deltas[0]).ok());
  auto oracle = pipeline.RebuildFromScratch();
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(pipeline.predictor().PredictProbabilities(pairs),
            oracle->predictor().PredictProbabilities(pairs));
}

// ---------------------------------------------------------------------------
// Serve write lane: mutations between read segments, generation-keyed
// flushes, deterministic interleaving.
// ---------------------------------------------------------------------------

TEST(ServeMutationTest, WriteLaneAppliesBetweenSegments) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 2);

  serve::ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch_size = 8;
  options.score_cache_entries = 64;
  serve::TrustServer server(options, &backend, nullptr, &backend);

  // Closed loop: reads, a mutation, more reads, a second mutation.
  std::vector<data::TrustPair> pairs = Queries(dataset, 6);
  std::vector<std::future<serve::TrustResponse>> reads;
  std::vector<std::future<serve::MutationResponse>> writes;
  for (const auto& p : pairs) {
    reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));
  }
  writes.push_back(server.SubmitMutation(deltas[0]));
  for (const auto& p : pairs) {
    reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));
  }
  writes.push_back(server.SubmitMutation(deltas[1]));
  server.Start();
  server.Shutdown();

  for (auto& read : reads) {
    serve::TrustResponse response = read.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  serve::MutationResponse first = writes[0].get();
  serve::MutationResponse second = writes[1].get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(first.generation, 1);
  EXPECT_EQ(second.generation, 2);
  EXPECT_EQ(pipeline.generation(), 2);

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.mutations_submitted, 2);
  EXPECT_EQ(stats.mutations_applied, 2);
  EXPECT_EQ(stats.mutations_failed, 0);
  // The second read wave hit a fresh generation, so the cache flushed at
  // least once after the first mutation.
  EXPECT_GE(stats.cache_flushes, 1);
  EXPECT_EQ(stats.ok, static_cast<int64_t>(reads.size()));
}

TEST(ServeMutationTest, NoSinkAndShutdownResolveFailedPrecondition) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 1);

  {
    // Read-only server: the write lane rejects immediately.
    serve::ServeOptions options;
    serve::TrustServer server(options, &backend, nullptr);
    auto future = server.SubmitMutation(deltas[0]);
    serve::MutationResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(server.Stats().mutations_rejected, 1);
  }
  {
    // Enqueued but never started: shutdown drains the promise.
    serve::ServeOptions options;
    serve::TrustServer server(options, &backend, nullptr, &backend);
    auto future = server.SubmitMutation(deltas[0]);
    server.Shutdown();
    serve::MutationResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(pipeline.generation(), 0);  // never applied
    EXPECT_EQ(server.Stats().mutations_failed, 1);
  }
}

TEST(ServeMutationTest, MutationFaultKeepsPreviousGenerationServing) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 1);
  std::vector<data::TrustPair> pairs = Queries(dataset, 4);
  std::vector<float> before = pipeline.predictor().PredictProbabilities(pairs);

  serve::ServeOptions options;
  serve::TrustServer server(options, &backend, nullptr, &backend);
  auto write = server.SubmitMutation(deltas[0]);
  std::vector<std::future<serve::TrustResponse>> reads;
  for (const auto& p : pairs) reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));

  ASSERT_TRUE(fault::EnableFromSpec("plan.delta.refresh@1").ok());
  server.Start();
  server.Shutdown();
  fault::Disable();

  serve::MutationResponse response = write.get();
  EXPECT_EQ(response.status.code(), StatusCode::kInternal);
  EXPECT_EQ(pipeline.generation(), 0);
  for (size_t i = 0; i < reads.size(); ++i) {
    serve::TrustResponse read = reads[i].get();
    ASSERT_TRUE(read.status.ok());
    EXPECT_EQ(read.score, before[i]) << "pair " << i;
  }
  EXPECT_EQ(server.Stats().mutations_failed, 1);
}

}  // namespace
}  // namespace ahntp
