#include <memory>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "models/graph_ops.h"
#include "models/trust_predictor.h"
#include "nn/losses.h"
#include "nn/optimizer.h"

namespace ahntp::models {
namespace {

/// Shared tiny fixture: a generated dataset with its training inputs.
class ModelFixture {
 public:
  ModelFixture() : rng_(99) {
    data::GeneratorConfig config;
    config.num_users = 60;
    config.num_items = 80;
    config.num_communities = 3;
    config.avg_trust_out_degree = 5.0;
    config.avg_purchases_per_user = 6.0;
    config.seed = 5;
    dataset_ = data::SocialNetworkGenerator(config).Generate();
    split_ = data::MakeSplit(dataset_);
    graph_ = dataset_.GraphFromEdges(split_.train_positive).value();
    features_ = data::BuildFeatureMatrix(dataset_);

    hypergraph::Hypergraph attr = hypergraph::BuildAttributeHypergroup(
        dataset_.num_users, dataset_.attributes);
    hypergraph::Hypergraph pairwise =
        hypergraph::BuildPairwiseHypergroup(graph_);
    hypergraph_ = hypergraph::Hypergraph::Concat(attr, pairwise);

    inputs_.features = &features_;
    inputs_.graph = &graph_;
    inputs_.dataset = &dataset_;
    inputs_.hypergraph = &hypergraph_;
    inputs_.hidden_dims = {16, 8};
    inputs_.dropout = 0.0f;
    inputs_.rng = &rng_;
  }

  const ModelInputs& inputs() const { return inputs_; }
  const data::TrustSplit& split() const { return split_; }
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  data::SocialDataset dataset_;
  data::TrustSplit split_;
  graph::Digraph graph_{0};
  tensor::Matrix features_;
  hypergraph::Hypergraph hypergraph_{0};
  ModelInputs inputs_;
};

ModelFixture& Fixture() {
  static ModelFixture* fixture = new ModelFixture();
  return *fixture;
}

// ---------------------------------------------------------------------------
// Graph operators
// ---------------------------------------------------------------------------

TEST(GraphOpsTest, SymmetricNormalizedAdjacencyIsSymmetric) {
  auto g = graph::Digraph::FromEdges(4, {{0, 1}, {1, 2}, {3, 0}}).value();
  tensor::CsrMatrix a = SymmetricNormalizedAdjacency(g);
  EXPECT_TRUE(a.AllClose(a.Transposed(), 1e-5f));
  // Self-loops present: diagonal is nonzero.
  for (size_t i = 0; i < 4; ++i) EXPECT_GT(a.At(i, i), 0.0f);
}

TEST(GraphOpsTest, DirectedNormalizedAdjacencyRowStochastic) {
  auto g = graph::Digraph::FromEdges(4, {{0, 1}, {0, 2}, {1, 3}}).value();
  for (bool incoming : {false, true}) {
    tensor::CsrMatrix a = DirectedNormalizedAdjacency(g, incoming);
    for (float s : a.RowSums()) EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(GraphOpsTest, AttentionEdgesIncludeSelfLoops) {
  auto g = graph::Digraph::FromEdges(3, {{0, 1}}).value();
  auto pairs = BuildAttentionPairs(g);
  // 3 self-loops + (0,1) in both aggregation directions.
  EXPECT_EQ(pairs->size(), 5u);
  int self_loops = 0;
  for (size_t i = 0; i < pairs->size(); ++i) {
    if (pairs->segment[i] == pairs->source[i]) ++self_loops;
  }
  EXPECT_EQ(self_loops, 3);
}

// ---------------------------------------------------------------------------
// Every encoder: shape, parameters, gradient flow (parameterized).
// ---------------------------------------------------------------------------

class EncoderContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EncoderContractTest, ShapeParametersAndGradients) {
  ModelFixture& fixture = Fixture();
  auto spec = core::CreateEncoder(GetParam(), fixture.inputs(),
                                  core::AhntpConfig{});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::shared_ptr<Encoder> encoder = spec->encoder;

  autograd::Variable emb = encoder->EncodeUsers();
  EXPECT_EQ(emb.rows(), 60u);
  EXPECT_EQ(emb.cols(), encoder->embedding_dim());
  EXPECT_GT(encoder->NumParameters(), 0u);
  EXPECT_FALSE(encoder->name().empty());

  // Every parameter must receive some gradient from a generic loss.
  encoder->ZeroGrad();
  autograd::Variable loss = autograd::ReduceMean(
      autograd::Mul(emb, emb));
  loss.Backward();
  size_t touched = 0;
  for (const auto& p : encoder->Parameters()) {
    if (p.grad().MaxAbs() > 0.0f) ++touched;
  }
  // ReLU dead units can zero a few, but most parameters must be reached.
  EXPECT_GE(touched, encoder->Parameters().size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EncoderContractTest,
    ::testing::Values("GAT", "SGC", "Guardian", "AtNE-Trust", "KGTrust",
                      "UniGCN", "UniGAT", "HGNN+", "MF", "AHNTP", "AHNTP-nompr",
                      "AHNTP-noatt"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ModelZooTest, UnknownModelIsNotFound) {
  auto spec = core::CreateEncoder("NoSuchModel", Fixture().inputs(),
                                  core::AhntpConfig{});
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(ModelZooTest, HypergraphRequirementFlags) {
  EXPECT_TRUE(core::ModelNeedsHypergraph("UniGCN"));
  EXPECT_TRUE(core::ModelNeedsHypergraph("HGNN+"));
  EXPECT_FALSE(core::ModelNeedsHypergraph("AHNTP"));  // builds its own
  EXPECT_FALSE(core::ModelNeedsHypergraph("GAT"));
}

TEST(ModelZooTest, ContrastiveFlagOnlyForFullAhntp) {
  ModelFixture& fixture = Fixture();
  core::AhntpConfig config;
  EXPECT_TRUE(core::CreateEncoder("AHNTP", fixture.inputs(), config)
                  ->use_contrastive);
  EXPECT_FALSE(core::CreateEncoder("AHNTP-nocon", fixture.inputs(), config)
                   ->use_contrastive);
  EXPECT_FALSE(
      core::CreateEncoder("SGC", fixture.inputs(), config)->use_contrastive);
}

TEST(AtneTrustTest, ExposesReconstructionAuxLoss) {
  ModelFixture& fixture = Fixture();
  auto spec = core::CreateEncoder("AtNE-Trust", fixture.inputs(),
                                  core::AhntpConfig{});
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->encoder->HasAuxLoss());
  spec->encoder->EncodeUsers();
  autograd::Variable aux = spec->encoder->AuxLoss();
  EXPECT_EQ(aux.rows(), 1u);
  EXPECT_GT(aux.value().At(0, 0), 0.0f);  // untrained: reconstruction error
}

// ---------------------------------------------------------------------------
// TrustPredictor head
// ---------------------------------------------------------------------------

TEST(TrustPredictorTest, OutputsProbabilitiesInRange) {
  ModelFixture& fixture = Fixture();
  Rng rng(3);
  auto spec =
      core::CreateEncoder("SGC", fixture.inputs(), core::AhntpConfig{});
  ASSERT_TRUE(spec.ok());
  TrustPredictor predictor(spec->encoder, TrustPredictorConfig{}, &rng);
  std::vector<data::TrustPair> pairs(
      fixture.split().test_pairs.begin(),
      fixture.split().test_pairs.begin() + 10);
  std::vector<float> probs = predictor.PredictProbabilities(pairs);
  ASSERT_EQ(probs.size(), 10u);
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(TrustPredictorTest, CosineMatchesProbabilityMapping) {
  ModelFixture& fixture = Fixture();
  Rng rng(4);
  auto spec =
      core::CreateEncoder("SGC", fixture.inputs(), core::AhntpConfig{});
  TrustPredictor predictor(spec->encoder, TrustPredictorConfig{}, &rng);
  predictor.SetTraining(false);
  std::vector<data::TrustPair> pairs(
      fixture.split().test_pairs.begin(),
      fixture.split().test_pairs.begin() + 5);
  auto out = predictor.Forward(pairs);
  for (size_t i = 0; i < 5; ++i) {
    float cos = out.cosine.value().At(i, 0);
    float prob = out.probability.value().At(i, 0);
    EXPECT_NEAR(prob, (1.0f + cos) / 2.0f, 1e-5f);
    EXPECT_GE(cos, -1.0f - 1e-5f);
    EXPECT_LE(cos, 1.0f + 1e-5f);
  }
}

TEST(TrustPredictorTest, TrainingImprovesLossOnTinyProblem) {
  ModelFixture& fixture = Fixture();
  Rng rng(5);
  auto spec =
      core::CreateEncoder("SGC", fixture.inputs(), core::AhntpConfig{});
  TrustPredictor predictor(spec->encoder, TrustPredictorConfig{}, &rng);
  nn::Adam adam(predictor.Parameters(), 0.01f);
  std::vector<data::TrustPair> batch = fixture.split().train_pairs;
  std::vector<float> labels(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) labels[i] = batch[i].label;

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 30; ++step) {
    auto out = predictor.Forward(batch);
    autograd::Variable loss = nn::BinaryCrossEntropy(out.probability, labels);
    if (step == 0) first_loss = loss.value().At(0, 0);
    last_loss = loss.value().At(0, 0);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.9f);
}

}  // namespace
}  // namespace ahntp::models
