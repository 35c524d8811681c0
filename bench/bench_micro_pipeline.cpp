// Micro-benchmarks (google-benchmark) for the end-to-end model pipeline:
// the train/test split, encoder forward passes for every model, backward
// pass, and one full training epoch of AHNTP.

#include <benchmark/benchmark.h>

#include "core/model_zoo.h"
#include "core/trainer.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"

namespace {

using namespace ahntp;

/// Shared fixture: a small Ciao-like dataset plus precomputed model inputs.
struct PipelineFixture {
  data::SocialDataset dataset;
  data::TrustSplit split;
  graph::Digraph graph{0};
  tensor::Matrix features;
  hypergraph::Hypergraph baseline_hg{0};
  Rng rng{31};
  models::ModelInputs inputs;

  PipelineFixture() {
    data::GeneratorConfig config = data::GeneratorConfig::CiaoLike(0.05);
    dataset = data::SocialNetworkGenerator(config).Generate();
    split = data::MakeSplit(dataset);
    graph = dataset.GraphFromEdges(split.train_positive).value();
    features = data::BuildFeatureMatrix(dataset);
    baseline_hg = hypergraph::Hypergraph::Concat(
        hypergraph::Hypergraph::Concat(
            hypergraph::BuildAttributeHypergroup(dataset.num_users,
                                                 dataset.attributes),
            hypergraph::BuildPairwiseHypergroup(graph)),
        hypergraph::BuildMultiHopHypergroup(graph, {}));
    inputs.features = &features;
    inputs.graph = &graph;
    inputs.dataset = &dataset;
    inputs.hypergraph = &baseline_hg;
    inputs.hidden_dims = {64, 32, 16};
    inputs.dropout = 0.0f;
    inputs.rng = &rng;
  }
};

PipelineFixture& Fixture() {
  static PipelineFixture* fixture = new PipelineFixture();
  return *fixture;
}

/// MakeSplit at CiaoLike scale range(0)/100; the dataset is generated off
/// the clock.
void BM_MakeSplit(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  const data::SocialDataset dataset =
      data::SocialNetworkGenerator(data::GeneratorConfig::CiaoLike(scale))
          .Generate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::MakeSplit(dataset));
  }
  state.SetLabel(std::to_string(dataset.num_users) + " users");
}
BENCHMARK(BM_MakeSplit)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_EncoderForward(benchmark::State& state, const std::string& model) {
  PipelineFixture& fixture = Fixture();
  auto spec = core::CreateEncoder(model, fixture.inputs, core::AhntpConfig{});
  AHNTP_CHECK(spec.ok());
  spec->encoder->SetTraining(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec->encoder->EncodeUsers());
  }
  state.SetLabel(std::to_string(spec->encoder->NumParameters()) + " params");
}

void BM_ForwardBackward(benchmark::State& state, const std::string& model) {
  PipelineFixture& fixture = Fixture();
  auto spec = core::CreateEncoder(model, fixture.inputs, core::AhntpConfig{});
  AHNTP_CHECK(spec.ok());
  for (auto _ : state) {
    spec->encoder->ZeroGrad();
    autograd::Variable emb = spec->encoder->EncodeUsers();
    autograd::Variable loss =
        autograd::ReduceMean(autograd::Mul(emb, emb));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value().At(0, 0));
  }
}

void BM_AhntpTrainEpoch(benchmark::State& state) {
  PipelineFixture& fixture = Fixture();
  Rng rng(5);
  auto spec =
      core::CreateEncoder("AHNTP", fixture.inputs, core::AhntpConfig{});
  AHNTP_CHECK(spec.ok());
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  core::TrainerConfig config;
  config.epochs = 1;
  core::Trainer trainer(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trainer.Fit(&predictor, fixture.split.train_pairs).value());
  }
  state.SetLabel(std::to_string(fixture.split.train_pairs.size()) +
                 " train pairs");
}
BENCHMARK(BM_AhntpTrainEpoch);

void BM_AhntpBuildHypergroups(benchmark::State& state) {
  PipelineFixture& fixture = Fixture();
  for (auto _ : state) {
    core::AhntpConfig config;
    config.hidden_dims = {16, 8};
    benchmark::DoNotOptimize(
        std::make_unique<core::AhntpModel>(fixture.inputs, config));
  }
}
BENCHMARK(BM_AhntpBuildHypergroups);

}  // namespace

int main(int argc, char** argv) {
  const char* models[] = {"GAT",     "SGC",    "Guardian", "AtNE-Trust",
                          "KGTrust", "UniGCN", "UniGAT",   "HGNN+",
                          "AHNTP"};
  for (const char* model : models) {
    benchmark::RegisterBenchmark(
        (std::string("BM_EncoderForward/") + model).c_str(),
        [model](benchmark::State& state) {
          BM_EncoderForward(state, model);
        });
  }
  for (const char* model : {"SGC", "HGNN+", "AHNTP"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ForwardBackward/") + model).c_str(),
        [model](benchmark::State& state) {
          BM_ForwardBackward(state, model);
        });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
