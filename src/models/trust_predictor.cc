#include "models/trust_predictor.h"

#include "common/check.h"
#include "models/inference_plan.h"

namespace ahntp::models {

using autograd::Variable;

TrustPredictor::TrustPredictor(std::shared_ptr<Encoder> encoder,
                               const TrustPredictorConfig& config, Rng* rng)
    : encoder_(std::move(encoder)) {
  AHNTP_CHECK(encoder_ != nullptr && rng != nullptr);
  std::vector<size_t> dims;
  dims.push_back(encoder_->embedding_dim());
  dims.insert(dims.end(), config.tower_dims.begin(), config.tower_dims.end());
  AHNTP_CHECK_GE(dims.size(), 2u) << "tower needs at least one layer";
  tower_src_ = std::make_unique<nn::Mlp>(dims, rng, nn::Activation::kRelu,
                                         nn::Activation::kNone,
                                         config.dropout);
  tower_dst_ = std::make_unique<nn::Mlp>(dims, rng, nn::Activation::kRelu,
                                         nn::Activation::kNone,
                                         config.dropout);
}

TrustPredictor::~TrustPredictor() = default;

TrustPredictor::PairOutput TrustPredictor::Forward(
    const std::vector<data::TrustPair>& pairs) {
  AHNTP_CHECK(!pairs.empty());
  // A training forward precedes a parameter update, so any cached
  // embeddings are about to go stale. (SetTraining now recurses through
  // Submodules(), so the per-call flag pushes are gone.)
  if (training_ && plan_) plan_->Invalidate();
  if (training_ && sharded_plan_) sharded_plan_->Invalidate();
  Variable embeddings = encoder_->EncodeUsers();
  std::vector<int> src_idx;
  std::vector<int> dst_idx;
  src_idx.reserve(pairs.size());
  dst_idx.reserve(pairs.size());
  for (const data::TrustPair& p : pairs) {
    src_idx.push_back(p.src);
    dst_idx.push_back(p.dst);
  }
  Variable t_src =
      tower_src_->Forward(autograd::GatherRows(embeddings, src_idx));
  Variable t_dst =
      tower_dst_->Forward(autograd::GatherRows(embeddings, dst_idx));
  PairOutput out;
  out.cosine = autograd::PairwiseCosine(t_src, t_dst);
  // p = (1 + cos) / 2, the fixed rescaling discussed in the class comment.
  out.probability =
      autograd::AddScalar(autograd::Scale(out.cosine, 0.5f), 0.5f);
  out.embeddings = embeddings;
  return out;
}

std::vector<float> TrustPredictor::PredictProbabilities(
    const std::vector<data::TrustPair>& pairs) {
  bool was_training = training();
  SetTraining(false);
  std::vector<float> probs;
  if (sharded_plan_) {
    // Spill-file I/O errors are environment failures, not model state; fail
    // loudly rather than serve from a half-resident store.
    auto result = sharded_plan_->Score(pairs);
    AHNTP_CHECK_OK(result.status());
    probs = std::move(result).value();
  } else {
    probs = Plan().Score(pairs);
  }
  SetTraining(was_training);
  return probs;
}

std::vector<float> TrustPredictor::PredictProbabilitiesWithInputDropout(
    const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed) {
  bool was_training = training();
  SetTraining(false);
  std::vector<float> probs;
  if (sharded_plan_) {
    auto result = sharded_plan_->ScoreWithInputDropout(pairs, rate, seed);
    AHNTP_CHECK_OK(result.status());
    probs = std::move(result).value();
  } else {
    probs = Plan().ScoreWithInputDropout(pairs, rate, seed);
  }
  SetTraining(was_training);
  return probs;
}

void TrustPredictor::WarmInferencePlan() {
  if (sharded_plan_) {
    AHNTP_CHECK_OK(sharded_plan_->EnsureBuilt());
    return;
  }
  AHNTP_CHECK_OK(Plan().EnsureBuilt());
}

void TrustPredictor::EnableShardedInference(const ShardedPlanOptions& options) {
  // The predictor-level precision wins over whatever the options carry, so
  // SetInferencePrecision + EnableShardedInference compose in either order.
  ShardedPlanOptions opts = options;
  opts.precision = precision_;
  sharded_plan_ = std::make_unique<ShardedInferencePlan>(this, opts);
}

void TrustPredictor::DisableShardedInference() { sharded_plan_.reset(); }

void TrustPredictor::SetInferencePrecision(PlanPrecision precision) {
  precision_ = precision;
  if (plan_) plan_->SetPrecision(precision);
  if (sharded_plan_) sharded_plan_->SetPrecision(precision);
}

Status TrustPredictor::RebuildInferencePlan() {
  InvalidateCaches();
  if (sharded_plan_) return sharded_plan_->EnsureBuilt();
  return Plan().EnsureBuilt();
}

void TrustPredictor::InvalidateCaches() {
  nn::Module::InvalidateCaches();
  if (plan_) plan_->Invalidate();
  if (sharded_plan_) sharded_plan_->Invalidate();
}

InferencePlan& TrustPredictor::Plan() {
  if (!plan_) {
    plan_ = std::make_unique<InferencePlan>(this);
    plan_->SetPrecision(precision_);
  }
  return *plan_;
}

std::vector<Variable> TrustPredictor::Parameters() const {
  std::vector<Variable> params = encoder_->Parameters();
  for (auto& p : tower_src_->Parameters()) params.push_back(p);
  for (auto& p : tower_dst_->Parameters()) params.push_back(p);
  return params;
}

std::vector<nn::Module*> TrustPredictor::Submodules() {
  return {encoder_.get(), tower_src_.get(), tower_dst_.get()};
}

}  // namespace ahntp::models
