#ifndef AHNTP_MODELS_TRUST_PREDICTOR_H_
#define AHNTP_MODELS_TRUST_PREDICTOR_H_

#include <memory>

#include "common/status.h"
#include "data/split.h"
#include "models/encoder.h"
#include "nn/mlp.h"

namespace ahntp::models {

class InferencePlan;
class ShardedInferencePlan;
struct ShardedPlanOptions;
enum class PlanPrecision;  // models/inference_plan.h

/// Configuration of the pairwise head shared by all models.
struct TrustPredictorConfig {
  /// Tower widths appended after the encoder output (Eqs. 17-18); the last
  /// width is the similarity space dimension.
  std::vector<size_t> tower_dims = {32};
  float dropout = 0.0f;
};

/// Encoder + pairwise deep network + cosine head (Eqs. 17-19).
///
/// Trustor and trustee pass through separate MLP towers (W_a / W_b in the
/// paper), then cosine similarity scores the pair. The paper reads the
/// cosine as a probability in [0, 1]; cosine lives in [-1, 1], so the
/// probability head maps p = (1 + cos) / 2 — a fixed monotone rescaling that
/// preserves the paper's ranking semantics (documented in DESIGN.md). The
/// raw cosine feeds the contrastive loss (Eq. 20).
class TrustPredictor : public nn::Module {
 public:
  TrustPredictor(std::shared_ptr<Encoder> encoder,
                 const TrustPredictorConfig& config, Rng* rng);
  ~TrustPredictor() override;

  /// Outputs for a batch of user pairs.
  struct PairOutput {
    autograd::Variable cosine;      // (batch x 1) in [-1, 1]
    autograd::Variable probability;  // (batch x 1) in [0, 1]
    autograd::Variable embeddings;   // (n x d) encoder output, shared tape
  };

  /// Encodes all users and scores the given pairs. Respects training().
  PairOutput Forward(const std::vector<data::TrustPair>& pairs);

  /// Inference helper: probabilities for pairs. Routes through the compiled
  /// InferencePlan (tape-free, cached embeddings, workspace arena); results
  /// are bit-identical to Forward() in eval mode at any thread count. Saves
  /// and restores the module training flag around the call.
  std::vector<float> PredictProbabilities(
      const std::vector<data::TrustPair>& pairs);

  /// PredictProbabilities with deterministic MC-dropout on the gathered
  /// embedding rows (InferencePlan::ScoreWithInputDropout) — one stochastic
  /// forward sample of the uncertainty ensemble (models/uncertainty.h).
  /// Masks are keyed on (seed, user, tower side, element), so a pair's
  /// perturbed score is independent of batch composition, thread count,
  /// and sharded-vs-monolithic plan. `rate` in (0, 1) (CHECK).
  std::vector<float> PredictProbabilitiesWithInputDropout(
      const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed);

  /// Builds the inference plan eagerly (encodes all users) so the first
  /// PredictProbabilities call is cheap. serve::ModelBackend calls this
  /// before publishing a predictor. When sharded inference is enabled this
  /// warms the sharded plan (encode + spill) instead.
  void WarmInferencePlan();

  /// Switches PredictProbabilities to the shard-aware out-of-core plan
  /// (models/inference_plan.h): per-shard embedding blocks on disk behind a
  /// bounded resident-set LRU, bit-identical scores to the monolithic plan.
  /// Takes effect at the next prediction; the plan spills lazily. Invalid
  /// options (num_shards < 1, empty spill_dir) abort via CHECK.
  void EnableShardedInference(const ShardedPlanOptions& options);

  /// Reverts PredictProbabilities to the monolithic in-RAM plan.
  void DisableShardedInference();

  /// Selects the embedding-table precision for whichever inference plan
  /// serves PredictProbabilities (monolithic and sharded alike, including
  /// plans created later). kInt8 stores the table quantized (4x smaller,
  /// tolerance-equal scores); kFloat32 is the bit-exact default. A change
  /// invalidates existing plans.
  void SetInferencePrecision(models::PlanPrecision precision);
  models::PlanPrecision inference_precision() const { return precision_; }

  /// The sharded plan, or null when sharded inference is disabled.
  const ShardedInferencePlan* sharded_plan() const {
    return sharded_plan_.get();
  }

  /// Re-encodes after the encoder's inputs changed under a graph delta
  /// (DESIGN.md §17): invalidates every plan, then rebuilds the one that
  /// serves PredictProbabilities (sharded if enabled, else monolithic).
  /// Unlike WarmInferencePlan, a failed build comes back as a Status (the
  /// sharded spill's IoError) instead of aborting.
  Status RebuildInferencePlan();

  /// Drops the cached embeddings/plan in addition to the recursive module
  /// default. Called after parameter loads and restores.
  void InvalidateCaches() override;

  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

  Encoder& encoder() { return *encoder_; }
  const Encoder& encoder() const { return *encoder_; }
  const nn::Mlp& tower_src() const { return *tower_src_; }
  const nn::Mlp& tower_dst() const { return *tower_dst_; }
  /// The compiled plan (created lazily); for tests and diagnostics.
  const InferencePlan* inference_plan() const { return plan_.get(); }

 private:
  InferencePlan& Plan();

  std::shared_ptr<Encoder> encoder_;
  std::unique_ptr<nn::Mlp> tower_src_;
  std::unique_ptr<nn::Mlp> tower_dst_;
  std::unique_ptr<InferencePlan> plan_;
  std::unique_ptr<ShardedInferencePlan> sharded_plan_;
  PlanPrecision precision_ = PlanPrecision{};  // kFloat32
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_TRUST_PREDICTOR_H_
