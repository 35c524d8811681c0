#ifndef AHNTP_CORE_MODEL_ZOO_H_
#define AHNTP_CORE_MODEL_ZOO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ahntp_model.h"
#include "models/encoder.h"
#include "models/trust_predictor.h"

namespace ahntp::core {

/// A constructed encoder plus the training-protocol flags its paper variant
/// prescribes.
struct ModelSpec {
  std::shared_ptr<models::Encoder> encoder;
  /// True only for full AHNTP: the baselines (and the AHNTP_nocon ablation)
  /// train with cross-entropy alone, per Sections V-A.2 and V-C.
  bool use_contrastive = false;
};

/// All model names accepted by CreateEncoder: the eight baselines of
/// Section V-A.2, AHNTP, and its three Table V ablations.
std::vector<std::string> AvailableModels();

/// True for models that consume ModelInputs::hypergraph.
bool ModelNeedsHypergraph(const std::string& name);

/// True for models that consume ModelInputs::dataset (KGTrust, AHNTP*).
bool ModelNeedsDataset(const std::string& name);

/// Builds an encoder by name. `ahntp_config` parameterizes AHNTP and its
/// ablation variants (ablations override the relevant switch). Returns
/// InvalidArgument, before any encoder runs, when `inputs` lacks features,
/// graph or rng, lacks the hypergraph or dataset the model reads, or when
/// their user counts disagree with the graph's.
Result<ModelSpec> CreateEncoder(const std::string& name,
                                const models::ModelInputs& inputs,
                                const AhntpConfig& ahntp_config);

/// Encoder + pairwise head in one call: the complete scoring model the
/// serving path (src/serve) and checkpoint tooling work with. Draws all
/// initialization from inputs.rng, so a fixed seed rebuilds the identical
/// architecture — the contract hot-reload staging relies on.
Result<std::unique_ptr<models::TrustPredictor>> CreatePredictor(
    const std::string& name, const models::ModelInputs& inputs,
    const AhntpConfig& ahntp_config,
    const models::TrustPredictorConfig& predictor_config = {});

}  // namespace ahntp::core

#endif  // AHNTP_CORE_MODEL_ZOO_H_
