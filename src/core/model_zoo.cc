#include "core/model_zoo.h"

#include "common/strings.h"
#include "models/atne_trust.h"
#include "models/gat.h"
#include "models/guardian.h"
#include "models/hgnn_plus.h"
#include "models/kgtrust.h"
#include "models/matrix_factorization.h"
#include "models/sgc.h"
#include "models/unignn.h"

namespace ahntp::core {

std::vector<std::string> AvailableModels() {
  return {"GAT",    "SGC",    "Guardian",    "AtNE-Trust",
          "KGTrust", "UniGCN", "UniGAT",      "HGNN+",
          "MF",     "AHNTP",  "AHNTP-nompr", "AHNTP-noatt",
          "AHNTP-nocon"};
}

bool ModelNeedsHypergraph(const std::string& name) {
  return name == "UniGCN" || name == "UniGAT" || name == "HGNN+";
}

bool ModelNeedsDataset(const std::string& name) {
  return name == "KGTrust" || name.rfind("AHNTP", 0) == 0;
}

namespace {

/// Encoders dereference their inputs while constructing, so every pointer a
/// model reads is checked here, before any of them runs.
Status ValidateInputs(const std::string& name,
                      const models::ModelInputs& inputs) {
  if (inputs.features == nullptr || inputs.graph == nullptr ||
      inputs.rng == nullptr) {
    return Status::InvalidArgument(
        name + ": ModelInputs needs features, graph and rng");
  }
  const size_t n = inputs.graph->num_nodes();
  if (inputs.features->rows() != n) {
    return Status::InvalidArgument(
        StrFormat("%s: %zu feature rows for %zu graph nodes", name.c_str(),
                  inputs.features->rows(), n));
  }
  if (ModelNeedsHypergraph(name)) {
    if (inputs.hypergraph == nullptr) {
      return Status::InvalidArgument(name + ": ModelInputs needs a hypergraph");
    }
    if (inputs.hypergraph->num_vertices() != n) {
      return Status::InvalidArgument(StrFormat(
          "%s: %zu hypergraph vertices for %zu graph nodes", name.c_str(),
          inputs.hypergraph->num_vertices(), n));
    }
  }
  if (ModelNeedsDataset(name)) {
    if (inputs.dataset == nullptr) {
      return Status::InvalidArgument(name + ": ModelInputs needs a dataset");
    }
    if (inputs.dataset->num_users != n) {
      return Status::InvalidArgument(
          StrFormat("%s: %zu dataset users for %zu graph nodes", name.c_str(),
                    inputs.dataset->num_users, n));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ModelSpec> CreateEncoder(const std::string& name,
                                const models::ModelInputs& inputs,
                                const AhntpConfig& ahntp_config) {
  AHNTP_RETURN_IF_ERROR(ValidateInputs(name, inputs));
  ModelSpec spec;
  if (name == "GAT") {
    spec.encoder = std::make_shared<models::Gat>(inputs);
  } else if (name == "SGC") {
    spec.encoder = std::make_shared<models::Sgc>(inputs);
  } else if (name == "Guardian") {
    spec.encoder = std::make_shared<models::Guardian>(inputs);
  } else if (name == "AtNE-Trust") {
    spec.encoder = std::make_shared<models::AtneTrust>(inputs);
  } else if (name == "KGTrust") {
    spec.encoder = std::make_shared<models::KgTrust>(inputs);
  } else if (name == "UniGCN") {
    spec.encoder = std::make_shared<models::UniGcn>(inputs);
  } else if (name == "UniGAT") {
    spec.encoder = std::make_shared<models::UniGat>(inputs);
  } else if (name == "HGNN+") {
    spec.encoder = std::make_shared<models::HgnnPlus>(inputs);
  } else if (name == "MF") {
    spec.encoder = std::make_shared<models::MatrixFactorization>(inputs);
  } else if (name == "AHNTP" || name == "AHNTP-nompr" ||
             name == "AHNTP-noatt" || name == "AHNTP-nocon") {
    AhntpConfig config = ahntp_config;
    config.hidden_dims = inputs.hidden_dims;
    config.dropout = inputs.dropout;
    if (name == "AHNTP-nompr") config.use_mpr = false;
    if (name == "AHNTP-noatt") config.use_attention = false;
    spec.encoder = std::make_shared<AhntpModel>(inputs, config);
    spec.use_contrastive = name != "AHNTP-nocon";
  } else {
    return Status::NotFound("unknown model: " + name);
  }
  return spec;
}

Result<std::unique_ptr<models::TrustPredictor>> CreatePredictor(
    const std::string& name, const models::ModelInputs& inputs,
    const AhntpConfig& ahntp_config,
    const models::TrustPredictorConfig& predictor_config) {
  AHNTP_ASSIGN_OR_RETURN(ModelSpec spec,
                         CreateEncoder(name, inputs, ahntp_config));
  return std::make_unique<models::TrustPredictor>(
      spec.encoder, predictor_config, inputs.rng);
}

}  // namespace ahntp::core
