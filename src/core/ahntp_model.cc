#include "core/ahntp_model.h"

#include <algorithm>

#include "common/check.h"
#include "graph/pagerank.h"
#include "nn/infer.h"
#include "tensor/kernels.h"

namespace ahntp::core {

using autograd::Variable;
using hypergraph::Hypergraph;

AhntpModel::AhntpModel(const models::ModelInputs& inputs,
                       const AhntpConfig& config)
    : config_(config),
      features_(autograd::Constant(*inputs.features)),
      node_hg_(0),
      structure_hg_(0),
      combined_hg_(0),
      dropout_(config.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr &&
              inputs.dataset != nullptr && inputs.rng != nullptr);
  AHNTP_CHECK(!config_.hidden_dims.empty());
  const graph::Digraph& g = *inputs.graph;

  // ---- Influence scores: MPR (Eqs. 3-5) or plain PageRank (ablation). ----
  if (!config_.influence_override.empty()) {
    AHNTP_CHECK_EQ(config_.influence_override.size(), g.num_nodes());
    influence_ = config_.influence_override;
  } else if (config_.use_mpr) {
    graph::MotifPageRankOptions mpr;
    mpr.alpha = config_.mpr_alpha;
    mpr.motif = config_.motif;
    mpr.pagerank = config_.pagerank;
    influence_ = graph::MotifPageRank(g.Adjacency(), mpr).scores;
  } else {
    influence_ = graph::PageRank(g.Adjacency(), config_.pagerank);
  }

  // ---- Two-tier hypergroups (Section IV-B). ----
  Hypergraph social = hypergraph::BuildSocialInfluenceHypergroup(
      g, influence_, config_.social_top_k);
  Hypergraph attr = hypergraph::BuildAttributeHypergroup(
      g.num_nodes(), inputs.dataset->attributes, config_.attribute_min_size);
  node_hg_ = Hypergraph::Concat(social, attr);
  node_edge_sources_.assign(social.num_edges(), "social-influence");
  node_edge_sources_.insert(node_edge_sources_.end(), attr.num_edges(),
                            "attribute");

  Hypergraph pairwise = hypergraph::BuildPairwiseHypergroup(g);
  hypergraph::MultiHopOptions hop_options;
  hop_options.num_hops = config_.multi_hop;
  hop_options.max_edge_size = config_.multi_hop_max_edge_size;
  Hypergraph multihop = hypergraph::BuildMultiHopHypergroup(g, hop_options);
  structure_hg_ = Hypergraph::Concat(pairwise, multihop);
  structure_edge_sources_.assign(pairwise.num_edges(), "pairwise");
  structure_edge_sources_.insert(structure_edge_sources_.end(),
                                 multihop.num_edges(), "multi-hop");

  combined_hg_ = Hypergraph::Concat(node_hg_, structure_hg_);

  // ---- Branches. ----
  const size_t in_dim = inputs.features->cols();
  node_branch_ = MakeBranch(node_hg_, in_dim, inputs.rng);
  structure_branch_ = MakeBranch(structure_hg_, in_dim, inputs.rng);
}

AhntpModel::Branch AhntpModel::MakeBranch(const Hypergraph& hg, size_t in_dim,
                                          Rng* rng) {
  Branch branch;
  const auto& dims = config_.hidden_dims;
  // Feature-extraction MLP into the first conv width (Section IV-B end).
  branch.feature_mlp = std::make_unique<nn::Mlp>(
      std::vector<size_t>{in_dim, dims[0]}, rng, nn::Activation::kRelu,
      nn::Activation::kRelu);
  auto incidence = HypergraphIncidence::Build(hg);
  size_t prev = dims[0];
  for (size_t out : dims) {
    branch.convs.push_back(std::make_unique<AdaptiveHypergraphConv>(
        incidence, prev, out, rng, config_.use_attention, /*leaky_slope=*/0.2f,
        config_.attention_heads));
    prev = out;
  }
  return branch;
}

Variable AhntpModel::RunBranch(const Branch& branch, const Variable& x) {
  Variable h = branch.feature_mlp->Forward(x);
  for (size_t i = 0; i < branch.convs.size(); ++i) {
    h = branch.convs[i]->Forward(h);
    if (i + 1 < branch.convs.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

Variable AhntpModel::EncodeUsers() {
  Variable node_embedding = RunBranch(node_branch_, features_);
  Variable structure_embedding = RunBranch(structure_branch_, features_);
  return autograd::ConcatCols({node_embedding, structure_embedding});
}

tensor::Matrix& AhntpModel::InferBranch(const Branch& branch,
                                        const tensor::Matrix& x,
                                        tensor::Workspace* ws) {
  const tensor::Matrix* h = &nn::InferMlp(*branch.feature_mlp, x, ws);
  tensor::Matrix* out = nullptr;
  for (const auto& conv : branch.convs) {
    out = &conv->Infer(*h, ws);
    h = out;
  }
  return *out;
}

tensor::Matrix AhntpModel::InferUsers(tensor::Workspace* ws) {
  tensor::Matrix& node_embedding =
      InferBranch(node_branch_, features_.value(), ws);
  tensor::Matrix& structure_embedding =
      InferBranch(structure_branch_, features_.value(), ws);
  tensor::Matrix* out = ws->Acquire(
      node_embedding.rows(),
      node_embedding.cols() + structure_embedding.cols());
  tensor::ConcatColsInto(out, {&node_embedding, &structure_embedding});
  return *out;
}

void AhntpModel::InstallInputs(tensor::Matrix features,
                               std::vector<double> influence,
                               std::optional<BranchUpdate> node_update,
                               std::optional<BranchUpdate> structure_update) {
  AHNTP_CHECK_EQ(features.rows(), features_.rows());
  AHNTP_CHECK_EQ(features.cols(), features_.cols());
  AHNTP_CHECK_EQ(influence.size(), influence_.size());
  features_ = autograd::Constant(std::move(features));
  influence_ = std::move(influence);
  auto reset = [](Branch& branch, BranchUpdate& update, Hypergraph* hg,
                  std::vector<std::string>* sources) {
    AHNTP_CHECK_EQ(update.edge_sources.size(), update.hypergraph.num_edges());
    auto incidence = HypergraphIncidence::Build(update.hypergraph);
    for (auto& conv : branch.convs) {
      conv->ResetStructure(incidence, update.new_from_old);
    }
    *hg = std::move(update.hypergraph);
    *sources = std::move(update.edge_sources);
  };
  if (node_update) {
    reset(node_branch_, *node_update, &node_hg_, &node_edge_sources_);
  }
  if (structure_update) {
    reset(structure_branch_, *structure_update, &structure_hg_,
          &structure_edge_sources_);
  }
  if (node_update || structure_update) {
    combined_hg_ = Hypergraph::Concat(node_hg_, structure_hg_);
  }
}

std::vector<AhntpModel::HyperedgeInfluence> AhntpModel::ExplainUser(
    int u, size_t top_k) {
  AHNTP_CHECK(config_.use_attention)
      << "ExplainUser requires the attention variant";
  AHNTP_CHECK(u >= 0 && static_cast<size_t>(u) < node_hg_.num_vertices());
  bool was_training = training_;
  SetTraining(false);
  EncodeUsers();  // refreshes last_attention() on every conv layer
  SetTraining(was_training);

  std::vector<HyperedgeInfluence> influences;
  struct BranchView {
    const Branch* branch;
    const Hypergraph* hg;
    const std::vector<std::string>* sources;
    const char* name;
  };
  const BranchView views[] = {
      {&node_branch_, &node_hg_, &node_edge_sources_, "node"},
      {&structure_branch_, &structure_hg_, &structure_edge_sources_,
       "structure"},
  };
  for (const BranchView& view : views) {
    const AdaptiveHypergraphConv& last = *view.branch->convs.back();
    const auto& pairs = last.pairs();
    const tensor::Matrix& attention = last.last_attention();
    AHNTP_CHECK_EQ(attention.rows(), pairs.size());
    const size_t user = static_cast<size_t>(u);
    for (int k = pairs.segment_ptr[user]; k < pairs.segment_ptr[user + 1];
         ++k) {
      const size_t p = static_cast<size_t>(pairs.by_segment[k]);
      const int edge = pairs.source[p];
      HyperedgeInfluence info;
      info.branch = view.name;
      info.edge_index = edge;
      info.source = (*view.sources)[static_cast<size_t>(edge)];
      info.attention = attention.At(p, 0);
      info.members = view.hg->EdgeVertices(static_cast<size_t>(edge));
      influences.push_back(std::move(info));
    }
  }
  std::sort(influences.begin(), influences.end(),
            [](const HyperedgeInfluence& a, const HyperedgeInfluence& b) {
              return a.attention > b.attention;
            });
  if (influences.size() > top_k) influences.resize(top_k);
  return influences;
}

std::vector<Variable> AhntpModel::Parameters() const {
  std::vector<Variable> params;
  for (const Branch* branch : {&node_branch_, &structure_branch_}) {
    for (auto& p : branch->feature_mlp->Parameters()) params.push_back(p);
    for (const auto& conv : branch->convs) {
      for (auto& p : conv->Parameters()) params.push_back(p);
    }
  }
  return params;
}

std::vector<nn::Module*> AhntpModel::Submodules() {
  std::vector<nn::Module*> subs;
  for (Branch* branch : {&node_branch_, &structure_branch_}) {
    subs.push_back(branch->feature_mlp.get());
    for (const auto& conv : branch->convs) subs.push_back(conv.get());
  }
  return subs;
}

}  // namespace ahntp::core
