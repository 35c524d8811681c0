#ifndef AHNTP_CORE_AHNTP_MODEL_H_
#define AHNTP_CORE_AHNTP_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive_conv.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"
#include "models/encoder.h"
#include "nn/mlp.h"

namespace ahntp::core {

/// Configuration of the full AHNTP model (Fig. 5). Defaults follow
/// Section V-A.4: alpha = 0.8, three conv layers of 256-128-64, 1-hop
/// multi-hop group at those dims.
struct AhntpConfig {
  /// Output widths of the stacked adaptive conv layers.
  std::vector<size_t> hidden_dims = {256, 128, 64};

  // --- Hypergroup construction (Section IV-B) ---
  /// K of the high-social-influence hyperedges (Eq. 6).
  int social_top_k = 5;
  /// false = AHNTP_nompr ablation: plain PageRank replaces MPR.
  bool use_mpr = true;
  /// alpha of Eq. (4).
  double mpr_alpha = 0.8;
  /// Motif driving the high-order term of MPR.
  graph::Motif motif = graph::Motif::kM6;
  /// N of the multi-hop hypergroup (Eq. 9).
  int multi_hop = 1;
  /// Cap on multi-hop hyperedge size (0 = unlimited).
  size_t multi_hop_max_edge_size = 128;
  /// Attribute hyperedges smaller than this are dropped.
  size_t attribute_min_size = 2;

  // --- Convolution (Section IV-C) ---
  /// false = AHNTP_noatt ablation: standard hypergraph convolution.
  bool use_attention = true;
  /// Attention heads per conv layer (1 = the paper's design). Every entry
  /// of hidden_dims must be divisible by this.
  size_t attention_heads = 1;
  float dropout = 0.1f;

  // --- Influence computation ---
  /// Inner power-iteration settings for both MPR and the plain-PageRank
  /// ablation; the dynamic pipeline's warm-started solves use them too.
  graph::PageRankOptions pagerank;
  /// When non-empty (must be sized to the user count), used verbatim as
  /// the influence scores instead of running (M)PR. The dynamic pipeline
  /// computes the scores once — warm-started — and shares them with any
  /// model it constructs, including the rebuild-from-scratch oracle.
  std::vector<double> influence_override;
};

/// The Adaptive Hypergraph Network for Trust Prediction.
///
/// Construction builds the two-tier hypergroups from the *training* trust
/// graph and user attributes:
///   node level      = social-influence (MPR top-K)  ||  attribute groups,
///   structure level = pairwise (2-uniform)          ||  multi-hop balls.
/// Each tier runs through its own feature MLP and stack of adaptive
/// hypergraph convolutions; the two embeddings are concatenated (Fig. 5).
/// The pairwise towers + cosine head live in models::TrustPredictor.
class AhntpModel : public models::Encoder {
 public:
  AhntpModel(const models::ModelInputs& inputs, const AhntpConfig& config);

  autograd::Variable EncodeUsers() override;
  tensor::Matrix InferUsers(tensor::Workspace* ws) override;
  size_t embedding_dim() const override {
    return 2 * config_.hidden_dims.back();
  }
  std::string name() const override { return "AHNTP"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

  const AhntpConfig& config() const { return config_; }
  const hypergraph::Hypergraph& node_hypergraph() const { return node_hg_; }
  const hypergraph::Hypergraph& structure_hypergraph() const {
    return structure_hg_;
  }
  /// Union of both tiers, used by the Eq. 23 regularizer.
  const hypergraph::Hypergraph& combined_hypergraph() const {
    return combined_hg_;
  }
  /// The (motif-)PageRank influence scores used for the social hypergroup.
  const std::vector<double>& influence_scores() const { return influence_; }

  /// One hyperedge's contribution to a user's embedding, read from the
  /// final adaptive-convolution attention (Eq. 15).
  struct HyperedgeInfluence {
    std::string branch;   // "node" or "structure"
    std::string source;   // "social-influence", "attribute", "pairwise",
                          // "multi-hop"
    int edge_index = 0;   // index within the branch hypergraph
    float attention = 0;  // w_ie of the last conv layer
    std::vector<int> members;
  };

  /// Explains user u: the top_k hyperedges (across both branches) that the
  /// final conv layer attends to most when embedding u. Runs one eval-mode
  /// forward pass. Requires the attention variant (use_attention).
  std::vector<HyperedgeInfluence> ExplainUser(int u, size_t top_k = 5);

  // --- Graph deltas (DESIGN.md §17) -------------------------------------

  /// One branch's post-delta structure, produced by the dynamic pipeline
  /// from the incremental hypergroup updates and hypergraph::DiffBranch.
  struct BranchUpdate {
    hypergraph::Hypergraph hypergraph{0};
    /// Per new edge: the old edge whose learned weight w_e it keeps, or -1.
    std::vector<int> new_from_old;
    /// Per-edge source labels parallel to `hypergraph` ("social-influence",
    /// "attribute", "pairwise", "multi-hop").
    std::vector<std::string> edge_sources;
  };

  /// Installs the post-delta inputs: the whole feature matrix, the
  /// influence vector, and, for each branch whose structure changed, its
  /// new hypergraph (every conv's ResetStructure remaps the surviving
  /// edges' weights). Nothing is encoded here; the next InferUsers() (the
  /// inference plan's rebuild) re-embeds every user, bit-identical to a
  /// model built from the post-delta inputs with the same weights.
  void InstallInputs(tensor::Matrix features, std::vector<double> influence,
                     std::optional<BranchUpdate> node_update,
                     std::optional<BranchUpdate> structure_update);

 private:
  /// One tier: feature MLP then stacked adaptive convolutions.
  struct Branch {
    std::unique_ptr<nn::Mlp> feature_mlp;
    std::vector<std::unique_ptr<AdaptiveHypergraphConv>> convs;
  };
  Branch MakeBranch(const hypergraph::Hypergraph& hg, size_t in_dim,
                    Rng* rng);
  autograd::Variable RunBranch(const Branch& branch,
                               const autograd::Variable& x);
  tensor::Matrix& InferBranch(const Branch& branch, const tensor::Matrix& x,
                              tensor::Workspace* ws);

  AhntpConfig config_;
  autograd::Variable features_;
  std::vector<double> influence_;
  hypergraph::Hypergraph node_hg_;
  hypergraph::Hypergraph structure_hg_;
  hypergraph::Hypergraph combined_hg_;
  std::vector<std::string> node_edge_sources_;       // per node_hg_ edge
  std::vector<std::string> structure_edge_sources_;  // per structure_hg_ edge
  Branch node_branch_;
  Branch structure_branch_;
  float dropout_;
  Rng* rng_;
};

}  // namespace ahntp::core

#endif  // AHNTP_CORE_AHNTP_MODEL_H_
