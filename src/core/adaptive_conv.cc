#include "core/adaptive_conv.h"

#include "common/check.h"
#include "nn/infer.h"
#include "nn/init.h"
#include "tensor/kernels.h"

namespace ahntp::core {

using autograd::Variable;

std::shared_ptr<const HypergraphIncidence> HypergraphIncidence::Build(
    const hypergraph::Hypergraph& hg) {
  auto built = std::make_shared<HypergraphIncidence>();
  tensor::CsrMatrix incidence = hg.Incidence();
  built->edge_mean = incidence.Transposed().RowNormalized();
  built->vertex_mean = incidence.RowNormalized();
  hypergraph::Hypergraph::IncidencePairs pairs = hg.Pairs();
  built->pairs = tensor::PairIndex::Build(std::move(pairs.vertex),
                                          std::move(pairs.edge),
                                          hg.num_vertices(), hg.num_edges());
  return built;
}

AdaptiveHypergraphConv::AdaptiveHypergraphConv(
    std::shared_ptr<const HypergraphIncidence> incidence, size_t in_features,
    size_t out_features, Rng* rng, bool use_attention, float leaky_slope,
    size_t num_heads)
    : incidence_(std::move(incidence)),
      num_vertices_(incidence_->pairs.num_segments),
      out_features_(out_features),
      use_attention_(use_attention),
      leaky_slope_(leaky_slope),
      edge_weight_(autograd::Parameter(
          tensor::Matrix(incidence_->pairs.num_sources, 1, 1.0f))) {
  AHNTP_CHECK_GT(incidence_->pairs.num_sources, 0u)
      << "hypergraph has no hyperedges";
  AHNTP_CHECK_GE(num_heads, 1u);
  if (!use_attention) num_heads = 1;  // heads only differ through attention
  AHNTP_CHECK_EQ(out_features % num_heads, 0u)
      << "out_features must divide evenly across attention heads";
  const size_t head_dim = out_features / num_heads;
  for (size_t h = 0; h < num_heads; ++h) {
    Head head;
    head.transform = std::make_unique<nn::Linear>(in_features, head_dim, rng,
                                                  /*use_bias=*/false);
    head.attn_vertex =
        autograd::Parameter(nn::XavierUniform(head_dim, 1, rng));
    head.attn_edge = autograd::Parameter(nn::XavierUniform(head_dim, 1, rng));
    heads_.push_back(std::move(head));
  }
}

AdaptiveHypergraphConv::AdaptiveHypergraphConv(
    const hypergraph::Hypergraph& hg, size_t in_features, size_t out_features,
    Rng* rng, bool use_attention, float leaky_slope, size_t num_heads)
    : AdaptiveHypergraphConv(HypergraphIncidence::Build(hg), in_features,
                             out_features, rng, use_attention, leaky_slope,
                             num_heads) {}

Variable AdaptiveHypergraphConv::Forward(const Variable& x) const {
  AHNTP_CHECK_EQ(x.rows(), num_vertices_);
  // Step 1: Mess_e (Eq. 10) and the adaptive reweighting h_e (Eq. 11).
  Variable mess_e = autograd::SpMMConst(incidence_->edge_mean, x);
  Variable h_e = autograd::MulColBroadcast(mess_e, edge_weight_);

  if (!use_attention_) {
    // Eqs. 12-13: mean over incident hyperedges, then theta + ReLU.
    Variable mess_v = autograd::SpMMConst(incidence_->vertex_mean, h_e);
    return autograd::Relu(heads_.front().transform->Forward(mess_v));
  }

  // Eqs. 14-16 per head: shared-attention reweighting of incident edges.
  std::shared_ptr<const tensor::PairIndex> pairs(incidence_,
                                                 &incidence_->pairs);
  tensor::Matrix attention_sum(pairs->size(), 1);
  tensor::Matrix alpha;
  std::vector<Variable> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    Variable wh_e = head.transform->Forward(h_e);  // m x d_h
    Variable wx = head.transform->Forward(x);      // n x d_h
    head_outputs.push_back(autograd::PairAttention(
        wx, head.attn_vertex, wh_e, head.attn_edge, pairs, leaky_slope_,
        &alpha));
    attention_sum += alpha;
  }
  attention_sum *= 1.0f / static_cast<float>(heads_.size());
  last_attention_ = attention_sum;
  Variable combined = head_outputs.size() == 1
                          ? head_outputs.front()
                          : autograd::ConcatCols(head_outputs);
  return autograd::Relu(combined);
}

tensor::Matrix& AdaptiveHypergraphConv::Infer(const tensor::Matrix& x,
                                              tensor::Workspace* ws) const {
  using tensor::Matrix;
  AHNTP_CHECK_EQ(x.rows(), num_vertices_);
  const tensor::PairIndex& pairs = incidence_->pairs;
  // h_e = w_e * Mess_e, computed in place.
  Matrix* h_e = ws->Acquire(pairs.num_sources, x.cols());
  tensor::SpMMInto(h_e, incidence_->edge_mean, x);
  tensor::MulColBroadcastInto(h_e, *h_e, edge_weight_.value());

  if (!use_attention_) {
    Matrix* mess_v = ws->Acquire(num_vertices_, h_e->cols());
    tensor::SpMMInto(mess_v, incidence_->vertex_mean, *h_e);
    Matrix& out = nn::InferLinear(*heads_.front().transform, *mess_v, ws);
    tensor::ReluInto(&out, out);
    return out;
  }

  std::vector<Matrix*> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    Matrix& wh_e = nn::InferLinear(*head.transform, *h_e, ws);
    Matrix& wx = nn::InferLinear(*head.transform, x, ws);
    Matrix& agg =
        nn::InferPairAttention(wx, head.attn_vertex.value(), wh_e,
                               head.attn_edge.value(), pairs, leaky_slope_, ws);
    head_outputs.push_back(&agg);
  }
  Matrix* combined = head_outputs.front();
  if (head_outputs.size() > 1) {
    combined = ws->Acquire(num_vertices_, out_features_);
    std::vector<const Matrix*> parts(head_outputs.begin(),
                                     head_outputs.end());
    tensor::ConcatColsInto(combined, parts);
  }
  tensor::ReluInto(combined, *combined);
  return *combined;
}

void AdaptiveHypergraphConv::ResetStructure(
    std::shared_ptr<const HypergraphIncidence> incidence,
    const std::vector<int>& new_from_old) {
  const size_t num_edges = incidence->pairs.num_sources;
  AHNTP_CHECK_EQ(incidence->pairs.num_segments, num_vertices_);
  AHNTP_CHECK_GT(num_edges, 0u) << "hypergraph has no hyperedges";
  AHNTP_CHECK_EQ(new_from_old.size(), num_edges);
  tensor::Matrix weights(num_edges, 1, 1.0f);
  const tensor::Matrix& old_weights = edge_weight_.value();
  for (size_t e = 0; e < num_edges; ++e) {
    const int old_e = new_from_old[e];
    if (old_e >= 0) {
      AHNTP_CHECK(static_cast<size_t>(old_e) < old_weights.rows());
      weights.At(e, 0) = old_weights.At(static_cast<size_t>(old_e), 0);
    }
  }
  edge_weight_ = autograd::Parameter(std::move(weights));
  incidence_ = std::move(incidence);
  last_attention_ = tensor::Matrix();
}

std::vector<Variable> AdaptiveHypergraphConv::Parameters() const {
  std::vector<Variable> params;
  for (const Head& head : heads_) {
    for (auto& p : head.transform->Parameters()) params.push_back(p);
    if (use_attention_) {
      params.push_back(head.attn_vertex);
      params.push_back(head.attn_edge);
    }
  }
  params.push_back(edge_weight_);
  return params;
}

std::vector<nn::Module*> AdaptiveHypergraphConv::Submodules() {
  std::vector<nn::Module*> subs;
  for (const Head& head : heads_) subs.push_back(head.transform.get());
  return subs;
}

}  // namespace ahntp::core
