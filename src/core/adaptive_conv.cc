#include "core/adaptive_conv.h"

#include "common/check.h"
#include "nn/infer.h"
#include "nn/init.h"
#include "tensor/kernels.h"

namespace ahntp::core {

using autograd::Variable;

AdaptiveHypergraphConv::AdaptiveHypergraphConv(
    const hypergraph::Hypergraph& hg, size_t in_features, size_t out_features,
    Rng* rng, bool use_attention, float leaky_slope, size_t num_heads)
    : num_vertices_(hg.num_vertices()),
      num_edges_(hg.num_edges()),
      out_features_(out_features),
      use_attention_(use_attention),
      leaky_slope_(leaky_slope),
      edge_weight_(
          autograd::Parameter(tensor::Matrix(hg.num_edges(), 1, 1.0f))) {
  AHNTP_CHECK_GT(num_edges_, 0u) << "hypergraph has no hyperedges";
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
  tensor::CsrMatrix incidence = hg.Incidence();
  edge_mean_ = incidence.Transposed().RowNormalized();
  vertex_mean_ = incidence.RowNormalized();
  pairs_ = hg.Pairs();
}

Variable AdaptiveHypergraphConv::RunHead(
    const Head& head, const Variable& x, const Variable& h_e,
    tensor::Matrix* attention_sum) const {
  // Eqs. 14-16: shared-attention reweighting of incident hyperedges.
  Variable wh_e = head.transform->Forward(h_e);  // m x d_h
  Variable wx = head.transform->Forward(x);      // n x d_h
  Variable wx_pairs = autograd::GatherRows(wx, pairs_.vertex);
  Variable whe_pairs = autograd::GatherRows(wh_e, pairs_.edge);
  Variable score = autograd::LeakyRelu(
      autograd::Add(autograd::MatMul(wx_pairs, head.attn_vertex),
                    autograd::MatMul(whe_pairs, head.attn_edge)),
      leaky_slope_);
  Variable alpha =
      autograd::SegmentSoftmax(score, pairs_.vertex, num_vertices_);
  *attention_sum += alpha.value();
  Variable weighted = autograd::MulColBroadcast(whe_pairs, alpha);
  return autograd::SegmentSum(weighted, pairs_.vertex, num_vertices_);
}

Variable AdaptiveHypergraphConv::Forward(const Variable& x) const {
  AHNTP_CHECK_EQ(x.rows(), num_vertices_);
  // Step 1: Mess_e (Eq. 10) and the adaptive reweighting h_e (Eq. 11).
  Variable mess_e = autograd::SpMMConst(edge_mean_, x);
  Variable h_e = autograd::MulColBroadcast(mess_e, edge_weight_);

  if (!use_attention_) {
    // Eqs. 12-13: mean over incident hyperedges, then theta + ReLU.
    Variable mess_v = autograd::SpMMConst(vertex_mean_, h_e);
    return autograd::Relu(heads_.front().transform->Forward(mess_v));
  }

  tensor::Matrix attention_sum(pairs_.vertex.size(), 1);
  std::vector<Variable> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    head_outputs.push_back(RunHead(head, x, h_e, &attention_sum));
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
  Matrix* mess_e = ws->Acquire(edge_mean_.rows(), x.cols());
  tensor::SpMMInto(mess_e, edge_mean_, x);
  Matrix* h_e = ws->Acquire(mess_e->rows(), mess_e->cols());
  tensor::MulColBroadcastInto(h_e, *mess_e, edge_weight_.value());

  if (!use_attention_) {
    Matrix* mess_v = ws->Acquire(vertex_mean_.rows(), h_e->cols());
    tensor::SpMMInto(mess_v, vertex_mean_, *h_e);
    Matrix& out = nn::InferLinear(*heads_.front().transform, *mess_v, ws);
    tensor::ReluInto(&out, out);
    return out;
  }

  const size_t p = pairs_.vertex.size();
  std::vector<Matrix*> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    Matrix& wh_e = nn::InferLinear(*head.transform, *h_e, ws);
    Matrix& wx = nn::InferLinear(*head.transform, x, ws);
    Matrix* wx_pairs = ws->Acquire(p, wx.cols());
    tensor::GatherRowsInto(wx_pairs, wx, pairs_.vertex);
    Matrix* whe_pairs = ws->Acquire(p, wh_e.cols());
    tensor::GatherRowsInto(whe_pairs, wh_e, pairs_.edge);
    Matrix* score = ws->Acquire(p, 1);
    tensor::MatMulInto(score, *wx_pairs, head.attn_vertex.value());
    Matrix* score_edge = ws->Acquire(p, 1);
    tensor::MatMulInto(score_edge, *whe_pairs, head.attn_edge.value());
    tensor::AddInto(score, *score, *score_edge);
    tensor::LeakyReluInto(score, *score, leaky_slope_);
    Matrix* alpha = ws->Acquire(p, 1);
    tensor::SegmentSoftmaxInto(alpha, *score, pairs_.vertex, num_vertices_);
    tensor::MulColBroadcastInto(whe_pairs, *whe_pairs, *alpha);
    Matrix* agg = ws->Acquire(num_vertices_, whe_pairs->cols());
    tensor::SegmentSumInto(agg, *whe_pairs, pairs_.vertex, num_vertices_);
    head_outputs.push_back(agg);
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
    const hypergraph::Hypergraph& hg, const std::vector<int>& new_from_old) {
  AHNTP_CHECK_EQ(hg.num_vertices(), num_vertices_);
  AHNTP_CHECK_GT(hg.num_edges(), 0u) << "hypergraph has no hyperedges";
  AHNTP_CHECK_EQ(new_from_old.size(), hg.num_edges());
  tensor::Matrix weights(hg.num_edges(), 1, 1.0f);
  const tensor::Matrix& old_weights = edge_weight_.value();
  for (size_t e = 0; e < hg.num_edges(); ++e) {
    const int old_e = new_from_old[e];
    if (old_e >= 0) {
      AHNTP_CHECK(static_cast<size_t>(old_e) < num_edges_);
      weights.At(e, 0) = old_weights.At(static_cast<size_t>(old_e), 0);
    }
  }
  edge_weight_ = autograd::Parameter(std::move(weights));
  num_edges_ = hg.num_edges();
  tensor::CsrMatrix incidence = hg.Incidence();
  edge_mean_ = incidence.Transposed().RowNormalized();
  vertex_mean_ = incidence.RowNormalized();
  pairs_ = hg.Pairs();
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
