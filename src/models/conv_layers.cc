#include "models/conv_layers.h"

#include "common/check.h"
#include "nn/infer.h"
#include "nn/init.h"
#include "tensor/kernels.h"

namespace ahntp::models {

using autograd::Variable;

SparseConvLayer::SparseConvLayer(tensor::CsrMatrix op, size_t in_features,
                                 size_t out_features, Rng* rng)
    : op_(std::move(op)), linear_(in_features, out_features, rng) {}

Variable SparseConvLayer::Forward(const Variable& x) const {
  return linear_.Forward(autograd::SpMMConst(op_, x));
}

tensor::Matrix& SparseConvLayer::Infer(const tensor::Matrix& x,
                                       tensor::Workspace* ws) const {
  tensor::Matrix* prop = ws->Acquire(op_.rows(), x.cols());
  tensor::SpMMInto(prop, op_, x);
  return nn::InferLinear(linear_, *prop, ws);
}

GatLayer::GatLayer(std::shared_ptr<const tensor::PairIndex> pairs,
                   size_t in_features, size_t out_features, Rng* rng,
                   float leaky_slope)
    : pairs_(std::move(pairs)),
      transform_(in_features, out_features, rng, /*use_bias=*/false),
      attn_src_(autograd::Parameter(nn::XavierUniform(out_features, 1, rng))),
      attn_dst_(autograd::Parameter(nn::XavierUniform(out_features, 1, rng))),
      leaky_slope_(leaky_slope) {
  AHNTP_CHECK_EQ(pairs_->num_segments, pairs_->num_sources);
}

Variable GatLayer::Forward(const Variable& x) const {
  Variable h = transform_.Forward(x);  // n x out
  return autograd::PairAttention(h, attn_dst_, h, attn_src_, pairs_,
                                 leaky_slope_);
}

tensor::Matrix& GatLayer::Infer(const tensor::Matrix& x,
                                tensor::Workspace* ws) const {
  tensor::Matrix& h = nn::InferLinear(transform_, x, ws);
  return nn::InferPairAttention(h, attn_dst_.value(), h, attn_src_.value(),
                                *pairs_, leaky_slope_, ws);
}

std::vector<Variable> GatLayer::Parameters() const {
  std::vector<Variable> params = transform_.Parameters();
  params.push_back(attn_src_);
  params.push_back(attn_dst_);
  return params;
}

}  // namespace ahntp::models
