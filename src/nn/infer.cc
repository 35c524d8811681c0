#include "nn/infer.h"

#include "common/check.h"
#include "tensor/kernels.h"

namespace ahntp::nn {

using tensor::Matrix;

Matrix& InferLinear(const Linear& layer, const Matrix& x,
                    tensor::Workspace* ws) {
  AHNTP_CHECK(ws != nullptr);
  Matrix* out = ws->Acquire(x.rows(), layer.out_features());
  tensor::MatMulInto(out, x, layer.weight().value());
  if (layer.use_bias()) {
    tensor::AddRowBroadcastInto(out, *out, layer.bias().value());
  }
  return *out;
}

void InferActivationInPlace(Matrix* m, Activation act, float leaky_slope) {
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      tensor::ReluInto(m, *m);
      return;
    case Activation::kLeakyRelu:
      tensor::LeakyReluInto(m, *m, leaky_slope);
      return;
    case Activation::kSigmoid:
      tensor::SigmoidInto(m, *m);
      return;
    case Activation::kTanh:
      tensor::TanhInto(m, *m);
      return;
  }
}

Matrix& InferMlp(const Mlp& mlp, const Matrix& x, tensor::Workspace* ws) {
  AHNTP_CHECK(ws != nullptr);
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < mlp.num_layers(); ++i) {
    out = &InferLinear(mlp.layer(i), *h, ws);
    bool is_last = (i + 1 == mlp.num_layers());
    InferActivationInPlace(
        out, is_last ? mlp.output_activation() : mlp.hidden_activation());
    h = out;
  }
  return *out;
}

Matrix& InferLayerNorm(const LayerNorm& norm, const Matrix& x,
                       tensor::Workspace* ws) {
  AHNTP_CHECK(ws != nullptr);
  AHNTP_CHECK_EQ(x.cols(), norm.features());
  Matrix* out = ws->Acquire(x.rows(), x.cols());
  tensor::RowStandardizeInto(out, x, norm.epsilon());
  // Two separate broadcast passes, matching the tape's Mul-then-Add node
  // pair: one fused multiply-add would round differently under FP
  // contraction and break bit parity.
  tensor::MulRowBroadcastInto(out, *out, norm.gain().value());
  tensor::AddRowBroadcastInto(out, *out, norm.bias().value());
  return *out;
}

Matrix& InferPairAttention(const Matrix& segment_rows,
                           const Matrix& beta_segment,
                           const Matrix& source_rows,
                           const Matrix& beta_source,
                           const tensor::PairIndex& pairs,
                           float negative_slope, tensor::Workspace* ws) {
  Matrix* s_segment = ws->Acquire(pairs.num_segments, 1);
  Matrix* s_source = ws->Acquire(pairs.num_sources, 1);
  // The LeakyReLU runs in place over the scores: only alpha outlives it.
  Matrix* score = ws->Acquire(pairs.size(), 1);
  Matrix* alpha = ws->Acquire(pairs.size(), 1);
  Matrix* out = ws->Acquire(pairs.num_segments, source_rows.cols());
  tensor::PairAttentionInto(segment_rows, beta_segment, source_rows,
                            beta_source, pairs, negative_slope,
                            {s_segment, s_source, /*pre=*/score,
                             /*act=*/score, alpha, out});
  return *out;
}

}  // namespace ahntp::nn
