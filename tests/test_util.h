#ifndef AHNTP_TESTS_TEST_UTIL_H_
#define AHNTP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"

namespace ahntp::testing {

/// Checks the analytic gradients of `build` against central finite
/// differences. `build` must construct a fresh scalar (1x1) expression from
/// the given parameters on each call (define-by-run semantics).
///
/// Works in float32, so tolerances are loose: the check asserts
/// |analytic - numeric| <= abs_tol + rel_tol * |numeric|.
inline void ExpectGradientsClose(
    const std::function<autograd::Variable(
        const std::vector<autograd::Variable>&)>& build,
    std::vector<autograd::Variable> params, float epsilon = 5e-3f,
    float abs_tol = 5e-3f, float rel_tol = 5e-2f) {
  ASSERT_FALSE(params.empty());
  // Analytic gradients.
  for (auto& p : params) p.ZeroGrad();
  autograd::Variable loss = build(params);
  ASSERT_EQ(loss.rows(), 1u);
  ASSERT_EQ(loss.cols(), 1u);
  loss.Backward();
  std::vector<tensor::Matrix> analytic;
  for (auto& p : params) analytic.push_back(p.grad());

  // Numeric gradients, entry by entry.
  for (size_t k = 0; k < params.size(); ++k) {
    tensor::Matrix& value = params[k].mutable_value();
    for (size_t i = 0; i < value.size(); ++i) {
      float original = value.data()[i];
      value.data()[i] = original + epsilon;
      float plus = build(params).value().At(0, 0);
      value.data()[i] = original - epsilon;
      float minus = build(params).value().At(0, 0);
      value.data()[i] = original;
      float numeric = (plus - minus) / (2.0f * epsilon);
      float got = analytic[k].data()[i];
      EXPECT_NEAR(got, numeric, abs_tol + rel_tol * std::fabs(numeric))
          << "param " << k << " entry " << i;
    }
  }
}

/// The gather-based composition autograd::PairAttention replaced: one
/// gathered row per pair, then MatMul scores, LeakyReLU, segment softmax
/// and a segment sum of the alpha-scaled rows. Kept as its bitwise
/// reference. `alpha` receives the attention coefficients.
inline autograd::Variable ReferencePairAttention(
    const autograd::Variable& segment_rows,
    const autograd::Variable& beta_segment,
    const autograd::Variable& source_rows,
    const autograd::Variable& beta_source, const tensor::PairIndex& pairs,
    float negative_slope, tensor::Matrix* alpha) {
  namespace ag = autograd;
  ag::Variable seg_pairs = ag::GatherRows(segment_rows, pairs.segment);
  ag::Variable src_pairs = ag::GatherRows(source_rows, pairs.source);
  ag::Variable score =
      ag::LeakyRelu(ag::Add(ag::MatMul(seg_pairs, beta_segment),
                            ag::MatMul(src_pairs, beta_source)),
                    negative_slope);
  ag::Variable a =
      ag::SegmentSoftmax(score, pairs.segment, pairs.num_segments);
  *alpha = a.value();
  return ag::SegmentSum(ag::MulColBroadcast(src_pairs, a), pairs.segment,
                        pairs.num_segments);
}

inline bool BitEqual(const tensor::Matrix& a, const tensor::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// max |a - b| over max |b|: a difference relative to the matrix's scale,
/// so a near-zero entry cannot blow it up.
inline float MaxRelDiff(const tensor::Matrix& a, const tensor::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  float diff = 0.0f;
  float scale = 0.0f;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    diff = std::max(diff, std::fabs(a.data()[i] - b.data()[i]));
    scale = std::max(scale, std::fabs(b.data()[i]));
  }
  return scale > 0.0f ? diff / scale : diff;
}

}  // namespace ahntp::testing

#endif  // AHNTP_TESTS_TEST_UTIL_H_
