#include "models/conv_layers.h"

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "core/adaptive_conv.h"
#include "hypergraph/hypergraph.h"
#include "test_util.h"

namespace ahntp::models {
namespace {

using autograd::Variable;
using ahntp::testing::BitEqual;
using ahntp::testing::MaxRelDiff;
using ahntp::testing::ReferencePairAttention;
using tensor::Matrix;

graph::Digraph MakeGraph(size_t n, std::vector<graph::Edge> edges) {
  auto g = graph::Digraph::FromEdges(n, std::move(edges));
  EXPECT_TRUE(g.ok());
  return g.value();
}

TEST(SparseConvLayerTest, MatchesManualComputation) {
  Rng rng(1);
  tensor::CsrMatrix op = tensor::CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 0.5f}, {1, 0, 1.0f}, {2, 2, 2.0f}});
  SparseConvLayer layer(op, 2, 2, &rng);
  Matrix x = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Variable y = layer.Forward(autograd::Constant(x));
  // Manual: (op * x) * W + b.
  Matrix propagated = tensor::SpMM(op, x);
  auto params = layer.Parameters();
  Matrix expected = tensor::AddRowBroadcast(
      tensor::MatMul(propagated, params[0].value()), params[1].value());
  EXPECT_TRUE(y.value().AllClose(expected, 1e-5f));
}

TEST(SparseConvLayerTest, GradientCheck) {
  Rng rng(2);
  tensor::CsrMatrix op = tensor::CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 0.5f}, {1, 2, -1.0f}, {2, 0, 1.5f}});
  SparseConvLayer layer(op, 2, 2, &rng);
  Matrix x = Matrix::Randn(3, 2, &rng);
  ahntp::testing::ExpectGradientsClose(
      [&layer, &x](const std::vector<Variable>&) {
        Variable y = layer.Forward(autograd::Constant(x));
        return autograd::ReduceSum(autograd::Mul(y, y));
      },
      layer.Parameters());
}

TEST(GatLayerTest, AttentionWeightsSumToOnePerDestination) {
  Rng rng(3);
  graph::Digraph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {3, 0}});
  GatLayer layer(BuildAttentionPairs(g), 3, 2, &rng);
  Matrix x = Matrix::Randn(4, 3, &rng);
  Variable y = layer.Forward(autograd::Constant(x));
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  // Output rows are convex combinations of transformed neighbour rows:
  // verify by reconstructing from the segment structure. Every node has at
  // least a self-loop, so no output row can be all-zero unless W collapses.
  EXPECT_GT(y.value().MaxAbs(), 0.0f);
}

TEST(GatLayerTest, IsolatedNodeSeesOnlyItself) {
  Rng rng(4);
  graph::Digraph g = MakeGraph(3, {{0, 1}});  // node 2 isolated
  GatLayer layer(BuildAttentionPairs(g), 2, 2, &rng);
  Matrix x = Matrix::FromRows({{1, 0}, {0, 1}, {5, -3}});
  Variable y = layer.Forward(autograd::Constant(x));
  // Node 2's only incidence is its self-loop with attention 1, so its
  // output equals W x_2 exactly.
  auto params = layer.Parameters();
  Matrix wx = tensor::MatMul(x, params[0].value());
  EXPECT_NEAR(y.value().At(2, 0), wx.At(2, 0), 1e-5f);
  EXPECT_NEAR(y.value().At(2, 1), wx.At(2, 1), 1e-5f);
}

TEST(GatLayerTest, GradientCheck) {
  Rng rng(5);
  graph::Digraph g = MakeGraph(4, {{0, 1}, {1, 2}, {3, 2}});
  GatLayer layer(BuildAttentionPairs(g), 2, 2, &rng);
  Matrix x = Matrix::Randn(4, 2, &rng);
  ahntp::testing::ExpectGradientsClose(
      [&layer, &x](const std::vector<Variable>&) {
        Variable y = layer.Forward(autograd::Constant(x));
        return autograd::ReduceSum(autograd::Mul(y, y));
      },
      layer.Parameters());
}

TEST(GatLayerTest, ParameterCount) {
  Rng rng(6);
  graph::Digraph g = MakeGraph(2, {{0, 1}});
  GatLayer layer(BuildAttentionPairs(g), 5, 3, &rng);
  // W (5x3, no bias) + two attention vectors (3x1).
  EXPECT_EQ(layer.NumParameters(), 5u * 3u + 3u + 3u);
}

// A graph delta re-derives a branch hypergraph; ResetStructure must carry
// each surviving hyperedge's learned weight w_e over (through new_from_old),
// drop removed edges' weights, and start new edges at the init value 1.
TEST(AdaptiveHypergraphConvTest, ResetStructureRemapsEdgeWeights) {
  using hypergraph::Hypergraph;
  Hypergraph old_hg =
      Hypergraph::FromEdges(5, {{0, 1}, {1, 2, 3}, {3, 4}, {0, 4}}).value();
  Rng rng(11);
  core::AdaptiveHypergraphConv conv(old_hg, 3, 4, &rng);
  // The trainable w_e is the last parameter; give every edge its own value.
  Variable old_weights = conv.Parameters().back();
  ASSERT_EQ(old_weights.rows(), 4u);
  for (size_t e = 0; e < 4; ++e) {
    old_weights.mutable_value().At(e, 0) = 2.0f + static_cast<float>(e);
  }

  // Keeps old edge 2 (as new 0) and old edge 0 (as new 2), adds {2, 4},
  // drops old edges 1 and 3.
  Hypergraph new_hg = Hypergraph::FromEdges(5, {{3, 4}, {2, 4}, {0, 1}}).value();
  conv.ResetStructure(core::HypergraphIncidence::Build(new_hg), {2, -1, 0});

  const Matrix& weights = conv.Parameters().back().value();
  ASSERT_EQ(weights.rows(), 3u);
  EXPECT_EQ(weights.At(0, 0), 4.0f);
  EXPECT_EQ(weights.At(1, 0), 1.0f);
  EXPECT_EQ(weights.At(2, 0), 2.0f);
  EXPECT_EQ(conv.pairs().segment, new_hg.Pairs().vertex);
  EXPECT_EQ(conv.pairs().source, new_hg.Pairs().edge);

  // The reset layer computes exactly what a layer built on the new
  // hypergraph with those weights computes (head weights are drawn from the
  // layer dimensions only, so the same seed reproduces them).
  Rng fresh_rng(11);
  core::AdaptiveHypergraphConv fresh(new_hg, 3, 4, &fresh_rng);
  fresh.Parameters().back().mutable_value() = weights;
  Matrix x = Matrix::FromRows(
      {{1, 0, 2}, {0, 1, 1}, {3, 1, 0}, {1, 1, 1}, {0, 2, 1}});
  Matrix got = conv.Forward(autograd::Constant(x)).value();
  Matrix want = fresh.Forward(autograd::Constant(x)).value();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(got.At(i, j), want.At(i, j)) << "row " << i << " col " << j;
    }
  }
}

/// Runs `build` forward and backward through a fixed random readout and
/// returns {output, grad of each of `params`}.
std::vector<Matrix> ForwardAndGrads(const std::function<Variable()>& build,
                                    std::vector<Variable> params,
                                    const Matrix& readout) {
  for (Variable& v : params) v.ZeroGrad();
  Variable out = build();
  autograd::ReduceSum(autograd::MulConst(out, readout)).Backward();
  std::vector<Matrix> result = {out.value()};
  for (Variable& v : params) result.push_back(v.grad());
  return result;
}

// The layer forwards against the gather path they used before
// autograd::PairAttention, rebuilt from each layer's own parameters: output
// and the x / W / w_e gradients bitwise, the beta gradients (summed per row
// first now) within 1e-5 of their scale.
TEST(AdaptiveHypergraphConvTest, MatchesGatherPathBitwise) {
  hypergraph::Hypergraph hg =
      hypergraph::Hypergraph::FromEdges(
          6, {{0, 1, 2}, {3}, {1, 3, 4}, {0, 4}, {2, 4, 1}})
          .value();
  Rng rng(13);
  core::AdaptiveHypergraphConv conv(hg, 5, 9, &rng);
  Variable x = autograd::Parameter(Matrix::Randn(6, 5, &rng));
  Matrix readout = Matrix::Randn(6, 9, &rng);
  std::vector<Variable> p = conv.Parameters();  // W, beta_v, beta_e, w_e
  ASSERT_EQ(p.size(), 4u);
  // beta_v . Wx_i is shared by all of vertex i's pairs, so softmax cancels
  // it except across the LeakyReLU kink; a small beta_v lets the edge term
  // put each vertex's scores on both sides of the kink, so its gradient is
  // a real sum rather than cancellation noise.
  p[1].mutable_value() *= 0.05f;
  std::vector<Variable> params = {x, p[0], p[3], p[1], p[2]};
  auto incidence = core::HypergraphIncidence::Build(hg);
  Matrix alpha;
  std::vector<Matrix> want = ForwardAndGrads(
      [&] {
        Variable h_e = autograd::MulColBroadcast(
            autograd::SpMMConst(incidence->edge_mean, x), p[3]);
        return autograd::Relu(ReferencePairAttention(
            autograd::MatMul(x, p[0]), p[1], autograd::MatMul(h_e, p[0]),
            p[2], incidence->pairs, 0.2f, &alpha));
      },
      params, readout);
  std::vector<Matrix> got =
      ForwardAndGrads([&] { return conv.Forward(x); }, params, readout);
  EXPECT_TRUE(BitEqual(got[0], want[0])) << "forward";
  EXPECT_TRUE(BitEqual(conv.last_attention(), alpha)) << "attention";
  EXPECT_TRUE(BitEqual(got[1], want[1])) << "x grad";
  EXPECT_TRUE(BitEqual(got[2], want[2])) << "W grad";
  EXPECT_TRUE(BitEqual(got[3], want[3])) << "w_e grad";
  EXPECT_LE(MaxRelDiff(got[4], want[4]), 1e-5f) << "beta_v grad";
  EXPECT_LE(MaxRelDiff(got[5], want[5]), 1e-5f) << "beta_e grad";
}

TEST(GatLayerTest, MatchesGatherPathBitwise) {
  graph::Digraph g = MakeGraph(5, {{0, 1}, {1, 2}, {3, 2}, {4, 0}, {2, 4}});
  Rng rng(14);
  auto pairs = BuildAttentionPairs(g);
  GatLayer layer(pairs, 4, 9, &rng);
  Variable x = autograd::Parameter(Matrix::Randn(5, 4, &rng));
  Matrix readout = Matrix::Randn(5, 9, &rng);
  std::vector<Variable> p = layer.Parameters();  // W, a_src, a_dst
  ASSERT_EQ(p.size(), 3u);
  p[2].mutable_value() *= 0.05f;  // see the beta_v note above
  std::vector<Variable> params = {x, p[0], p[1], p[2]};
  Matrix alpha;
  std::vector<Matrix> want = ForwardAndGrads(
      [&] {
        Variable h = autograd::MatMul(x, p[0]);
        return ReferencePairAttention(h, p[2], h, p[1], *pairs, 0.2f, &alpha);
      },
      params, readout);
  std::vector<Matrix> got =
      ForwardAndGrads([&] { return layer.Forward(x); }, params, readout);
  EXPECT_TRUE(BitEqual(got[0], want[0])) << "forward";
  EXPECT_TRUE(BitEqual(got[1], want[1])) << "x grad";
  EXPECT_TRUE(BitEqual(got[2], want[2])) << "W grad";
  EXPECT_LE(MaxRelDiff(got[3], want[3]), 1e-5f) << "a_src grad";
  EXPECT_LE(MaxRelDiff(got[4], want[4]), 1e-5f) << "a_dst grad";
}

}  // namespace
}  // namespace ahntp::models
