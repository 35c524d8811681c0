#include "models/graph_ops.h"

#include <cmath>

namespace ahntp::models {

using tensor::CsrMatrix;
using tensor::Triplet;

CsrMatrix SymmetricNormalizedAdjacency(const graph::Digraph& graph) {
  const size_t n = graph.num_nodes();
  std::vector<Triplet> triplets;
  for (const graph::Edge& e : graph.edges()) {
    triplets.push_back({e.src, e.dst, 1.0f});
    triplets.push_back({e.dst, e.src, 1.0f});
  }
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({static_cast<int>(i), static_cast<int>(i), 1.0f});
  }
  CsrMatrix a = CsrMatrix::FromTriplets(n, n, std::move(triplets)).Binarized();
  std::vector<float> degree = a.RowSums();
  // Scale rows and columns by D^{-1/2}.
  std::vector<Triplet> scaled;
  scaled.reserve(a.nnz());
  for (size_t r = 0; r < n; ++r) {
    float dr = degree[r] > 0.0f ? 1.0f / std::sqrt(degree[r]) : 0.0f;
    for (int i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      size_t c = static_cast<size_t>(a.col_idx()[i]);
      float dc = degree[c] > 0.0f ? 1.0f / std::sqrt(degree[c]) : 0.0f;
      scaled.push_back({static_cast<int>(r), static_cast<int>(c),
                        a.values()[i] * dr * dc});
    }
  }
  return CsrMatrix::FromTriplets(n, n, std::move(scaled));
}

CsrMatrix DirectedNormalizedAdjacency(const graph::Digraph& graph,
                                      bool incoming) {
  const size_t n = graph.num_nodes();
  std::vector<Triplet> triplets;
  for (const graph::Edge& e : graph.edges()) {
    if (incoming) {
      triplets.push_back({e.dst, e.src, 1.0f});
    } else {
      triplets.push_back({e.src, e.dst, 1.0f});
    }
  }
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({static_cast<int>(i), static_cast<int>(i), 1.0f});
  }
  return CsrMatrix::FromTriplets(n, n, std::move(triplets))
      .Binarized()
      .RowNormalized();
}

std::shared_ptr<const tensor::PairIndex> BuildAttentionPairs(
    const graph::Digraph& graph) {
  const size_t n = graph.num_nodes();
  std::vector<int> dst;
  std::vector<int> src;
  for (size_t u = 0; u < n; ++u) {
    dst.push_back(static_cast<int>(u));  // self-loop
    src.push_back(static_cast<int>(u));
    for (int v : graph.UndirectedNeighbors(static_cast<int>(u))) {
      dst.push_back(static_cast<int>(u));
      src.push_back(v);
    }
  }
  return std::make_shared<const tensor::PairIndex>(
      tensor::PairIndex::Build(std::move(dst), std::move(src), n, n));
}

}  // namespace ahntp::models
