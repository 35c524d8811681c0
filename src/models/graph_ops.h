#ifndef AHNTP_MODELS_GRAPH_OPS_H_
#define AHNTP_MODELS_GRAPH_OPS_H_

#include <memory>
#include <vector>

#include "graph/digraph.h"
#include "tensor/csr.h"
#include "tensor/kernels.h"

namespace ahntp::models {

/// GCN propagation operator: A_hat = D^{-1/2} (A_sym + I) D^{-1/2}, where
/// A_sym is the symmetrized binary adjacency.
tensor::CsrMatrix SymmetricNormalizedAdjacency(const graph::Digraph& graph);

/// Row-normalized directed operator D_out^{-1} A (trust propagation) or
/// D_in^{-1} A^T when `incoming`, both with self-loops.
tensor::CsrMatrix DirectedNormalizedAdjacency(const graph::Digraph& graph,
                                              bool incoming);

/// Pair list for graph attention layers: the undirected neighbourhood plus
/// a self-loop of every node, as (segment = destination, source =
/// neighbour) pairs in destination order.
std::shared_ptr<const tensor::PairIndex> BuildAttentionPairs(
    const graph::Digraph& graph);

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_GRAPH_OPS_H_
