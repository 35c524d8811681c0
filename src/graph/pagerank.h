#ifndef AHNTP_GRAPH_PAGERANK_H_
#define AHNTP_GRAPH_PAGERANK_H_

#include <vector>

#include "graph/motifs.h"
#include "tensor/csr.h"

namespace ahntp::graph {

/// Options shared by the PageRank variants.
struct PageRankOptions {
  /// Damping factor d of Eqs. (2) and (5).
  double damping = 0.85;
  /// Power-iteration cap.
  int max_iterations = 100;
  /// L1 convergence threshold between successive iterates. The SpMV runs
  /// in float, so an iterate can also settle into an exact two-step cycle
  /// just above this threshold; the iteration stops there too (see
  /// PowerIterate in pagerank.cc).
  double tolerance = 1e-9;
};

/// Basic PageRank (Eqs. 1-2): s = d * P s + (1-d)/n * e, with P the
/// column-stochastic transition matrix of the (weighted) adjacency.
/// Dangling nodes (zero out-degree) redistribute uniformly. The result
/// sums to 1.
std::vector<double> PageRank(const tensor::CsrMatrix& adjacency,
                             const PageRankOptions& options = {});

/// Iteration telemetry from a PageRank run (the dynamic path uses it for
/// its iterations-saved metric).
struct PageRankStats {
  int iterations = 0;
};

/// PageRank with an optional warm start: when `warm_start` is non-null and
/// sized to the graph, the power iteration begins from it instead of the
/// uniform vector. After a small graph delta the previous score vector is
/// near the new fixed point, so convergence takes a fraction of the cold
/// iteration count. Same fixed point, same per-iteration arithmetic — only
/// the starting point (and so the iterate path) differs, so warm and cold
/// results agree to the float SpMV's noise floor (~3e-9), not bitwise.
std::vector<double> PageRankWarm(const tensor::CsrMatrix& adjacency,
                                 const PageRankOptions& options,
                                 const std::vector<double>* warm_start,
                                 PageRankStats* stats = nullptr);

/// Configuration for Motif-based PageRank (MPR, Eqs. 3-5).
struct MotifPageRankOptions {
  /// Balance alpha of Eq. (4) between the pairwise adjacency R_U (alpha)
  /// and the motif-induced adjacency A^{M_k} (1 - alpha). The paper's best
  /// setting is 0.8.
  double alpha = 0.8;
  /// Which triangular motif drives the high-order term. The paper follows
  /// MPR (Zhao et al.) in focusing on triangles; M6 is their running example.
  Motif motif = Motif::kM6;
  PageRankOptions pagerank;
};

/// Result of MPR: per-node scores plus the blended weight matrix W_c,
/// exposed because the hypergroup builder reuses it.
struct MotifPageRankResult {
  std::vector<double> scores;
  tensor::CsrMatrix combined_weights;  // W_c of Eq. (4)
  tensor::CsrMatrix motif_adjacency;   // A^{M_k} of Eq. (3)
};

/// Motif-based PageRank: computes A^{M_k}, blends W_c = alpha * R_U +
/// (1-alpha) * A^{M_k} (Eq. 4), and runs the PageRank iteration of Eq. (5)
/// on the column-normalized W_c.
MotifPageRankResult MotifPageRank(const tensor::CsrMatrix& adjacency,
                                  const MotifPageRankOptions& options = {});

/// MotifPageRank with the motif adjacency supplied by the caller (e.g. the
/// incrementally maintained graph::MotifCounts) instead of recomputed from
/// scratch, plus an optional warm start for the PageRank iteration. The
/// W_c blend and iteration are byte-for-byte the MotifPageRank() code, so
/// feeding the exact MotifAdjacency() matrix with a null warm start
/// reproduces MotifPageRank() bitwise.
MotifPageRankResult MotifPageRankFrom(
    const tensor::CsrMatrix& adjacency, tensor::CsrMatrix motif_adjacency,
    const MotifPageRankOptions& options = {},
    const std::vector<double>* warm_start = nullptr,
    PageRankStats* stats = nullptr);

}  // namespace ahntp::graph

#endif  // AHNTP_GRAPH_PAGERANK_H_
