#include "graph/pagerank.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace ahntp::graph {

using tensor::CsrMatrix;

namespace {

/// One PageRank power iteration loop over a column-stochastic operator
/// expressed as the row-normalized transpose (so we can use row-major SpMV):
/// s_new = d * (P s) + (1-d)/n, with dangling mass redistributed uniformly.
std::vector<double> PowerIterate(const CsrMatrix& row_normalized_transpose,
                                 const std::vector<bool>& dangling,
                                 const PageRankOptions& options,
                                 const std::vector<double>* init = nullptr,
                                 int* iterations_out = nullptr) {
  const size_t n = row_normalized_transpose.rows();
  AHNTP_CHECK_GT(n, 0u);
  const double d = options.damping;
  AHNTP_CHECK(d > 0.0 && d < 1.0);
  std::vector<double> s;
  if (init != nullptr && init->size() == n) {
    s = *init;
  } else {
    s.assign(n, 1.0 / static_cast<double>(n));
  }
  std::vector<float> s_f(n);
  int iterations_used = 0;
  // Fixed reduction grain: chunk boundaries (and therefore double-sum
  // association order) stay identical at every thread count.
  constexpr size_t kGrain = size_t{1} << 14;
  const auto sum_doubles = [](double x, double y) { return x + y; };
  // The SpMV runs in float, so near the fixed point the iterate can settle
  // into an exact two-step cycle whose L1 step (~1e-9) never meets the
  // tolerance. The map is deterministic: once s repeats the value it had
  // two iterations back, no later step can converge, so stop there rather
  // than at the cap. Runs that converge never repeat and are unaffected.
  std::vector<double> one_back;
  std::vector<double> two_back;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    AHNTP_METRIC_COUNT("graph.pagerank.iterations", 1);
    ++iterations_used;
    ParallelFor(0, n, kGrain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) s_f[i] = static_cast<float>(s[i]);
    });
    // Dangling columns contribute their mass uniformly.
    double dangling_mass = ParallelReduce<double>(
        0, n, kGrain, 0.0,
        [&](size_t lo, size_t hi) {
          double partial = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            if (dangling[i]) partial += s[i];
          }
          return partial;
        },
        sum_doubles);
    std::vector<float> propagated = tensor::SpMV(row_normalized_transpose, s_f);
    double base = (1.0 - d) / static_cast<double>(n) +
                  d * dangling_mass / static_cast<double>(n);
    double delta = ParallelReduce<double>(
        0, n, kGrain, 0.0,
        [&](size_t lo, size_t hi) {
          double partial = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            double next = d * static_cast<double>(propagated[i]) + base;
            partial += std::fabs(next - s[i]);
            s[i] = next;
          }
          return partial;
        },
        sum_doubles);
    if (delta < options.tolerance || s == two_back) break;
    two_back.swap(one_back);
    one_back = s;
  }
  // Normalize away accumulated float round-off.
  double total = 0.0;
  for (double v : s) total += v;
  if (total > 0.0) {
    for (double& v : s) v /= total;
  }
  if (iterations_out != nullptr) *iterations_out = iterations_used;
  return s;
}

/// Builds the row-normalized transpose of `adjacency` (each source node's
/// outgoing weight normalized to 1, laid out by destination for SpMV) and
/// the dangling-node indicator.
struct Transition {
  CsrMatrix operator_matrix;
  std::vector<bool> dangling;
};

Transition BuildTransition(const CsrMatrix& adjacency) {
  AHNTP_CHECK_EQ(adjacency.rows(), adjacency.cols());
  CsrMatrix row_normalized = adjacency.RowNormalized();
  std::vector<float> row_sums = adjacency.RowSums();
  std::vector<bool> dangling(adjacency.rows());
  for (size_t i = 0; i < adjacency.rows(); ++i) {
    dangling[i] = row_sums[i] == 0.0f;
  }
  return {row_normalized.Transposed(), std::move(dangling)};
}

}  // namespace

std::vector<double> PageRank(const CsrMatrix& adjacency,
                             const PageRankOptions& options) {
  trace::TraceSpan span("graph.pagerank");
  AHNTP_METRIC_COUNT("graph.pagerank.calls", 1);
  Transition t = BuildTransition(adjacency);
  return PowerIterate(t.operator_matrix, t.dangling, options);
}

std::vector<double> PageRankWarm(const CsrMatrix& adjacency,
                                 const PageRankOptions& options,
                                 const std::vector<double>* warm_start,
                                 PageRankStats* stats) {
  trace::TraceSpan span("graph.pagerank");
  AHNTP_METRIC_COUNT("graph.pagerank.calls", 1);
  Transition t = BuildTransition(adjacency);
  int iterations = 0;
  std::vector<double> s = PowerIterate(t.operator_matrix, t.dangling, options,
                                       warm_start, &iterations);
  if (stats != nullptr) stats->iterations = iterations;
  return s;
}

MotifPageRankResult MotifPageRank(const CsrMatrix& adjacency,
                                  const MotifPageRankOptions& options) {
  return MotifPageRankFrom(adjacency, MotifAdjacency(adjacency, options.motif),
                           options);
}

MotifPageRankResult MotifPageRankFrom(const CsrMatrix& adjacency,
                                      CsrMatrix motif_adjacency,
                                      const MotifPageRankOptions& options,
                                      const std::vector<double>* warm_start,
                                      PageRankStats* stats) {
  trace::TraceSpan span("graph.motif_pagerank");
  AHNTP_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0);
  MotifPageRankResult result;
  result.motif_adjacency = std::move(motif_adjacency);
  // W_c = alpha * R_U + (1 - alpha) * A^{M_k}   (Eq. 4)
  CsrMatrix weighted_pairwise =
      adjacency.Binarized().Scaled(static_cast<float>(options.alpha));
  CsrMatrix weighted_motif =
      result.motif_adjacency.Scaled(static_cast<float>(1.0 - options.alpha));
  result.combined_weights =
      tensor::SparseAdd(weighted_pairwise, weighted_motif).Pruned();
  result.scores =
      PageRankWarm(result.combined_weights, options.pagerank, warm_start, stats);
  return result;
}

}  // namespace ahntp::graph
