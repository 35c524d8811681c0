#ifndef AHNTP_TENSOR_KERNELS_H_
#define AHNTP_TENSOR_KERNELS_H_

#include <vector>

#include "tensor/matrix.h"

namespace ahntp::tensor {

// ---------------------------------------------------------------------------
// Shared forward-math kernels.
//
// These free functions are the single implementation of every op's forward
// pass: the tape-building autograd ops (autograd/ops.cc) and the tape-free
// inference entry points (nn/infer.h, models/inference_plan.h) both call
// them, so the two forward paths cannot numerically diverge — parity is
// structural, not tested-into-existence (the parity gate in
// scripts/check_inference.sh then enforces it end to end).
//
// Every kernel reshapes `out` via Matrix::ResetShape (buffer reuse — zero
// heap allocations once warmed) and fully overwrites it. `out` may alias
// `a` for the elementwise kernels; the row/segment kernels note their own
// aliasing rules.
// ---------------------------------------------------------------------------

/// out = max(a, 0).
void ReluInto(Matrix* out, const Matrix& a);

/// out = a, negative entries scaled by `negative_slope`.
void LeakyReluInto(Matrix* out, const Matrix& a, float negative_slope);

/// out = 1 / (1 + exp(-a)).
void SigmoidInto(Matrix* out, const Matrix& a);

/// out = tanh(a).
void TanhInto(Matrix* out, const Matrix& a);

/// out = exp(a).
void ExpInto(Matrix* out, const Matrix& a);

/// out = log(max(a, epsilon)).
void LogInto(Matrix* out, const Matrix& a, float epsilon);

/// out = clamp(a, lo, hi).
void ClampInto(Matrix* out, const Matrix& a, float lo, float hi);

/// out = sqrt(max(a, epsilon)).
void SqrtInto(Matrix* out, const Matrix& a, float epsilon);

/// out = |a|.
void AbsInto(Matrix* out, const Matrix& a);

/// out = max(a, epsilon)^exponent.
void PowScalarInto(Matrix* out, const Matrix& a, float exponent,
                   float epsilon);

/// Scales row r of `a` by col(r, 0); col is (rows x 1). `out` may alias
/// `a`.
void MulColBroadcastInto(Matrix* out, const Matrix& a, const Matrix& col);

/// Multiplies every row of `a` elementwise by `row` (1 x cols).
void MulRowBroadcastInto(Matrix* out, const Matrix& a, const Matrix& row);

/// Normalizes each row to zero mean / unit variance. When `inv_std` is
/// non-null it receives the per-row 1/std factors (the tape's backward
/// cache). `out` must not alias `a`.
void RowStandardizeInto(Matrix* out, const Matrix& a, float epsilon,
                        std::vector<float>* inv_std = nullptr);

/// Per-row L2 norms (sqrt(sum sq + epsilon)) as a rows x 1 matrix.
void RowNormsInto(Matrix* out, const Matrix& a, float epsilon);

/// Divides each row of `a` by norms(r, 0); `norms` is RowNormsInto output.
void DivRowsByNormsInto(Matrix* out, const Matrix& a, const Matrix& norms);

/// out(r, 0) = dot(a.row(r), b.row(r)); shapes must match.
void RowwiseDotInto(Matrix* out, const Matrix& a, const Matrix& b);

/// Row-wise softmax over columns.
void RowSoftmaxInto(Matrix* out, const Matrix& a);

/// out.row(s) = sum of rows r with segments[r] == s. Segment ids must lie
/// in [0, num_segments). `out` must not alias `a`.
void SegmentSumInto(Matrix* out, const Matrix& a,
                    const std::vector<int>& segments, size_t num_segments);

/// Like SegmentSumInto but divides by segment size (empty segments stay 0).
/// When `counts` is non-null it receives the per-segment sizes.
void SegmentMeanInto(Matrix* out, const Matrix& a,
                     const std::vector<int>& segments, size_t num_segments,
                     std::vector<float>* counts = nullptr);

/// Softmax of a column vector within each segment; `a` must be (n x 1).
/// `out` must not alias `a`.
void SegmentSoftmaxInto(Matrix* out, const Matrix& a,
                        const std::vector<int>& segments,
                        size_t num_segments);

/// CHECK-fails unless all segment ids lie in [0, num_segments) and
/// segments.size() == num_rows. Shared precondition of the segment ops.
void CheckSegments(const std::vector<int>& segments, size_t num_rows,
                   size_t num_segments);

// ---------------------------------------------------------------------------
// Pair attention kernels (hypergraph and graph attention, DESIGN.md §4).
//
// An attention layer scores and aggregates over a list of pairs p, each
// joining a segment (the row being aggregated into: a vertex, a GAT
// destination) and a source (the row the message comes from: a hyperedge,
// a GAT neighbour). These kernels read the per-row tables directly, so no
// pairs x d matrix of gathered rows is ever built.
// ---------------------------------------------------------------------------

/// A pair list plus both groupings of its pair ids (CSR style): the pairs
/// of segment s are by_segment[segment_ptr[s] .. segment_ptr[s+1]) and the
/// pairs of source e are by_source[source_ptr[e] .. source_ptr[e+1]). Ids
/// ascend within every group, which is what makes the grouped,
/// row-parallel kernels bitwise equal to a serial ascending-p scatter.
struct PairIndex {
  std::vector<int> segment;  // aggregating row of pair p
  std::vector<int> source;   // message row of pair p
  size_t num_segments = 0;
  size_t num_sources = 0;
  std::vector<int> segment_ptr;  // num_segments + 1 offsets into by_segment
  std::vector<int> by_segment;
  std::vector<int> source_ptr;   // num_sources + 1 offsets into by_source
  std::vector<int> by_source;

  size_t size() const { return segment.size(); }

  /// CHECK-fails on mismatched lengths or out-of-range ids.
  static PairIndex Build(std::vector<int> segment, std::vector<int> source,
                         size_t num_segments, size_t num_sources);
};

/// Score kernel: out(p, 0) = s_segment(segment[p], 0) + s_source(source[p],
/// 0) for per-row scores s = rows * beta (n x 1 and m x 1). Each row's dot
/// product is the same MatMul code over the same row whether or not the row
/// was first copied out once per pair, so this is bitwise equal to
/// MatMul(GatherRows(rows_seg, segment), beta_seg) + MatMul(GatherRows(
/// rows_src, source), beta_src).
void PairScoreInto(Matrix* out, const Matrix& s_segment,
                   const Matrix& s_source, const PairIndex& pairs);

/// Aggregation kernel: out.row(s) = sum over the pairs p of segment s, in
/// ascending p, of rows.row(source[p]) * weight(p, 0). Each term is a
/// multiply then an add (never fused), so the result is bitwise equal to
/// MulColBroadcastInto over the gathered rows followed by the serial
/// SegmentSumInto, at any thread count (segments are independent rows).
/// A segment with no pairs gets a zero row. `out` must not alias `rows`.
void PairAggregateInto(Matrix* out, const Matrix& rows, const Matrix& weight,
                       const PairIndex& pairs);

/// The buffers PairAttentionInto writes. All must be distinct, except that
/// `act` may be `pre`: the scores are then activated in place.
struct PairAttentionBuffers {
  Matrix* s_segment;  // num_segments x 1, segment_rows * beta_segment
  Matrix* s_source;   // num_sources x 1, source_rows * beta_source
  Matrix* pre;        // pairs x 1, the score before the LeakyReLU
  Matrix* act;        // pairs x 1, after it
  Matrix* alpha;      // pairs x 1, the softmax of act per segment
  Matrix* out;        // num_segments x source_rows.cols(), the aggregate
};

/// The forward of pair attention, shared by autograd::PairAttention and
/// nn::InferPairAttention so both run one sequence: the per-row score
/// MatMuls, PairScoreInto, LeakyReLU, SegmentSoftmaxInto over the segments,
/// PairAggregateInto of source_rows weighted by alpha.
void PairAttentionInto(const Matrix& segment_rows, const Matrix& beta_segment,
                       const Matrix& source_rows, const Matrix& beta_source,
                       const PairIndex& pairs, float negative_slope,
                       const PairAttentionBuffers& buffers);

}  // namespace ahntp::tensor

#endif  // AHNTP_TENSOR_KERNELS_H_
