#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/simd.h"

namespace ahntp::tensor {

namespace {

/// Same serial threshold as matrix.cc: elementwise loops below ~32k floats
/// are not worth dispatching.
constexpr size_t kElementwiseGrain = size_t{1} << 15;

/// Applies `f` to every element. Per-element transforms are bit-identical
/// under any partitioning, so a fixed-grain ParallelFor keeps the
/// determinism contract while large (all-user) matrices still parallelize.
template <typename F>
void ElementwiseInto(Matrix* out, const Matrix& a, F f) {
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  float* po = out->data();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
  });
}

/// AVX2-dispatched variant: when the active ISA is kAvx2, each chunk runs
/// the vector primitive `vec(po + lo, pa + lo, hi - lo)` instead of the
/// scalar lambda. The exact-tier primitives perform the same per-element
/// operations, so this stays bitwise-identical to the scalar path; chunk
/// boundaries come from the fixed grain either way (thread-count
/// invariant).
template <typename F, typename Vec>
void ElementwiseIntoDispatch(Matrix* out, const Matrix& a, F f, Vec vec) {
  if (!simd::UseAvx2()) {
    ElementwiseInto(out, a, f);
    return;
  }
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  float* po = out->data();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    vec(po + lo, pa + lo, hi - lo);
  });
}

}  // namespace

void ReluInto(Matrix* out, const Matrix& a) {
  ElementwiseIntoDispatch(
      out, a, [](float x) { return x < 0.0f ? 0.0f : x; },
      [](float* o, const float* p, size_t n) { simd::ReluF32(o, p, n); });
}

void LeakyReluInto(Matrix* out, const Matrix& a, float negative_slope) {
  ElementwiseIntoDispatch(
      out, a,
      [negative_slope](float x) {
        return x < 0.0f ? x * negative_slope : x;
      },
      [negative_slope](float* o, const float* p, size_t n) {
        simd::LeakyReluF32(o, p, negative_slope, n);
      });
}

void SigmoidInto(Matrix* out, const Matrix& a) {
  ElementwiseInto(out, a,
                  [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

void TanhInto(Matrix* out, const Matrix& a) {
  ElementwiseInto(out, a, [](float x) { return std::tanh(x); });
}

void ExpInto(Matrix* out, const Matrix& a) {
  ElementwiseInto(out, a, [](float x) { return std::exp(x); });
}

void LogInto(Matrix* out, const Matrix& a, float epsilon) {
  ElementwiseInto(out, a, [epsilon](float x) {
    return std::log(std::max(x, epsilon));
  });
}

void ClampInto(Matrix* out, const Matrix& a, float lo, float hi) {
  AHNTP_CHECK_LE(lo, hi);
  ElementwiseIntoDispatch(
      out, a,
      [lo, hi](float x) { return std::min(std::max(x, lo), hi); },
      [lo, hi](float* o, const float* p, size_t n) {
        simd::ClampF32(o, p, lo, hi, n);
      });
}

void SqrtInto(Matrix* out, const Matrix& a, float epsilon) {
  ElementwiseIntoDispatch(
      out, a,
      [epsilon](float x) { return std::sqrt(std::max(x, epsilon)); },
      [epsilon](float* o, const float* p, size_t n) {
        simd::SqrtMaxF32(o, p, epsilon, n);
      });
}

void AbsInto(Matrix* out, const Matrix& a) {
  ElementwiseIntoDispatch(
      out, a, [](float x) { return std::fabs(x); },
      [](float* o, const float* p, size_t n) { simd::AbsF32(o, p, n); });
}

void PowScalarInto(Matrix* out, const Matrix& a, float exponent,
                   float epsilon) {
  ElementwiseInto(out, a, [exponent, epsilon](float x) {
    return std::pow(std::max(x, epsilon), exponent);
  });
}

void MulColBroadcastInto(Matrix* out, const Matrix& a, const Matrix& col) {
  AHNTP_CHECK_EQ(col.rows(), a.rows());
  AHNTP_CHECK_EQ(col.cols(), 1u);
  out->ResetShape(a.rows(), a.cols());
  const size_t cols = a.cols();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float s = col.At(r, 0);
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      if (avx2) {
        simd::ScaleF32(orow, arow, s, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) orow[c] = arow[c] * s;
      }
    }
  });
}

void MulRowBroadcastInto(Matrix* out, const Matrix& a, const Matrix& row) {
  AHNTP_CHECK_EQ(row.rows(), 1u);
  AHNTP_CHECK_EQ(row.cols(), a.cols());
  out->ResetShape(a.rows(), a.cols());
  const float* brow = row.RowPtr(0);
  const size_t cols = a.cols();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      if (avx2) {
        simd::MulF32(orow, arow, brow, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) orow[c] = arow[c] * brow[c];
      }
    }
  });
}

void RowStandardizeInto(Matrix* out, const Matrix& a, float epsilon,
                        std::vector<float>* inv_std) {
  AHNTP_CHECK(out != &a) << "RowStandardizeInto cannot alias its input";
  const size_t rows = a.rows();
  const size_t cols = a.cols();
  AHNTP_CHECK_GT(cols, 0u);
  out->ResetShape(rows, cols);
  if (inv_std != nullptr) inv_std->resize(rows);
  // Rows are independent, so row-parallelism is bit-identical to the serial
  // loop. Double accumulators keep mean/var stable for wide rows.
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, rows, GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* src = a.RowPtr(r);
      double mean = 0.0;
      double var = 0.0;
      if (avx2) {
        mean = simd::SumF64(src, cols) / static_cast<double>(cols);
        var = simd::SumSqDiffF64(src, mean, cols) /
              static_cast<double>(cols);
      } else {
        for (size_t c = 0; c < cols; ++c) mean += src[c];
        mean /= static_cast<double>(cols);
        for (size_t c = 0; c < cols; ++c) {
          double d = src[c] - mean;
          var += d * d;
        }
        var /= static_cast<double>(cols);
      }
      float inv = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
      if (inv_std != nullptr) (*inv_std)[r] = inv;
      float* dst = out->RowPtr(r);
      if (avx2) {
        simd::SubMulF32(dst, src, static_cast<float>(mean), inv, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) {
          dst[c] = (src[c] - static_cast<float>(mean)) * inv;
        }
      }
    }
  });
}

void RowNormsInto(Matrix* out, const Matrix& a, float epsilon) {
  AHNTP_CHECK(out != &a) << "RowNormsInto cannot alias its input";
  out->ResetShape(a.rows(), 1);
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [&](size_t r0, size_t r1) {
                for (size_t r = r0; r < r1; ++r) {
                  double acc = 0.0;
                  const float* row = a.RowPtr(r);
                  if (avx2) {
                    acc = simd::SumSqF64(row, a.cols());
                  } else {
                    for (size_t c = 0; c < a.cols(); ++c) {
                      acc += static_cast<double>(row[c]) * row[c];
                    }
                  }
                  out->At(r, 0) =
                      static_cast<float>(std::sqrt(acc + epsilon));
                }
              });
}

void DivRowsByNormsInto(Matrix* out, const Matrix& a, const Matrix& norms) {
  AHNTP_CHECK_EQ(norms.rows(), a.rows());
  AHNTP_CHECK_EQ(norms.cols(), 1u);
  out->ResetShape(a.rows(), a.cols());
  const size_t cols = a.cols();
  // Multiplying by the reciprocal (not dividing) matches the tape's
  // RowL2Normalize bit for bit.
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float inv = 1.0f / norms.At(r, 0);
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      if (avx2) {
        simd::ScaleF32(orow, arow, inv, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) orow[c] = arow[c] * inv;
      }
    }
  });
}

void RowwiseDotInto(Matrix* out, const Matrix& a, const Matrix& b) {
  AHNTP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  AHNTP_CHECK(out != &a && out != &b)
      << "RowwiseDotInto cannot alias an input";
  out->ResetShape(a.rows(), 1);
  const size_t cols = a.cols();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* arow = a.RowPtr(r);
      const float* brow = b.RowPtr(r);
      double acc = 0.0;
      if (avx2) {
        acc = simd::DotF64(arow, brow, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) {
          acc += static_cast<double>(arow[c]) * brow[c];
        }
      }
      out->At(r, 0) = static_cast<float>(acc);
    }
  });
}

void RowSoftmaxInto(Matrix* out, const Matrix& a) {
  out->ResetShape(a.rows(), a.cols());
  const size_t cols = a.cols();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      float max_v = arow[0];
      for (size_t c = 1; c < cols; ++c) max_v = std::max(max_v, arow[c]);
      double sum = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        orow[c] = std::exp(arow[c] - max_v);
        sum += orow[c];
      }
      float inv = static_cast<float>(1.0 / std::max(sum, 1e-30));
      for (size_t c = 0; c < cols; ++c) orow[c] *= inv;
    }
  });
}

void CheckSegments(const std::vector<int>& segments, size_t num_rows,
                   size_t num_segments) {
  AHNTP_CHECK_EQ(segments.size(), num_rows);
  for (int s : segments) {
    AHNTP_CHECK(s >= 0 && static_cast<size_t>(s) < num_segments)
        << "segment id " << s << " out of range [0," << num_segments << ")";
  }
}

void SegmentSumInto(Matrix* out, const Matrix& a,
                    const std::vector<int>& segments, size_t num_segments) {
  AHNTP_CHECK(out != &a) << "SegmentSumInto cannot alias its input";
  CheckSegments(segments, a.rows(), num_segments);
  out->ResetShape(num_segments, a.cols());
  out->Fill(0.0f);
  // Serial scatter: rows of a segment accumulate in ascending row order,
  // which is the determinism contract the tape op also follows.
  const bool avx2 = simd::UseAvx2();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    float* dst = out->RowPtr(static_cast<size_t>(segments[r]));
    if (avx2) {
      simd::AddF32(dst, dst, src, a.cols());
    } else {
      for (size_t c = 0; c < a.cols(); ++c) dst[c] += src[c];
    }
  }
}

void SegmentMeanInto(Matrix* out, const Matrix& a,
                     const std::vector<int>& segments, size_t num_segments,
                     std::vector<float>* counts) {
  AHNTP_CHECK(out != &a) << "SegmentMeanInto cannot alias its input";
  CheckSegments(segments, a.rows(), num_segments);
  std::vector<float> local_counts;
  std::vector<float>& cnt = counts != nullptr ? *counts : local_counts;
  cnt.assign(num_segments, 0.0f);
  for (int s : segments) cnt[static_cast<size_t>(s)] += 1.0f;
  SegmentSumInto(out, a, segments, num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    if (cnt[s] > 0.0f) {
      float* row = out->RowPtr(s);
      for (size_t c = 0; c < a.cols(); ++c) row[c] /= cnt[s];
    }
  }
}

void SegmentSoftmaxInto(Matrix* out, const Matrix& a,
                        const std::vector<int>& segments,
                        size_t num_segments) {
  AHNTP_CHECK_EQ(a.cols(), 1u);
  AHNTP_CHECK(out != &a) << "SegmentSoftmaxInto cannot alias its input";
  CheckSegments(segments, a.rows(), num_segments);
  const size_t n = a.rows();
  out->ResetShape(n, 1);
  // Shifted exp for numerical stability; per-segment sums accumulate in
  // ascending row order (serial, deterministic).
  std::vector<float> max_per_seg(num_segments,
                                 -std::numeric_limits<float>::infinity());
  for (size_t r = 0; r < n; ++r) {
    size_t s = static_cast<size_t>(segments[r]);
    max_per_seg[s] = std::max(max_per_seg[s], a.At(r, 0));
  }
  std::vector<double> sum_per_seg(num_segments, 0.0);
  for (size_t r = 0; r < n; ++r) {
    size_t s = static_cast<size_t>(segments[r]);
    float e = std::exp(a.At(r, 0) - max_per_seg[s]);
    out->At(r, 0) = e;
    sum_per_seg[s] += e;
  }
  for (size_t r = 0; r < n; ++r) {
    size_t s = static_cast<size_t>(segments[r]);
    out->At(r, 0) =
        static_cast<float>(out->At(r, 0) / std::max(sum_per_seg[s], 1e-30));
  }
}

namespace {

/// Counting sort of the pair ids by `key`: ptr gets num_keys + 1 offsets,
/// order the ids, ascending within each key (the scan is in id order).
void GroupPairs(const std::vector<int>& key, size_t num_keys,
                std::vector<int>* ptr, std::vector<int>* order) {
  ptr->assign(num_keys + 1, 0);
  for (int k : key) ++(*ptr)[static_cast<size_t>(k) + 1];
  for (size_t k = 0; k < num_keys; ++k) (*ptr)[k + 1] += (*ptr)[k];
  order->resize(key.size());
  std::vector<int> next(ptr->begin(), ptr->end() - 1);
  for (size_t p = 0; p < key.size(); ++p) {
    (*order)[static_cast<size_t>(next[static_cast<size_t>(key[p])]++)] =
        static_cast<int>(p);
  }
}

}  // namespace

PairIndex PairIndex::Build(std::vector<int> segment, std::vector<int> source,
                           size_t num_segments, size_t num_sources) {
  CheckSegments(segment, segment.size(), num_segments);
  CheckSegments(source, segment.size(), num_sources);
  PairIndex pairs;
  pairs.segment = std::move(segment);
  pairs.source = std::move(source);
  pairs.num_segments = num_segments;
  pairs.num_sources = num_sources;
  GroupPairs(pairs.segment, num_segments, &pairs.segment_ptr,
             &pairs.by_segment);
  GroupPairs(pairs.source, num_sources, &pairs.source_ptr, &pairs.by_source);
  return pairs;
}

void PairScoreInto(Matrix* out, const Matrix& s_segment,
                   const Matrix& s_source, const PairIndex& pairs) {
  AHNTP_CHECK(s_segment.rows() == pairs.num_segments &&
              s_segment.cols() == 1u);
  AHNTP_CHECK(s_source.rows() == pairs.num_sources && s_source.cols() == 1u);
  AHNTP_CHECK(out != &s_segment && out != &s_source)
      << "PairScoreInto cannot alias an input";
  out->ResetShape(pairs.size(), 1);
  const float* a = s_segment.data();
  const float* b = s_source.data();
  const int* ia = pairs.segment.data();
  const int* ib = pairs.source.data();
  float* po = out->data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, pairs.size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::GatherAddF32(po + lo, a, ia + lo, b, ib + lo, hi - lo);
    } else {
      for (size_t p = lo; p < hi; ++p) po[p] = a[ia[p]] + b[ib[p]];
    }
  });
}

void PairAggregateInto(Matrix* out, const Matrix& rows, const Matrix& weight,
                       const PairIndex& pairs) {
  AHNTP_CHECK_EQ(rows.rows(), pairs.num_sources);
  AHNTP_CHECK(weight.rows() == pairs.size() && weight.cols() == 1u);
  AHNTP_CHECK(out != &rows && out != &weight)
      << "PairAggregateInto cannot alias an input";
  const size_t cols = rows.cols();
  out->ResetShape(pairs.num_segments, cols);
  const size_t avg_pairs =
      pairs.size() / std::max<size_t>(pairs.num_segments, 1) + 1;
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, pairs.num_segments, GrainForCost(avg_pairs * cols),
              [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) {
      float* dst = out->RowPtr(s);
      std::fill(dst, dst + cols, 0.0f);
      for (int k = pairs.segment_ptr[s]; k < pairs.segment_ptr[s + 1]; ++k) {
        const size_t p = static_cast<size_t>(pairs.by_segment[k]);
        const float* src =
            rows.RowPtr(static_cast<size_t>(pairs.source[p]));
        const float w = weight.At(p, 0);
        if (avx2) {
          simd::AddScaledF32(dst, src, w, cols);
        } else {
          // This TU is built without FMA, so the multiply and the add
          // round separately, as the two-kernel path does.
          for (size_t c = 0; c < cols; ++c) dst[c] += src[c] * w;
        }
      }
    }
  });
}

void PairAttentionInto(const Matrix& segment_rows, const Matrix& beta_segment,
                       const Matrix& source_rows, const Matrix& beta_source,
                       const PairIndex& pairs, float negative_slope,
                       const PairAttentionBuffers& buffers) {
  AHNTP_CHECK_EQ(segment_rows.rows(), pairs.num_segments);
  AHNTP_CHECK_EQ(source_rows.rows(), pairs.num_sources);
  MatMulInto(buffers.s_segment, segment_rows, beta_segment);
  MatMulInto(buffers.s_source, source_rows, beta_source);
  PairScoreInto(buffers.pre, *buffers.s_segment, *buffers.s_source, pairs);
  LeakyReluInto(buffers.act, *buffers.pre, negative_slope);
  SegmentSoftmaxInto(buffers.alpha, *buffers.act, pairs.segment,
                     pairs.num_segments);
  PairAggregateInto(buffers.out, source_rows, *buffers.alpha, pairs);
}

}  // namespace ahntp::tensor
