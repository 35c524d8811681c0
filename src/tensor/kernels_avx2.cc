// AVX2+FMA implementations of the tensor kernel primitives (tensor/simd.h).
//
// This is the only translation unit compiled with -mavx2 -mfma (see the
// AHNTP_KERNEL_AVX2 probe in the top-level CMakeLists.txt). When the probe
// fails — non-x86 target or a compiler without the flags — the same file
// compiles the CHECK-failing stubs at the bottom; they are unreachable
// because common/cpu.cc then refuses to resolve KernelIsa::kAvx2.

#include "tensor/simd.h"

#include "common/check.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ahntp::tensor::simd {

namespace {

/// Shared FMA axpy body: 8-wide fused lanes plus a scalar tail. Every AVX2
/// caller (SpMM gather band, SpMMTransposed scatter, MatMul NN band) inlines
/// this exact sequence, which is what keeps the gather and scatter sparse
/// paths bitwise-identical to each other.
inline void AxpyBody(float* o, const float* x, float a, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vo = _mm256_loadu_ps(o + i);
    __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(o + i, _mm256_fmadd_ps(va, vx, vo));
  }
  for (; i < n; ++i) o[i] = __builtin_fmaf(a, x[i], o[i]);
}

/// Fixed-order horizontal sum of a 4-lane double accumulator:
/// ((l0 + l1) + l2) + l3. The order is part of the determinism contract.
inline double HSum(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

}  // namespace

void AddF32(float* o, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubF32(float* o, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulF32(float* o, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleF32(float* o, const float* a, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}

void AddScalarF32(float* o, const float* a, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] + s;
}

void ReluF32(float* o, const float* a, size_t n) {
  // blend, not max_ps: the scalar kernel keeps -0.0f and NaN unchanged
  // (x < 0 ? 0 : x), and this must stay bitwise-identical to it.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    __m256 neg = _mm256_cmp_ps(x, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(o + i, _mm256_blendv_ps(x, zero, neg));
  }
  for (; i < n; ++i) o[i] = a[i] < 0.0f ? 0.0f : a[i];
}

void LeakyReluF32(float* o, const float* a, float slope, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    __m256 neg = _mm256_cmp_ps(x, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(o + i,
                     _mm256_blendv_ps(x, _mm256_mul_ps(x, vs), neg));
  }
  for (; i < n; ++i) o[i] = a[i] < 0.0f ? a[i] * slope : a[i];
}

void ClampF32(float* o, const float* a, float lo, float hi, size_t n) {
  // Operand order matters: VMAXPS/VMINPS return the *second* operand when
  // either input is NaN, so putting the data second propagates NaN exactly
  // like std::min(std::max(x, lo), hi) does.
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(o + i,
                     _mm256_min_ps(vhi, _mm256_max_ps(vlo, x)));
  }
  for (; i < n; ++i) {
    float x = a[i] < lo ? lo : a[i];
    o[i] = x > hi ? hi : x;
  }
}

void AbsF32(float* o, const float* a, size_t n) {
  const __m256 mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_and_ps(_mm256_loadu_ps(a + i), mask));
  }
  for (; i < n; ++i) o[i] = __builtin_fabsf(a[i]);
}

void SqrtMaxF32(float* o, const float* a, float eps, size_t n) {
  const __m256 veps = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(o + i, _mm256_sqrt_ps(_mm256_max_ps(veps, x)));
  }
  for (; i < n; ++i) {
    float x = a[i] < eps ? eps : a[i];
    o[i] = __builtin_sqrtf(x);
  }
}

void SubMulF32(float* o, const float* a, float sub, float mul, size_t n) {
  const __m256 vsub = _mm256_set1_ps(sub);
  const __m256 vmul = _mm256_set1_ps(mul);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(o + i,
                     _mm256_mul_ps(_mm256_sub_ps(x, vsub), vmul));
  }
  for (; i < n; ++i) o[i] = (a[i] - sub) * mul;
}

void GatherAddF32(float* o, const float* a, const int* ia, const float* b,
                  const int* ib, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ia + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ib + i));
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_i32gather_ps(a, va, 4),
                                          _mm256_i32gather_ps(b, vb, 4)));
  }
  for (; i < n; ++i) o[i] = a[ia[i]] + b[ib[i]];
}

void AddScaledF32(float* o, const float* x, float s, size_t n) {
  // This TU is built with -mfma and GCC contracts a * b + c across
  // statements; the empty asm makes each product an opaque value, so the
  // add cannot be fused into it.
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x + i), vs);
    __asm__("" : "+x"(prod));
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(o + i), prod));
  }
  for (; i < n; ++i) {
    float prod = x[i] * s;
    __asm__("" : "+x"(prod));
    o[i] += prod;
  }
}

void AxpyF32(float* o, const float* x, float a, size_t n) {
  AxpyBody(o, x, a, n);
}

double DotF64(const float* a, const float* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    acc = _mm256_fmadd_pd(da, db, acc);
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

double SumF64(const float* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_loadu_ps(a + i)));
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += static_cast<double>(a[i]);
  return sum;
}

double SumSqF64(const float* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    acc = _mm256_fmadd_pd(da, da, acc);
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * a[i];
  return sum;
}

double SumSqDiffF64(const float* a, double mean, size_t n) {
  const __m256d vmean = _mm256_set1_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)), vmean);
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double sum = HSum(acc);
  for (; i < n; ++i) {
    double d = static_cast<double>(a[i]) - mean;
    sum += d * d;
  }
  return sum;
}

void MatMulBandNN(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t n, size_t kblock) {
  // Same k-blocked i-k-j structure (and zero-skip) as the scalar band; only
  // the innermost j loop is fused.
  for (size_t p0 = 0; p0 < k; p0 += kblock) {
    const size_t p1 = p0 + kblock < k ? p0 + kblock : k;
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        AxpyBody(orow, b + p * n, av, n);
      }
    }
  }
}

void MatMulBandNT(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t nb) {
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * nb;
    for (size_t j = 0; j < nb; ++j) {
      orow[j] = static_cast<float>(DotF64(arow, b + j * k, k));
    }
  }
}

void SpMMRowBand(const int* row_ptr, const int* col_idx, const float* values,
                 const float* b, size_t bcols, float* out, size_t r0,
                 size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    float* orow = out + r * bcols;
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      AxpyBody(orow, b + static_cast<size_t>(col_idx[i]) * bcols, values[i],
               bcols);
    }
  }
}

void SpMVRows(const int* row_ptr, const int* col_idx, const float* values,
              const float* x, float* y, size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    __m256d acc = _mm256_setzero_pd();
    int i = row_ptr[r];
    const int end = row_ptr[r + 1];
    for (; i + 4 <= end; i += 4) {
      __m128 vals = _mm_loadu_ps(values + i);
      __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col_idx + i));
      __m128 xs = _mm_i32gather_ps(x, idx, 4);
      acc = _mm256_fmadd_pd(_mm256_cvtps_pd(vals), _mm256_cvtps_pd(xs), acc);
    }
    double sum = HSum(acc);
    for (; i < end; ++i) {
      sum += static_cast<double>(values[i]) * x[static_cast<size_t>(col_idx[i])];
    }
    y[r] = static_cast<float>(sum);
  }
}

}  // namespace ahntp::tensor::simd

#else  // !(__AVX2__ && __FMA__): CHECK-failing stubs, never dispatched to.

namespace ahntp::tensor::simd {

namespace {
[[noreturn]] void NoAvx2() {
  AHNTP_CHECK(false) << "AVX2 kernels were not compiled into this build";
  __builtin_unreachable();
}
}  // namespace

void AddF32(float*, const float*, const float*, size_t) { NoAvx2(); }
void SubF32(float*, const float*, const float*, size_t) { NoAvx2(); }
void MulF32(float*, const float*, const float*, size_t) { NoAvx2(); }
void ScaleF32(float*, const float*, float, size_t) { NoAvx2(); }
void AddScalarF32(float*, const float*, float, size_t) { NoAvx2(); }
void ReluF32(float*, const float*, size_t) { NoAvx2(); }
void LeakyReluF32(float*, const float*, float, size_t) { NoAvx2(); }
void ClampF32(float*, const float*, float, float, size_t) { NoAvx2(); }
void AbsF32(float*, const float*, size_t) { NoAvx2(); }
void SqrtMaxF32(float*, const float*, float, size_t) { NoAvx2(); }
void SubMulF32(float*, const float*, float, float, size_t) { NoAvx2(); }
void GatherAddF32(float*, const float*, const int*, const float*, const int*,
                  size_t) {
  NoAvx2();
}
void AddScaledF32(float*, const float*, float, size_t) { NoAvx2(); }
void AxpyF32(float*, const float*, float, size_t) { NoAvx2(); }
double DotF64(const float*, const float*, size_t) { NoAvx2(); }
double SumF64(const float*, size_t) { NoAvx2(); }
double SumSqF64(const float*, size_t) { NoAvx2(); }
double SumSqDiffF64(const float*, double, size_t) { NoAvx2(); }
void MatMulBandNN(const float*, const float*, float*, size_t, size_t, size_t,
                  size_t, size_t) {
  NoAvx2();
}
void MatMulBandNT(const float*, const float*, float*, size_t, size_t, size_t,
                  size_t) {
  NoAvx2();
}
void SpMMRowBand(const int*, const int*, const float*, const float*, size_t,
                 float*, size_t, size_t) {
  NoAvx2();
}
void SpMVRows(const int*, const int*, const float*, const float*, float*,
              size_t, size_t) {
  NoAvx2();
}

}  // namespace ahntp::tensor::simd

#endif  // __AVX2__ && __FMA__
