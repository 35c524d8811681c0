#ifndef AHNTP_TENSOR_SIMD_H_
#define AHNTP_TENSOR_SIMD_H_

#include <cstddef>

#include "common/cpu.h"

namespace ahntp::tensor::simd {

// ---------------------------------------------------------------------------
// AVX2 kernel primitives (tensor/kernels_avx2.cc — the only TU built with
// -mavx2 -mfma). The dispatching kernels in kernels.cc / matrix.cc / csr.cc
// branch on UseAvx2() per call; when it returns false, none of these symbols
// are reachable (builds without AVX2 support compile them as CHECK-failing
// stubs).
//
// Two parity tiers against the scalar oracle (common/cpu.h):
//  * "exact" primitives perform the same per-element float operations as
//    the scalar loops and are bitwise-identical to them;
//  * "fma" primitives fuse multiply-adds and/or reassociate reductions into
//    fixed-width lanes — bitwise-stable for a given input (lane boundaries
//    never depend on the thread count) but only tolerance-equal to scalar.
// tests/kernel_parity_test.cc enforces both tiers.
//
// All functions take raw pointers: this TU must not instantiate inline
// Matrix code with AVX2 codegen that the linker could then pick for
// non-AVX2 TUs.
// ---------------------------------------------------------------------------

/// Dispatch predicate, one relaxed atomic load.
inline bool UseAvx2() {
  return ActiveKernelIsa() == KernelIsa::kAvx2;
}

// --- exact tier -----------------------------------------------------------

void AddF32(float* o, const float* a, const float* b, size_t n);
void SubF32(float* o, const float* a, const float* b, size_t n);
void MulF32(float* o, const float* a, const float* b, size_t n);
void ScaleF32(float* o, const float* a, float s, size_t n);
void AddScalarF32(float* o, const float* a, float s, size_t n);
void ReluF32(float* o, const float* a, size_t n);
void LeakyReluF32(float* o, const float* a, float slope, size_t n);
/// out = min(max(lo, a), hi) with the scalar kernel's NaN/signed-zero
/// behaviour (operand order chosen so NaN propagates like std::min/max).
void ClampF32(float* o, const float* a, float lo, float hi, size_t n);
void AbsF32(float* o, const float* a, size_t n);
/// out = sqrt(max(a, eps)); _mm256_sqrt_ps is IEEE-exact.
void SqrtMaxF32(float* o, const float* a, float eps, size_t n);
/// out = (a - sub) * mul, two separately rounded passes like the scalar
/// RowStandardize normalization loop.
void SubMulF32(float* o, const float* a, float sub, float mul, size_t n);
/// o[i] = a[ia[i]] + b[ib[i]] (the pair score kernel's gather-add).
void GatherAddF32(float* o, const float* a, const int* ia, const float* b,
                  const int* ib, size_t n);
/// o[i] = o[i] + x[i] * s as a rounded multiply then a rounded add — never
/// fused, so it matches ScaleF32 followed by AddF32 bit for bit.
void AddScaledF32(float* o, const float* x, float s, size_t n);

// --- fma tier -------------------------------------------------------------

/// o[i] = fma(a, x[i], o[i]). Shared by the SpMM gather band and the
/// SpMMTransposed scatter path so the two stay bitwise-identical to each
/// other under AVX2 (their relative parity is a thread-count contract).
void AxpyF32(float* o, const float* x, float a, size_t n);

/// Double-precision reductions over float inputs: 4-wide double FMA lanes,
/// fixed combine order (deterministic for a given input at any thread
/// count).
double DotF64(const float* a, const float* b, size_t n);
double SumF64(const float* a, size_t n);
double SumSqF64(const float* a, size_t n);
/// sum over i of ((double)a[i] - mean)^2.
double SumSqDiffF64(const float* a, double mean, size_t n);

/// Row band [r0, r1) of out = a * b (row-major, a is (m x k), b is (k x n)),
/// k-blocked like the scalar MatMulRowBandNN with an FMA-vectorized j loop.
/// `out` rows must be zeroed on entry (the kernel accumulates).
void MatMulBandNN(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t n, size_t kblock);

/// Row band [r0, r1) of out = a * b^T (b is (nb x k)): per-element
/// double-FMA dot products.
void MatMulBandNT(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t nb);

/// Row band of out = A * B for CSR A (gather form), FMA axpy inner loop.
/// `out` rows must be zeroed on entry.
void SpMMRowBand(const int* row_ptr, const int* col_idx, const float* values,
                 const float* b, size_t bcols, float* out, size_t r0,
                 size_t r1);

/// Rows [r0, r1) of y = A * x for CSR A: gathered double-FMA dots.
void SpMVRows(const int* row_ptr, const int* col_idx, const float* values,
              const float* x, float* y, size_t r0, size_t r1);

}  // namespace ahntp::tensor::simd

#endif  // AHNTP_TENSOR_SIMD_H_
