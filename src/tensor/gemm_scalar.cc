// Portable backend: plain C++ implementations of the GEMM microkernel,
// tiny-product path, and elementwise primitives. Compiled with the
// project-default ISA so it runs on any x86-64 (or other) machine.
//
// std::fmaf is the correctly-rounded IEEE fused multiply-add, i.e. exactly
// what one AVX2 vfmaddps lane computes, so this backend reproduces the
// AVX2 results bit for bit. On CPUs without an FMA unit libm falls back to
// a soft implementation — slower, still correctly rounded.

#include <cmath>

#include "tensor/gemm_internal.h"
#include "tensor/simd_internal.h"

namespace cpdg::tensor::gemm_internal {
namespace {

constexpr int64_t NR = kGemmNR;

void ScalarMicro(const float* a, int64_t rs, int64_t cs, const float* bpack,
                 int64_t kb, float* c, int64_t ldc, int64_t mvalid,
                 int64_t nvalid) {
  for (int64_t r = 0; r < mvalid; ++r) {
    float* crow = c + r * ldc;
    for (int64_t l = 0; l < nvalid; ++l) {
      float acc = 0.0f;
      for (int64_t p = 0; p < kb; ++p) {
        acc = std::fmaf(a[r * rs + p * cs], bpack[p * NR + l], acc);
      }
      crow[l] += acc;
    }
  }
}

}  // namespace

MicroKernelFn ScalarMicroKernel() { return &ScalarMicro; }

void TinyGemmPortable(const GemmView& a, const GemmView& b, float* c) {
  const int64_t m = a.rows, k = a.cols, n = b.cols;
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.p + i * a.rstride;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* bcol = b.p + j * b.cstride;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fmaf(arow[p * a.cstride], bcol[p * b.rstride], acc);
      }
      crow[j] += acc;
    }
  }
}

}  // namespace cpdg::tensor::gemm_internal

namespace cpdg::tensor::simd_internal {
namespace {

void AddS(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void SubS(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void MulS(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void DivS(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}
void AccS(float* g, const float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] += d[i];
}
void AccProdS(float* g, const float* d, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] += d[i] * x[i];
}
void AccQuotS(float* g, const float* d, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] += d[i] / x[i];
}
void NegS(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = -a[i];
}
void ScaleS(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void AccScaledS(float* g, const float* d, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) g[i] += d[i] * s;
}

}  // namespace

const ElementwiseKernels& ScalarElementwise() {
  static const ElementwiseKernels kernels = {
      &AddS,     &SubS,      &MulS, &DivS,   &AccS,
      &AccProdS, &AccQuotS,  &NegS, &ScaleS, &AccScaledS,
  };
  return kernels;
}

}  // namespace cpdg::tensor::simd_internal
