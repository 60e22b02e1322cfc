// AVX2/FMA backend. This translation unit is the only one compiled with
// -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse the
// deliberately-unfused elementwise mul/add loops); its entry points run
// only after simd::Avx2Supported() verified the CPU, so the extended ISA
// never leaks into code executed on baseline machines.

#ifdef CPDG_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cmath>

#include "tensor/gemm_internal.h"
#include "tensor/simd_internal.h"

namespace cpdg::tensor::gemm_internal {
namespace {

constexpr int64_t MR = kGemmMR;
constexpr int64_t NR = kGemmNR;
static_assert(NR == 16, "microkernel hardcodes two 8-lane accumulators/row");

// 6x16 register tile: 12 ymm accumulators + 2 B vectors + 1 broadcast stay
// within the 16 architectural ymm registers, and 12 independent FMA chains
// cover the fused-multiply-add latency at 2 issues/cycle.
// A is broadcast straight from its strided rows; rows past mvalid re-read
// row mvalid - 1, so no load leaves A, and their accumulators are dropped.
void Avx2Micro(const float* a, int64_t rs, int64_t cs, const float* bpack,
               int64_t kb, float* c, int64_t ldc, int64_t mvalid,
               int64_t nvalid) {
  const float* arow[MR];
  __m256 acc[MR][2];
  for (int64_t r = 0; r < MR; ++r) {
    arow[r] = a + (r < mvalid ? r : mvalid - 1) * rs;
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bpack + p * NR);
    const __m256 b1 = _mm256_loadu_ps(bpack + p * NR + 8);
    const int64_t off = p * cs;
    for (int64_t r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow[r] + off);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (mvalid == MR && nvalid == NR) {
    for (int64_t r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      _mm256_storeu_ps(crow,
                       _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
    }
  } else {
    // Edge tile: spill the full accumulator and add back the valid region.
    alignas(32) float buf[MR * NR];
    for (int64_t r = 0; r < MR; ++r) {
      _mm256_store_ps(buf + r * NR, acc[r][0]);
      _mm256_store_ps(buf + r * NR + 8, acc[r][1]);
    }
    for (int64_t r = 0; r < mvalid; ++r) {
      for (int64_t l = 0; l < nvalid; ++l) c[r * ldc + l] += buf[r * NR + l];
    }
  }
}

}  // namespace

MicroKernelFn Avx2MicroKernel() { return &Avx2Micro; }

void TinyGemmFma(const GemmView& a, const GemmView& b, float* c) {
  // Same scalar chain as TinyGemmPortable; compiled here so std::fmaf
  // inlines to vfmadd132ss instead of a libm call per element.
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

// Every loop below is unfused lane arithmetic (see header contract): the
// vector body uses explicit mul/add/div intrinsics and the remainder tail
// repeats the scalar statement, so results match the scalar backend bit
// for bit.

void AddV(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubV(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulV(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void DivV(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}

void AccV(float* g, const float* d, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(g + i, _mm256_add_ps(_mm256_loadu_ps(g + i),
                                          _mm256_loadu_ps(d + i)));
  }
  for (; i < n; ++i) g[i] += d[i];
}

void AccProdV(float* g, const float* d, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(g + i, _mm256_add_ps(_mm256_loadu_ps(g + i), prod));
  }
  for (; i < n; ++i) g[i] += d[i] * x[i];
}

void AccQuotV(float* g, const float* d, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 quot =
        _mm256_div_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(g + i, _mm256_add_ps(_mm256_loadu_ps(g + i), quot));
  }
  for (; i < n; ++i) g[i] += d[i] / x[i];
}

void NegV(const float* a, float* o, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
  }
  for (; i < n; ++i) o[i] = -a[i];
}

void ScaleV(const float* a, float s, float* o, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}

void AccScaledV(float* g, const float* d, float s, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(d + i), sv);
    _mm256_storeu_ps(g + i, _mm256_add_ps(_mm256_loadu_ps(g + i), prod));
  }
  for (; i < n; ++i) g[i] += d[i] * s;
}

}  // namespace

const ElementwiseKernels& Avx2Elementwise() {
  static const ElementwiseKernels kernels = {
      &AddV,     &SubV,     &MulV, &DivV,   &AccV,
      &AccProdV, &AccQuotV, &NegV, &ScaleV, &AccScaledV,
  };
  return kernels;
}

}  // namespace cpdg::tensor::simd_internal

#endif  // CPDG_HAVE_AVX2_KERNELS
