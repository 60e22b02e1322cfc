#ifndef CPDG_TENSOR_GEMM_INTERNAL_H_
#define CPDG_TENSOR_GEMM_INTERNAL_H_

// Backend seam for the blocked GEMM. gemm.cc owns B packing, blocking, and
// the thread fan-out; backends supply only the two arithmetic hooks below.
// Both backends must implement the identical per-element operation chain
// (ascending-k fmaf into a zeroed accumulator, one add into C) so that
// backend choice never changes results — see simd.h for the contract.

#include <cstdint>

#include "tensor/gemm.h"

namespace cpdg::tensor::gemm_internal {

/// \brief Computes one MR x NR register tile: C[0..mvalid) x [0..nvalid)
/// += sum over p < kb of a[r*rs + p*cs] * bpack[p*NR + l].
///
/// A is read in place through its strides, one broadcast per element;
/// `bpack` is an NR-interleaved B panel (zero-padded cols). Only rows
/// r < mvalid of A are read: a kernel that computes a full MR-row tile
/// points its rows past mvalid at row mvalid - 1 and never stores them.
/// The accumulator tile starts at zero, the p-chain uses fused
/// multiply-add per lane, and exactly the valid `mvalid` x `nvalid` region
/// is added into C (row stride `ldc`).
using MicroKernelFn = void (*)(const float* a, int64_t rs, int64_t cs,
                               const float* bpack, int64_t kb, float* c,
                               int64_t ldc, int64_t mvalid, int64_t nvalid);

/// \brief Direct small-product path: c[m x n] += a · b without packing B,
/// same per-element arithmetic as a single-k-block blocked run (requires
/// a.cols <= kGemmKC, which the tiny-flops bound guarantees).
using TinyGemmFn = void (*)(const GemmView& a, const GemmView& b, float* c);

/// Portable backend (plain C++, std::fmaf). Always available.
MicroKernelFn ScalarMicroKernel();
void TinyGemmPortable(const GemmView& a, const GemmView& b, float* c);

#ifdef CPDG_HAVE_AVX2_KERNELS
/// AVX2 + FMA backend (gemm_avx2.cc, compiled with -mavx2 -mfma
/// -ffp-contract=off). Call only after simd::Avx2Supported().
MicroKernelFn Avx2MicroKernel();
/// Scalar arithmetic compiled in the FMA translation unit: std::fmaf
/// inlines to the hardware instruction, same correctly-rounded results as
/// TinyGemmPortable but without a libm call per element.
void TinyGemmFma(const GemmView& a, const GemmView& b, float* c);
#endif

}  // namespace cpdg::tensor::gemm_internal

#endif  // CPDG_TENSOR_GEMM_INTERNAL_H_
