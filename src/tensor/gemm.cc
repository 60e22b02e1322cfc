// Cache-blocked GEMM driver: owns the blocking loops, B packing, and the
// thread fan-out; per-tile arithmetic is delegated to the backend
// microkernel selected by simd::ActiveMode(). See gemm.h for the
// determinism contract.

#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm_internal.h"
#include "tensor/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpdg::tensor {
namespace {

using gemm_internal::MicroKernelFn;

constexpr int64_t MR = kGemmMR;
constexpr int64_t NR = kGemmNR;
constexpr int64_t KC = kGemmKC;
constexpr int64_t MC = kGemmMC;
static_assert(MC % MR == 0, "row blocks must hold whole microkernel tiles");

MicroKernelFn ActiveMicroKernel() {
#ifdef CPDG_HAVE_AVX2_KERNELS
  if (simd::ActiveMode() == simd::Mode::kAvx2) {
    return gemm_internal::Avx2MicroKernel();
  }
#endif
  return gemm_internal::ScalarMicroKernel();
}

gemm_internal::TinyGemmFn ActiveTinyGemm() {
#ifdef CPDG_HAVE_AVX2_KERNELS
  // Scalar arithmetic either way; the FMA-compiled copy just avoids a libm
  // call per element. Selected by hardware support, not by the forced test
  // mode, because both produce identical bits.
  if (simd::Avx2Supported()) return &gemm_internal::TinyGemmFma;
#endif
  return &gemm_internal::TinyGemmPortable;
}

/// Packs B block rows [p0, p0+kb) x all n cols into NR-interleaved column
/// panels: bpack[(jg*kb + p)*NR + l] = B[p0 + p][jg*NR + l], cols beyond n
/// zero-padded.
void PackB(const GemmView& b, int64_t p0, int64_t kb, float* bpack) {
  const int64_t n = b.cols;
  const int64_t panels = (n + NR - 1) / NR;
  for (int64_t jg = 0; jg < panels; ++jg) {
    const int64_t lvalid = std::min<int64_t>(NR, n - jg * NR);
    float* panel = bpack + jg * kb * NR;
    for (int64_t p = 0; p < kb; ++p) {
      const float* src = b.p + (p0 + p) * b.rstride + jg * NR * b.cstride;
      float* dst = panel + p * NR;
      for (int64_t l = 0; l < lvalid; ++l) dst[l] = src[l * b.cstride];
      for (int64_t l = lvalid; l < NR; ++l) dst[l] = 0.0f;
    }
  }
}

/// One MC-tall row block for one k-block: sweeps the microkernel over every
/// (MR row group) x (NR column panel) tile, reading A in place.
void ComputeRowBlock(MicroKernelFn micro, const GemmView& a,
                     const float* bpack, int64_t p0, int64_t kb, int64_t i0,
                     int64_t mb, int64_t n, float* c) {
  const int64_t groups = (mb + MR - 1) / MR;
  const int64_t panels = (n + NR - 1) / NR;
  for (int64_t ig = 0; ig < groups; ++ig) {
    const int64_t mvalid = std::min<int64_t>(MR, mb - ig * MR);
    const float* ablock = a.p + (i0 + ig * MR) * a.rstride + p0 * a.cstride;
    for (int64_t jg = 0; jg < panels; ++jg) {
      const int64_t nvalid = std::min<int64_t>(NR, n - jg * NR);
      micro(ablock, a.rstride, a.cstride, bpack + jg * kb * NR, kb,
            c + (i0 + ig * MR) * n + jg * NR, n, mvalid, nvalid);
    }
  }
}

}  // namespace

void GemmAccumulate(const GemmView& a, const GemmView& b, float* c) {
  CPDG_CHECK_EQ(a.cols, b.rows);
  const int64_t m = a.rows, k = a.cols, n = b.cols;
  if (m == 0 || n == 0) return;
  if (k == 0) return;  // C += A·B adds nothing.

  const int64_t flops = m * k * n;
  if (flops < kGemmTinyFlops && k <= KC) {
    ActiveTinyGemm()(a, b, c);
    return;
  }

  const MicroKernelFn micro = ActiveMicroKernel();
  const int64_t row_blocks = (m + MC - 1) / MC;

  // Caller-owned B pack buffer, shared read-only by every worker during
  // the row-block fan-out (ParallelFor blocks until the region completes).
  static thread_local std::vector<float> bpack;
  bpack.resize(static_cast<size_t>(KC * ((n + NR - 1) / NR) * NR));

  // Hoisted pointer: `bpack` is thread_local, so naming it inside the
  // worker lambda would resolve to each worker's own (empty) instance.
  float* const bp = bpack.data();

  for (int64_t p0 = 0; p0 < k; p0 += KC) {
    const int64_t kb = std::min(KC, k - p0);
    PackB(b, p0, kb, bp);
    auto run_block = [&, bp](int64_t blk) {
      const int64_t i0 = blk * MC;
      ComputeRowBlock(micro, a, bp, p0, kb, i0, std::min(MC, m - i0), n, c);
    };
    if (flops < kGemmParallelMinFlops || row_blocks == 1) {
      for (int64_t blk = 0; blk < row_blocks; ++blk) run_block(blk);
    } else {
      // Chunk = one MC row block; boundaries depend only on the shape, and
      // each block owns a disjoint row slice of C, so any thread count
      // produces identical bits.
      util::ThreadPool::Global().ParallelFor(
          0, row_blocks, /*grain=*/1, [&](int64_t lo, int64_t hi) {
            for (int64_t blk = lo; blk < hi; ++blk) run_block(blk);
          });
    }
  }
}

}  // namespace cpdg::tensor
