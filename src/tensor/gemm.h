#ifndef CPDG_TENSOR_GEMM_H_
#define CPDG_TENSOR_GEMM_H_

#include <cstdint>

namespace cpdg::tensor {

/// \brief Read-only strided view of a float matrix: element (r, c) lives at
/// `p[r * rstride + c * cstride]`. A row-major matrix is (ld, 1); its
/// transpose is the same pointer viewed as (1, ld), which is how the
/// backward products reuse the forward operands without materializing a
/// transpose.
struct GemmView {
  const float* p = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t rstride = 0;
  int64_t cstride = 0;
};

/// \brief Dense accumulating matrix product: C += A · B, with C row-major
/// [a.rows, b.cols] and leading dimension b.cols.
///
/// Implementation: cache-blocked GEMM. B is packed once per KC-deep k-block
/// into NR-wide column panels; each MC-tall row block runs an MR x NR
/// register-tiled microkernel (AVX2/FMA or the bitwise-identical scalar
/// fallback — see simd.h) that reads A in place through its strides, so a
/// transposed A costs no copy. Row blocks fan out over
/// util::ThreadPool::Global() once the product is large enough to amortize
/// pool dispatch; tiny products take a branch-free serial path.
///
/// Determinism contract: the value of every C element is a function of the
/// operands and the fixed blocking constants only. Per element, the
/// accumulation is an ascending-k chain of correctly-rounded fmaf steps per
/// KC block, with one add into C per block, and k-blocks are processed in
/// ascending order. Chunk assignment parallelizes whole row blocks whose
/// boundaries depend only on the shape, so results are bitwise identical
/// at every thread count, on both SIMD backends, and on either side of the
/// serial cutoff (GemmTest.MatchesFmaChainReferenceBitwise models the chain
/// independently and compares bit for bit). There are no data-dependent
/// skips: runtime is a function of shape alone, never of sparsity.
void GemmAccumulate(const GemmView& a, const GemmView& b, float* c);

/// \name Blocking constants
/// Shared by every backend; they define the accumulation order, so
/// changing them is a numerics-visible change (goldens must be recaptured).
/// @{
inline constexpr int64_t kGemmMR = 6;    ///< microkernel rows
inline constexpr int64_t kGemmNR = 16;   ///< microkernel cols (2 AVX lanes)
inline constexpr int64_t kGemmKC = 256;  ///< k-block depth
inline constexpr int64_t kGemmMC = 96;   ///< row-block height (multiple of MR)
/// @}

/// Products with fewer than this many multiply-adds run a direct serial
/// loop instead of the blocked path (identical arithmetic when k <= kGemmKC,
/// which the tiny bound guarantees; see gemm.cc).
inline constexpr int64_t kGemmTinyFlops = 1 << 12;

/// Products with fewer than this many multiply-adds stay on the calling
/// thread; larger ones fan row blocks out over the global pool.
inline constexpr int64_t kGemmParallelMinFlops = 1 << 18;

}  // namespace cpdg::tensor

#endif  // CPDG_TENSOR_GEMM_H_
