// Packed-GEMM and SIMD-dispatch suite: correctness of the cache-blocked
// kernels at awkward shapes (edge tiles, degenerate dims, tiny-path
// boundary), bitwise equality between the scalar and AVX2 backends, the
// serial-cutoff boundary of the elementwise dispatch, and the fwd/bwd
// flop counters the bench derives its GFLOPS from.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpdg {
namespace {

namespace ts = cpdg::tensor;

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) {
    util::ThreadPool::SetGlobalNumThreads(n);
  }
  ~ThreadCountGuard() {
    util::ThreadPool::SetGlobalNumThreads(
        util::ThreadPool::DefaultNumThreads());
  }
};

struct SimdModeGuard {
  explicit SimdModeGuard(ts::simd::Mode m) { ts::simd::ForceModeForTest(m); }
  ~SimdModeGuard() { ts::simd::ResetModeForTest(); }
};

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->NextUniform(-1.0, 1.0));
  return v;
}

/// Double-precision reference for C += A·B on plain row-major operands.
std::vector<float> ReferenceGemm(const std::vector<float>& a,
                                 const std::vector<float>& b, int64_t m,
                                 int64_t k, int64_t n) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

std::vector<float> RunGemm(const std::vector<float>& a,
                           const std::vector<float>& b, int64_t m, int64_t k,
                           int64_t n) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  ts::GemmAccumulate({a.data(), m, k, k, 1}, {b.data(), k, n, n, 1},
                     c.data());
  return c;
}

/// Independent model of the determinism contract: per C element, an
/// ascending-k std::fmaf chain from zero over each kGemmKC block, added into
/// C once per block, blocks in ascending order. Reads A and B through the
/// same strided views GemmAccumulate gets.
std::vector<float> ContractReference(const ts::GemmView& a,
                                     const ts::GemmView& b,
                                     std::vector<float> c) {
  for (int64_t i = 0; i < a.rows; ++i) {
    for (int64_t j = 0; j < b.cols; ++j) {
      float& out = c[static_cast<size_t>(i * b.cols + j)];
      for (int64_t p0 = 0; p0 < a.cols; p0 += ts::kGemmKC) {
        const int64_t p1 = std::min(a.cols, p0 + ts::kGemmKC);
        float acc = 0.0f;
        for (int64_t p = p0; p < p1; ++p) {
          acc = std::fmaf(a.p[i * a.rstride + p * a.cstride],
                          b.p[p * b.rstride + j * b.cstride], acc);
        }
        out += acc;
      }
    }
  }
  return c;
}

void ExpectCloseToReference(const std::vector<float>& got,
                            const std::vector<float>& want, int64_t k) {
  ASSERT_EQ(got.size(), want.size());
  // k rounding steps of float accumulation against a double reference.
  const float tol = 1e-6f * static_cast<float>(k) + 1e-6f;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "element " << i;
  }
}

TEST(GemmTest, AwkwardShapesMatchDoubleReference) {
  // Shapes straddling every blocking boundary: non-multiple-of-MR rows,
  // non-multiple-of-NR cols, k above one KC block, degenerate m=1 and k=1,
  // and an exact single 6x16 tile.
  struct Shape {
    int64_t m, k, n;
  };
  const Shape shapes[] = {
      {67, 129, 35},  // edge tiles in every dimension
      {1, 300, 17},   // m=1: single partial row group, k spans 2 KC blocks
      {30, 1, 40},    // k=1: rank-1 update
      {6, 16, 16},    // exactly one full microkernel tile (tiny path)
      {97, 257, 16},  // m just past MC=96, k just past KC=256
      {8, 16, 31},    // tiny-path side of the kGemmTinyFlops boundary
      {8, 17, 31},    // packed side of the same boundary
  };
  Rng rng(123);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    std::vector<float> a = RandomVec(s.m * s.k, &rng);
    std::vector<float> b = RandomVec(s.k * s.n, &rng);
    ExpectCloseToReference(RunGemm(a, b, s.m, s.k, s.n),
                           ReferenceGemm(a, b, s.m, s.k, s.n), s.k);
  }
}

TEST(GemmTest, TransposedViewsMatchDoubleReference) {
  // The backward products consume strided views (swapped strides) instead
  // of materialized transposes: dA = dOut·Bt and dB = At·dOut.
  const int64_t m = 45, k = 37, n = 29;
  Rng rng(321);
  std::vector<float> a = RandomVec(m * k, &rng);    // A is m x k
  std::vector<float> b = RandomVec(k * n, &rng);    // B is k x n
  std::vector<float> dout = RandomVec(m * n, &rng); // dOut is m x n

  std::vector<float> da(static_cast<size_t>(m * k), 0.0f);
  ts::GemmAccumulate({dout.data(), m, n, n, 1}, {b.data(), n, k, 1, n},
                     da.data());
  std::vector<float> bt(static_cast<size_t>(n * k));
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
  }
  ExpectCloseToReference(da, ReferenceGemm(dout, bt, m, n, k), n);

  std::vector<float> db(static_cast<size_t>(k * n), 0.0f);
  ts::GemmAccumulate({a.data(), k, m, 1, k}, {dout.data(), m, n, n, 1},
                     db.data());
  std::vector<float> at(static_cast<size_t>(k * m));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) at[j * m + i] = a[i * k + j];
  }
  ExpectCloseToReference(db, ReferenceGemm(at, dout, k, m, n), m);
}

TEST(GemmTest, AccumulatesIntoExistingOutput) {
  const int64_t m = 13, k = 21, n = 19;
  Rng rng(77);
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> once = RunGemm(a, b, m, k, n);
  std::vector<float> twice = once;
  ts::GemmAccumulate({a.data(), m, k, k, 1}, {b.data(), k, n, n, 1},
                     twice.data());
  for (size_t i = 0; i < once.size(); ++i) {
    ASSERT_EQ(twice[i], once[i] + once[i]) << "element " << i;
  }
}

TEST(GemmTest, ScalarAndAvx2BackendsBitwiseIdentical) {
  if (!ts::simd::Avx2Supported()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this machine/build";
  }
  const int64_t m = 67, k = 300, n = 35;  // edge tiles + 2 KC blocks
  Rng rng(55);
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> scalar, avx2;
  {
    SimdModeGuard guard(ts::simd::Mode::kScalar);
    scalar = RunGemm(a, b, m, k, n);
  }
  {
    SimdModeGuard guard(ts::simd::Mode::kAvx2);
    avx2 = RunGemm(a, b, m, k, n);
  }
  EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(),
                           scalar.size() * sizeof(float)));
}

// Pins the determinism contract bit for bit against ContractReference, on
// every backend, on the serial and the row-block-parallel paths, and for
// the A layouts the backward products use. Every operand lives in an
// exact-size heap buffer, so an edge-row read past the end of A is caught
// under AddressSanitizer.
TEST(GemmTest, MatchesFmaChainReferenceBitwise) {
  struct Case {
    int64_t m, k, n;
    bool a_transposed;  // A stored k x m, viewed with rstride 1
  };
  const Case cases[] = {
      {67, 129, 35, false},   // m % 6 = 1, n % 16 = 3
      {101, 300, 17, false},  // m % 6 = 5, k spans two KC blocks
      {101, 300, 17, true},   // the same through a transposed A view
      {32, 600, 40, true},    // weight-gradient shape: k = 600, m % 6 = 2
      {200, 520, 33, false},  // parallel row blocks, three KC blocks
      {5, 7, 9, false},       // tiny path, m < MR
      {5, 7, 9, true},
  };
  std::vector<ts::simd::Mode> modes = {ts::simd::Mode::kScalar};
  if (ts::simd::Avx2Supported()) modes.push_back(ts::simd::Mode::kAvx2);
  Rng rng(2024);
  for (const Case& cs : cases) {
    SCOPED_TRACE(testing::Message() << "m=" << cs.m << " k=" << cs.k
                                    << " n=" << cs.n
                                    << " a_transposed=" << cs.a_transposed);
    const std::vector<float> a = RandomVec(cs.m * cs.k, &rng);
    const std::vector<float> b = RandomVec(cs.k * cs.n, &rng);
    const std::vector<float> c0 = RandomVec(cs.m * cs.n, &rng);
    const ts::GemmView av =
        cs.a_transposed ? ts::GemmView{a.data(), cs.m, cs.k, 1, cs.m}
                        : ts::GemmView{a.data(), cs.m, cs.k, cs.k, 1};
    const ts::GemmView bv{b.data(), cs.k, cs.n, cs.n, 1};
    const std::vector<float> want = ContractReference(av, bv, c0);
    for (ts::simd::Mode mode : modes) {
      SimdModeGuard simd_guard(mode);
      for (int threads : {1, 4}) {
        ThreadCountGuard thread_guard(threads);
        std::vector<float> got = c0;
        ts::GemmAccumulate(av, bv, got.data());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(float)))
            << "mode=" << static_cast<int>(mode) << " threads=" << threads;
      }
    }
  }
}

TEST(GemmTest, ElementwiseBackendsBitwiseIdentical) {
  if (!ts::simd::Avx2Supported()) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this machine/build";
  }
  const int64_t n = 1037;  // odd size: vector body + scalar tail
  Rng rng(56);
  std::vector<float> a = RandomVec(n, &rng);
  std::vector<float> b = RandomVec(n, &rng);
  for (float& x : b) x += x < 0.0f ? -1.5f : 1.5f;  // away from zero for Div
  auto run_all = [&](ts::simd::Mode mode) {
    SimdModeGuard guard(mode);
    std::vector<float> out;
    std::vector<float> o(static_cast<size_t>(n));
    ts::simd::Add(a.data(), b.data(), o.data(), n);
    out.insert(out.end(), o.begin(), o.end());
    ts::simd::Sub(a.data(), b.data(), o.data(), n);
    out.insert(out.end(), o.begin(), o.end());
    ts::simd::Mul(a.data(), b.data(), o.data(), n);
    out.insert(out.end(), o.begin(), o.end());
    ts::simd::Div(a.data(), b.data(), o.data(), n);
    out.insert(out.end(), o.begin(), o.end());
    ts::simd::Negate(a.data(), o.data(), n);
    out.insert(out.end(), o.begin(), o.end());
    ts::simd::Scale(a.data(), 1.7f, o.data(), n);
    out.insert(out.end(), o.begin(), o.end());
    std::vector<float> g(static_cast<size_t>(n), 0.25f);
    ts::simd::Accumulate(g.data(), a.data(), n);
    ts::simd::AccumulateProduct(g.data(), a.data(), b.data(), n);
    ts::simd::AccumulateQuotient(g.data(), a.data(), b.data(), n);
    ts::simd::AccumulateScaled(g.data(), a.data(), -0.3f, n);
    out.insert(out.end(), g.begin(), g.end());
    return out;
  };
  std::vector<float> scalar = run_all(ts::simd::Mode::kScalar);
  std::vector<float> avx2 = run_all(ts::simd::Mode::kAvx2);
  ASSERT_EQ(scalar.size(), avx2.size());
  EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(),
                           scalar.size() * sizeof(float)));
}

// The elementwise dispatch runs ops below kMinParallelWork (2^16 scalar
// ops) serially on the calling thread. Results must not depend on which
// side of the cutoff a shape lands on or on the pool size — pin both by
// straddling the boundary at 1 and 4 threads.
TEST(GemmTest, SerialCutoffBoundaryBitIdentical) {
  // 255*257 = 65535 (last shape below the cutoff), 256*257 = 65792 (above).
  const struct {
    int64_t rows, cols;
  } shapes[] = {{255, 257}, {256, 257}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.rows << "x" << s.cols);
    auto run = [&](int threads) {
      ThreadCountGuard guard(threads);
      Rng rng(99);
      ts::Tensor x = ts::Tensor::RandomUniform(s.rows, s.cols, 1.0f, &rng,
                                               /*requires_grad=*/true);
      ts::Tensor y = ts::Tensor::RandomUniform(s.rows, s.cols, 1.0f, &rng,
                                               /*requires_grad=*/false);
      ts::Tensor z = ts::Mean(ts::Mul(ts::Add(x, y), x));
      z.Backward();
      std::vector<float> out(x.grad(), x.grad() + x.size());
      out.push_back(z.item());
      return out;
    };
    std::vector<float> serial = run(1);
    std::vector<float> parallel = run(4);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(float)));
  }
}

TEST(GemmTest, FwdAndBwdFlopCountersAreSeparate) {
  obs::Counter& fwd =
      obs::MetricsRegistry::Global().counter("tensor.matmul.fwd_flops");
  obs::Counter& bwd =
      obs::MetricsRegistry::Global().counter("tensor.matmul.bwd_flops");
  const int64_t m = 12, k = 34, n = 56;
  Rng rng(7);
  ts::Tensor a = ts::Tensor::RandomUniform(m, k, 0.5f, &rng,
                                           /*requires_grad=*/true);
  ts::Tensor b = ts::Tensor::RandomUniform(k, n, 0.5f, &rng,
                                           /*requires_grad=*/false);
  const int64_t fwd0 = fwd.value(), bwd0 = bwd.value();
  ts::Tensor out = ts::MatMul(a, b);
  EXPECT_EQ(fwd.value() - fwd0, 2 * m * k * n);
  EXPECT_EQ(bwd.value() - bwd0, 0);
  out.Backward();
  EXPECT_EQ(fwd.value() - fwd0, 2 * m * k * n);
  // Only dA is computed (b does not require grad), so one backward GEMM.
  EXPECT_EQ(bwd.value() - bwd0, 2 * m * k * n);
}

}  // namespace
}  // namespace cpdg
