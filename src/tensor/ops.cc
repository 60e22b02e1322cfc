#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace cpdg::tensor {
namespace {

// Minimum per-chunk element count for parallel kernels. Chunk boundaries
// depend only on this grain (never on the worker count), and every chunk
// owns a disjoint slice of its output, so parallel results are bitwise
// identical to serial ones.
constexpr int64_t kElementGrain = 1 << 14;

// Serial cutoff: ops whose total scalar work is below this never touch the
// pool — dispatch (mutex + condvar wakeups) costs more than the op itself,
// which showed up as sub-1.0x "speedups" on small full-cell batches. The
// elementwise bodies are chunk-shape independent, so results are bitwise
// identical on either side of the cutoff (pinned by GemmTest).
constexpr int64_t kMinParallelWork = 1 << 16;

// Splits a flat element range into grain-sized chunks. Only ranges that
// actually fan out over the pool get a trace span: sub-cutoff tensors run
// serially on a fast path that must stay span-free (the encoder issues
// thousands of tiny elementwise ops per batch).
void ParallelElems(int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
  if (n < kMinParallelWork) {
    if (n > 0) fn(0, n);
    return;
  }
  CPDG_TRACE_SPAN("tensor/elementwise");
  util::ThreadPool::Global().ParallelFor(0, n, kElementGrain, fn);
}

// Splits a row range into chunks covering roughly kElementGrain scalar
// operations each; `row_cost` is the per-row operation count.
void ParallelRows(int64_t rows, int64_t row_cost,
                  const std::function<void(int64_t, int64_t)>& fn) {
  if (rows * row_cost < kMinParallelWork) {
    if (rows > 0) fn(0, rows);
    return;
  }
  CPDG_TRACE_SPAN("tensor/rowwise");
  int64_t grain =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, row_cost));
  util::ThreadPool::Global().ParallelFor(0, rows, grain, fn);
}

// Index lists captured by backward closures live in arena storage.
using IndexVec = std::vector<int64_t, ArenaAllocator<int64_t>>;
using RefVec = std::vector<RowRef, ArenaAllocator<RowRef>>;

// Shapes are equal, or b is a [1, cols] row broadcast over a's rows.
enum class BroadcastKind { kSame, kRow };

BroadcastKind CheckBinaryShapes(const Tensor& a, const Tensor& b) {
  CPDG_CHECK_EQ(a.cols(), b.cols());
  if (a.rows() == b.rows()) return BroadcastKind::kSame;
  CPDG_CHECK_EQ(b.rows(), 1)
      << "binary op requires equal shapes or a [1,cols] second operand";
  return BroadcastKind::kRow;
}

// Accumulates dout (shape [n,d]) into b.grad where b may be [1,d]
// row-broadcast.
void AccumulateBroadcast(const Tensor& b, const float* dout, int64_t n,
                         int64_t d, BroadcastKind kind) {
  float* gb = b.grad();
  if (kind == BroadcastKind::kSame) {
    ParallelElems(n * d, [gb, dout](int64_t lo, int64_t hi) {
      simd::Accumulate(gb + lo, dout + lo, hi - lo);
    });
  } else {
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < d; ++c) gb[c] += dout[r * d + c];
    }
  }
}

// Generic elementwise unary op: forward computes f(x), backward multiplies
// the upstream grad with dfdx evaluated from (x, y).
template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Bwd bwd, const char* name) {
  Tensor out = Tensor::MakeOpResult(
      a.rows(), a.cols(), {a},
      [a, bwd](Tensor& self) mutable {
        const float* dout = self.grad();
        const float* x = a.data();
        const float* y = self.data();
        float* gx = a.grad();
        ParallelElems(a.size(), [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += dout[i] * bwd(x[i], y[i]);
        });
      },
      name);
  const float* x = a.data();
  float* y = out.data();
  ParallelElems(a.size(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) y[i] = fwd(x[i]);
  });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  BroadcastKind kind = CheckBinaryShapes(a, b);
  int64_t n = a.rows(), d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, d, {a, b},
      [a, b, n, d, kind](Tensor& self) mutable {
        const float* dout = self.grad();
        if (a.requires_grad()) {
          float* ga = a.grad();
          ParallelElems(n * d, [ga, dout](int64_t lo, int64_t hi) {
            simd::Accumulate(ga + lo, dout + lo, hi - lo);
          });
        }
        if (b.requires_grad()) AccumulateBroadcast(b, dout, n, d, kind);
      },
      "add");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (kind == BroadcastKind::kSame) {
    ParallelElems(n * d, [&](int64_t lo, int64_t hi) {
      simd::Add(pa + lo, pb + lo, po + lo, hi - lo);
    });
  } else {
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < d; ++c) po[r * d + c] = pa[r * d + c] + pb[c];
    }
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  BroadcastKind kind = CheckBinaryShapes(a, b);
  int64_t n = a.rows(), d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, d, {a, b},
      [a, b, n, d, kind](Tensor& self) mutable {
        const float* dout = self.grad();
        if (a.requires_grad()) {
          float* ga = a.grad();
          ParallelElems(n * d, [ga, dout](int64_t lo, int64_t hi) {
            simd::Accumulate(ga + lo, dout + lo, hi - lo);
          });
        }
        if (b.requires_grad()) {
          // Negated upstream gradient for the subtrahend.
          FloatBuffer neg(static_cast<size_t>(n * d));
          ParallelElems(n * d, [&](int64_t lo, int64_t hi) {
            simd::Negate(dout + lo, neg.data() + lo, hi - lo);
          });
          AccumulateBroadcast(b, neg.data(), n, d, kind);
        }
      },
      "sub");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (kind == BroadcastKind::kSame) {
    ParallelElems(n * d, [&](int64_t lo, int64_t hi) {
      simd::Sub(pa + lo, pb + lo, po + lo, hi - lo);
    });
  } else {
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < d; ++c) po[r * d + c] = pa[r * d + c] - pb[c];
    }
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  BroadcastKind kind = CheckBinaryShapes(a, b);
  int64_t n = a.rows(), d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, d, {a, b},
      [a, b, n, d, kind](Tensor& self) mutable {
        const float* dout = self.grad();
        const float* pa = a.data();
        const float* pb = b.data();
        if (a.requires_grad()) {
          float* ga = a.grad();
          if (kind == BroadcastKind::kSame) {
            ParallelElems(n * d, [&](int64_t lo, int64_t hi) {
              simd::AccumulateProduct(ga + lo, dout + lo, pb + lo, hi - lo);
            });
          } else {
            for (int64_t r = 0; r < n; ++r) {
              for (int64_t c = 0; c < d; ++c) {
                ga[r * d + c] += dout[r * d + c] * pb[c];
              }
            }
          }
        }
        if (b.requires_grad()) {
          // d(a*b)/db = a, so scale by a before (possibly) reducing rows.
          FloatBuffer scaled(static_cast<size_t>(n * d));
          ParallelElems(n * d, [&](int64_t lo, int64_t hi) {
            simd::Mul(dout + lo, pa + lo, scaled.data() + lo, hi - lo);
          });
          AccumulateBroadcast(b, scaled.data(), n, d, kind);
        }
      },
      "mul");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (kind == BroadcastKind::kSame) {
    ParallelElems(n * d, [&](int64_t lo, int64_t hi) {
      simd::Mul(pa + lo, pb + lo, po + lo, hi - lo);
    });
  } else {
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < d; ++c) po[r * d + c] = pa[r * d + c] * pb[c];
    }
  }
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CPDG_CHECK_EQ(a.rows(), b.rows());
  CPDG_CHECK_EQ(a.cols(), b.cols());
  int64_t n = a.size();
  Tensor out = Tensor::MakeOpResult(
      a.rows(), a.cols(), {a, b},
      [a, b, n](Tensor& self) mutable {
        const float* dout = self.grad();
        const float* pa = a.data();
        const float* pb = b.data();
        if (a.requires_grad()) {
          float* ga = a.grad();
          ParallelElems(n, [&](int64_t lo, int64_t hi) {
            simd::AccumulateQuotient(ga + lo, dout + lo, pb + lo, hi - lo);
          });
        }
        if (b.requires_grad()) {
          float* gb = b.grad();
          ParallelElems(n, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              gb[i] += -dout[i] * pa[i] / (pb[i] * pb[i]);
            }
          });
        }
      },
      "div");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelElems(n, [&](int64_t lo, int64_t hi) {
    simd::Div(pa + lo, pb + lo, po + lo, hi - lo);
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; },
      "add_scalar");
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; },
      "mul_scalar");
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CPDG_CHECK_EQ(a.cols(), b.rows());
  int64_t m = a.rows(), k = a.cols(), n = b.cols();
  CPDG_TRACE_SPAN("tensor/matmul_fwd");
  {
    static obs::Counter& calls =
        obs::MetricsRegistry::Global().counter("tensor.matmul.calls");
    static obs::Counter& flops =
        obs::MetricsRegistry::Global().counter("tensor.matmul.fwd_flops");
    calls.Add();
    flops.Add(2 * m * k * n);
  }
  // int8 serving path: inside inference mode, a product whose rhs is a
  // registered frozen weight runs the quantized kernel (quant.h). Gated on
  // inference mode because the quantized op records no usable backward.
  if (InferenceModeEnabled()) {
    if (const QuantizedMatrix* bq = ActiveQuantizedWeight(b.data())) {
      CPDG_CHECK_EQ(bq->rows, n);
      CPDG_CHECK_EQ(bq->cols, k);
      static obs::Counter& int8_calls =
          obs::MetricsRegistry::Global().counter("tensor.matmul.int8_calls");
      int8_calls.Add();
      Tensor out = Tensor::MakeOpResult(m, n, {a, b}, {}, "matmul_int8");
      QuantGemmTransposedB(a.data(), m, k, *bq, out.data());
      return out;
    }
  }
  Tensor out = Tensor::MakeOpResult(
      m, n, {a, b},
      [a, b, m, k, n](Tensor& self) mutable {
        CPDG_TRACE_SPAN("tensor/matmul_bwd");
        // Each backward product does the same 2*m*k*n multiply-adds as the
        // forward; counted separately so traces and bench GFLOPS agree.
        static obs::Counter& bwd_flops =
            obs::MetricsRegistry::Global().counter("tensor.matmul.bwd_flops");
        const float* dout = self.grad();
        if (a.requires_grad()) {
          // dA[m,k] += dOut[m,n] · Bᵀ[n,k]; Bᵀ is B with swapped strides.
          bwd_flops.Add(2 * m * k * n);
          GemmAccumulate({dout, m, n, n, 1}, {b.data(), n, k, 1, n},
                         a.grad());
        }
        if (b.requires_grad()) {
          // dB[k,n] += Aᵀ[k,m] · dOut[m,n].
          bwd_flops.Add(2 * m * k * n);
          GemmAccumulate({a.data(), k, m, 1, k}, {dout, m, n, n, 1},
                         b.grad());
        }
      },
      "matmul");
  // Out starts zeroed, so the accumulating GEMM computes A·B exactly.
  GemmAccumulate({a.data(), m, k, k, 1}, {b.data(), k, n, n, 1}, out.data());
  return out;
}

Tensor Transpose(const Tensor& a) {
  int64_t m = a.rows(), n = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, m, {a},
      [a, m, n](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) ga[i * n + j] += dout[j * m + i];
        }
      },
      "transpose");
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        // Numerically stable logistic.
        if (x >= 0.0f) {
          float z = std::exp(-x);
          return 1.0f / (1.0f + z);
        }
        float z = std::exp(x);
        return z / (1.0f + z);
      },
      [](float, float y) { return y * (1.0f - y); }, "sigmoid");
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; }, "tanh");
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }, "relu");
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; }, "exp");
}

Tensor Log(const Tensor& a, float eps) {
  return UnaryOp(
      a, [eps](float x) { return std::log(std::max(x, eps)); },
      [eps](float x, float) { return 1.0f / std::max(x, eps); }, "log");
}

Tensor Sqrt(const Tensor& a, float eps) {
  return UnaryOp(
      a, [eps](float x) { return std::sqrt(std::max(x, eps)); },
      [eps](float x, float y) {
        (void)x;
        return 0.5f / std::max(y, eps);
      },
      "sqrt");
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; }, "square");
}

Tensor Cos(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::cos(x); },
      [](float x, float) { return -std::sin(x); }, "cos");
}

Tensor Sin(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::sin(x); },
      [](float x, float) { return std::cos(x); }, "sin");
}

Tensor Sum(const Tensor& a) {
  int64_t n = a.size();
  Tensor out = Tensor::MakeOpResult(
      1, 1, {a},
      [a, n](Tensor& self) mutable {
        float g = self.grad()[0];
        float* ga = a.grad();
        for (int64_t i = 0; i < n; ++i) ga[i] += g;
      },
      "sum");
  const float* pa = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += pa[i];
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor Mean(const Tensor& a) {
  int64_t n = a.size();
  Tensor out = Tensor::MakeOpResult(
      1, 1, {a},
      [a, n](Tensor& self) mutable {
        float g = self.grad()[0] / static_cast<float>(n);
        float* ga = a.grad();
        for (int64_t i = 0; i < n; ++i) ga[i] += g;
      },
      "mean");
  const float* pa = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += pa[i];
  out.data()[0] = static_cast<float>(acc / static_cast<double>(n));
  return out;
}

Tensor RowSum(const Tensor& a) {
  int64_t n = a.rows(), d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, 1, {a},
      [a, n, d](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        ParallelRows(n, d, [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            for (int64_t c = 0; c < d; ++c) ga[r * d + c] += dout[r];
          }
        });
      },
      "row_sum");
  const float* pa = a.data();
  float* po = out.data();
  // Rows are independent reductions, so row-granular chunks keep the
  // per-row accumulation order fixed at any thread count.
  ParallelRows(n, d, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      double acc = 0.0;
      for (int64_t c = 0; c < d; ++c) acc += pa[r * d + c];
      po[r] = static_cast<float>(acc);
    }
  });
  return out;
}

Tensor ColMean(const Tensor& a) { return SegmentMean(a, {0, a.rows()}); }

Tensor SegmentMean(const Tensor& a, const std::vector<int64_t>& offsets) {
  CPDG_CHECK_GE(offsets.size(), 2u);
  CPDG_CHECK_EQ(offsets.front(), 0);
  CPDG_CHECK_EQ(offsets.back(), a.rows());
  for (size_t s = 1; s < offsets.size(); ++s) {
    CPDG_CHECK_LT(offsets[s - 1], offsets[s]) << "empty segment " << s - 1;
  }
  int64_t k = static_cast<int64_t>(offsets.size()) - 1, d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      k, d, {a},
      [a, bounds = IndexVec(offsets.begin(), offsets.end()), k,
       d](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        for (int64_t s = 0; s < k; ++s) {
          float inv = 1.0f / static_cast<float>(bounds[s + 1] - bounds[s]);
          for (int64_t r = bounds[s]; r < bounds[s + 1]; ++r) {
            for (int64_t c = 0; c < d; ++c) {
              ga[r * d + c] += dout[s * d + c] * inv;
            }
          }
        }
      },
      "segment_mean");
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t s = 0; s < k; ++s) {
    int64_t lo = offsets[s], hi = offsets[s + 1];
    for (int64_t c = 0; c < d; ++c) {
      double acc = 0.0;
      for (int64_t r = lo; r < hi; ++r) acc += pa[r * d + c];
      po[s * d + c] = static_cast<float>(acc / static_cast<double>(hi - lo));
    }
  }
  return out;
}

Tensor Concat(const Tensor& a, const Tensor& b) {
  CPDG_CHECK_EQ(a.rows(), b.rows());
  int64_t n = a.rows(), da = a.cols(), db = b.cols();
  Tensor out = Tensor::MakeOpResult(
      n, da + db, {a, b},
      [a, b, n, da, db](Tensor& self) mutable {
        const float* dout = self.grad();
        int64_t d = da + db;
        if (a.requires_grad()) {
          float* ga = a.grad();
          for (int64_t r = 0; r < n; ++r) {
            for (int64_t c = 0; c < da; ++c) ga[r * da + c] += dout[r * d + c];
          }
        }
        if (b.requires_grad()) {
          float* gb = b.grad();
          for (int64_t r = 0; r < n; ++r) {
            for (int64_t c = 0; c < db; ++c) {
              gb[r * db + c] += dout[r * d + da + c];
            }
          }
        }
      },
      "concat");
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t d = da + db;
  for (int64_t r = 0; r < n; ++r) {
    std::copy(pa + r * da, pa + (r + 1) * da, po + r * d);
    std::copy(pb + r * db, pb + (r + 1) * db, po + r * d + da);
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  CPDG_CHECK(!parts.empty());
  int64_t d = parts[0].cols();
  int64_t total = 0;
  for (const Tensor& p : parts) {
    CPDG_CHECK_EQ(p.cols(), d);
    total += p.rows();
  }
  TensorVector parents(parts.begin(), parts.end());
  Tensor out = Tensor::MakeOpResult(
      total, d, std::move(parents),
      [parts, d](Tensor& self) mutable {
        const float* dout = self.grad();
        int64_t offset = 0;
        for (Tensor& p : const_cast<std::vector<Tensor>&>(parts)) {
          int64_t rows = p.rows();
          if (p.requires_grad()) {
            float* gp = p.grad();
            for (int64_t i = 0; i < rows * d; ++i) {
              gp[i] += dout[offset * d + i];
            }
          }
          offset += rows;
        }
      },
      "concat_rows");
  float* po = out.data();
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.size(), po + offset);
    offset += p.size();
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  CPDG_CHECK_GE(start, 0);
  CPDG_CHECK_GT(len, 0);
  CPDG_CHECK_LE(start + len, a.rows());
  int64_t d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      len, d, {a},
      [a, start, len, d](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        for (int64_t i = 0; i < len * d; ++i) {
          ga[start * d + i] += dout[i];
        }
      },
      "slice_rows");
  std::copy(a.data() + start * d, a.data() + (start + len) * d, out.data());
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  CPDG_CHECK_GE(start, 0);
  CPDG_CHECK_GT(len, 0);
  CPDG_CHECK_LE(start + len, a.cols());
  int64_t n = a.rows(), d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, len, {a},
      [a, start, len, n, d](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        for (int64_t r = 0; r < n; ++r) {
          for (int64_t c = 0; c < len; ++c) {
            ga[r * d + start + c] += dout[r * len + c];
          }
        }
      },
      "slice_cols");
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t r = 0; r < n; ++r) {
    std::copy(pa + r * d + start, pa + r * d + start + len, po + r * len);
  }
  return out;
}

Tensor RepeatRows(const Tensor& a, int64_t n) {
  CPDG_CHECK_EQ(a.rows(), 1);
  CPDG_CHECK_GT(n, 0);
  int64_t d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, d, {a},
      [a, n, d](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        for (int64_t r = 0; r < n; ++r) {
          for (int64_t c = 0; c < d; ++c) ga[c] += dout[r * d + c];
        }
      },
      "repeat_rows");
  float* po = out.data();
  for (int64_t r = 0; r < n; ++r) {
    std::copy(a.data(), a.data() + d, po + r * d);
  }
  return out;
}

namespace {

Tensor GatherRefs(TensorVector tables, RefVec refs) {
  CPDG_CHECK(!tables.empty());
  CPDG_CHECK(!refs.empty());
  int64_t d = tables[0].cols();
  for (const Tensor& t : tables) CPDG_CHECK_EQ(t.cols(), d);
  for (const RowRef& ref : refs) {
    CPDG_CHECK_GE(ref.table, 0);
    CPDG_CHECK_LT(ref.table, static_cast<int64_t>(tables.size()));
    CPDG_CHECK_GE(ref.row, 0);
    CPDG_CHECK_LT(ref.row, tables[static_cast<size_t>(ref.table)].rows());
  }
  int64_t m = static_cast<int64_t>(refs.size());
  Tensor out = Tensor::MakeOpResult(
      m, d, tables,
      [tables, refs, d](Tensor& self) mutable {
        const float* dout = self.grad();
        std::vector<float*, ArenaAllocator<float*>> grads(tables.size());
        for (size_t t = 0; t < tables.size(); ++t) {
          if (tables[t].requires_grad()) grads[t] = tables[t].grad();
        }
        for (size_t i = 0; i < refs.size(); ++i) {
          float* gt = grads[static_cast<size_t>(refs[i].table)];
          if (gt == nullptr) continue;
          gt += refs[i].row * d;
          const float* g = dout + static_cast<int64_t>(i) * d;
          for (int64_t c = 0; c < d; ++c) gt[c] += g[c];
        }
      },
      "gather");
  float* po = out.data();
  for (size_t i = 0; i < refs.size(); ++i) {
    const float* row =
        tables[static_cast<size_t>(refs[i].table)].data() + refs[i].row * d;
    std::copy(row, row + d, po + static_cast<int64_t>(i) * d);
  }
  return out;
}

}  // namespace

Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices) {
  RefVec refs(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) refs[i].row = indices[i];
  return GatherRefs(TensorVector{table}, std::move(refs));
}

Tensor Gather(const std::vector<Tensor>& tables,
              const std::vector<RowRef>& refs) {
  return GatherRefs(TensorVector(tables.begin(), tables.end()),
                    RefVec(refs.begin(), refs.end()));
}

Tensor Softmax(const Tensor& a) {
  int64_t n = a.rows(), d = a.cols();
  Tensor out = Tensor::MakeOpResult(
      n, d, {a},
      [a, n, d](Tensor& self) mutable {
        const float* dout = self.grad();
        const float* y = self.data();
        float* ga = a.grad();
        ParallelRows(n, 2 * d, [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            // dL/dx_i = y_i * (dL/dy_i - sum_j y_j dL/dy_j)
            double dot = 0.0;
            for (int64_t c = 0; c < d; ++c) {
              dot += static_cast<double>(y[r * d + c]) * dout[r * d + c];
            }
            for (int64_t c = 0; c < d; ++c) {
              ga[r * d + c] += y[r * d + c] *
                               (dout[r * d + c] - static_cast<float>(dot));
            }
          }
        });
      },
      "softmax");
  const float* pa = a.data();
  float* po = out.data();
  ParallelRows(n, 3 * d, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float mx = pa[r * d];
      for (int64_t c = 1; c < d; ++c) mx = std::max(mx, pa[r * d + c]);
      double sum = 0.0;
      for (int64_t c = 0; c < d; ++c) {
        po[r * d + c] = std::exp(pa[r * d + c] - mx);
        sum += po[r * d + c];
      }
      float inv = static_cast<float>(1.0 / sum);
      for (int64_t c = 0; c < d; ++c) po[r * d + c] *= inv;
    }
  });
  return out;
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  int64_t n = a.rows(), d = a.cols();
  // Composition: x / max(||x||, eps), expressed with primitives so the
  // backward pass comes for free.
  Tensor sq = Square(a);
  Tensor norms = Sqrt(RowSum(sq), eps * eps);  // [n,1]
  // Broadcast divide by expanding norms to [n,d] via matmul with ones row.
  Tensor ones_row = Tensor::Ones(1, d);
  Tensor expanded = MatMul(norms, ones_row);  // [n,d]
  (void)n;
  return Div(a, expanded);
}

Tensor Dropout(const Tensor& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  CPDG_CHECK_LT(p, 1.0f);
  CPDG_CHECK(rng != nullptr);
  int64_t n = a.size();
  auto mask = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  float scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    (*mask)[i] = rng->NextBernoulli(p) ? 0.0f : scale;
  }
  Tensor out = Tensor::MakeOpResult(
      a.rows(), a.cols(), {a},
      [a, mask, n](Tensor& self) mutable {
        const float* dout = self.grad();
        float* ga = a.grad();
        for (int64_t i = 0; i < n; ++i) ga[i] += dout[i] * (*mask)[i];
      },
      "dropout");
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * (*mask)[i];
  return out;
}

Tensor GroupedAttention(const Tensor& queries, const Tensor& keys,
                        const Tensor& values, int64_t group,
                        const std::vector<uint8_t>& valid) {
  int64_t n = queries.rows();
  int64_t dq = queries.cols();
  int64_t dv = values.cols();
  CPDG_CHECK_GT(group, 0);
  CPDG_CHECK_EQ(keys.rows(), n * group);
  CPDG_CHECK_EQ(values.rows(), n * group);
  CPDG_CHECK_EQ(keys.cols(), dq);
  CPDG_CHECK_EQ(static_cast<int64_t>(valid.size()), n * group);

  // Attention weights are needed by the backward pass; share them between
  // the forward computation and the closure.
  auto alpha = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n * group), 0.0f);
  float scale = 1.0f / std::sqrt(static_cast<float>(dq));

  Tensor out = Tensor::MakeOpResult(
      n, dv, {queries, keys, values},
      [queries, keys, values, group, valid, alpha, n, dq, dv,
       scale](Tensor& self) mutable {
        const float* dout = self.grad();
        const float* q = queries.data();
        const float* k = keys.data();
        const float* v = values.data();
        float* gq = queries.requires_grad() ? queries.grad() : nullptr;
        float* gk = keys.requires_grad() ? keys.grad() : nullptr;
        float* gv = values.requires_grad() ? values.grad() : nullptr;
        std::vector<float> dalpha(static_cast<size_t>(group));
        std::vector<float> dscore(static_cast<size_t>(group));
        for (int64_t i = 0; i < n; ++i) {
          const float* dout_i = dout + i * dv;
          // dalpha_j = dout_i . v_ij ; dv_ij = alpha_j * dout_i
          double alpha_dot = 0.0;
          for (int64_t j = 0; j < group; ++j) {
            int64_t row = i * group + j;
            if (!valid[row]) {
              dalpha[j] = 0.0f;
              continue;
            }
            double dot = 0.0;
            const float* vrow = v + row * dv;
            for (int64_t c = 0; c < dv; ++c) dot += dout_i[c] * vrow[c];
            dalpha[j] = static_cast<float>(dot);
            alpha_dot += (*alpha)[row] * dot;
            if (gv != nullptr) {
              float a = (*alpha)[row];
              float* gvrow = gv + row * dv;
              for (int64_t c = 0; c < dv; ++c) gvrow[c] += a * dout_i[c];
            }
          }
          // Softmax backward: ds_j = alpha_j * (dalpha_j - sum_k alpha_k
          // dalpha_k)
          for (int64_t j = 0; j < group; ++j) {
            int64_t row = i * group + j;
            dscore[j] = valid[row]
                            ? (*alpha)[row] *
                                  (dalpha[j] - static_cast<float>(alpha_dot))
                            : 0.0f;
          }
          for (int64_t j = 0; j < group; ++j) {
            int64_t row = i * group + j;
            if (!valid[row] || dscore[j] == 0.0f) continue;
            float ds = dscore[j] * scale;
            const float* krow = k + row * dq;
            const float* qrow = q + i * dq;
            if (gq != nullptr) {
              float* gqrow = gq + i * dq;
              for (int64_t c = 0; c < dq; ++c) gqrow[c] += ds * krow[c];
            }
            if (gk != nullptr) {
              float* gkrow = gk + row * dq;
              for (int64_t c = 0; c < dq; ++c) gkrow[c] += ds * qrow[c];
            }
          }
        }
      },
      "grouped_attention");

  const float* q = queries.data();
  const float* k = keys.data();
  const float* v = values.data();
  float* po = out.data();
  std::vector<float> scores(static_cast<size_t>(group));
  for (int64_t i = 0; i < n; ++i) {
    const float* qrow = q + i * dq;
    bool any = false;
    float mx = -1e30f;
    for (int64_t j = 0; j < group; ++j) {
      int64_t row = i * group + j;
      if (!valid[row]) continue;
      any = true;
      double dot = 0.0;
      const float* krow = k + row * dq;
      for (int64_t c = 0; c < dq; ++c) dot += qrow[c] * krow[c];
      scores[j] = static_cast<float>(dot) * scale;
      mx = std::max(mx, scores[j]);
    }
    if (!any) continue;  // Output stays zero; no gradients flow.
    double sum = 0.0;
    for (int64_t j = 0; j < group; ++j) {
      int64_t row = i * group + j;
      if (!valid[row]) continue;
      float e = std::exp(scores[j] - mx);
      (*alpha)[row] = e;
      sum += e;
    }
    float inv = static_cast<float>(1.0 / sum);
    float* orow = po + i * dv;
    for (int64_t j = 0; j < group; ++j) {
      int64_t row = i * group + j;
      if (!valid[row]) continue;
      (*alpha)[row] *= inv;
      float a = (*alpha)[row];
      const float* vrow = v + row * dv;
      for (int64_t c = 0; c < dv; ++c) orow[c] += a * vrow[c];
    }
  }
  return out;
}

Tensor GroupedMean(const Tensor& values, int64_t group,
                   const std::vector<uint8_t>& valid) {
  CPDG_CHECK_GT(group, 0);
  CPDG_CHECK_EQ(values.rows() % group, 0);
  int64_t n = values.rows() / group;
  int64_t d = values.cols();
  CPDG_CHECK_EQ(static_cast<int64_t>(valid.size()), values.rows());

  auto inv_counts =
      std::make_shared<std::vector<float>>(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    int64_t cnt = 0;
    for (int64_t j = 0; j < group; ++j) cnt += valid[i * group + j];
    (*inv_counts)[static_cast<size_t>(i)] =
        cnt > 0 ? 1.0f / static_cast<float>(cnt) : 0.0f;
  }

  Tensor out = Tensor::MakeOpResult(
      n, d, {values},
      [values, group, valid, inv_counts, n, d](Tensor& self) mutable {
        const float* dout = self.grad();
        float* gv = values.grad();
        for (int64_t i = 0; i < n; ++i) {
          float inv = (*inv_counts)[static_cast<size_t>(i)];
          if (inv == 0.0f) continue;
          for (int64_t j = 0; j < group; ++j) {
            int64_t row = i * group + j;
            if (!valid[row]) continue;
            for (int64_t c = 0; c < d; ++c) {
              gv[row * d + c] += dout[i * d + c] * inv;
            }
          }
        }
      },
      "grouped_mean");

  const float* pv = values.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    float inv = (*inv_counts)[static_cast<size_t>(i)];
    if (inv == 0.0f) continue;
    for (int64_t j = 0; j < group; ++j) {
      int64_t row = i * group + j;
      if (!valid[row]) continue;
      for (int64_t c = 0; c < d; ++c) po[i * d + c] += pv[row * d + c] * inv;
    }
  }
  return out;
}

}  // namespace cpdg::tensor
