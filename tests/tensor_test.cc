#include "tensor/tensor.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/losses.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace cpdg::tensor {
namespace {

using cpdg::testing::ExpectGradientsMatch;

Tensor MakeRandom(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomUniform(r, c, 1.0f, &rng, /*requires_grad=*/true);
}

TEST(TensorTest, FactoryShapesAndValues) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.size(), 6);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(z.at(i, j), 0.0f);
  }
  Tensor o = Tensor::Ones(1, 4);
  EXPECT_EQ(o.at(0, 3), 1.0f);
  Tensor f = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
}

TEST(TensorTest, FromVectorRoundTrip) {
  Tensor t = Tensor::FromVector(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, XavierRange) {
  Rng rng(7);
  Tensor t = Tensor::XavierUniform(10, 20, &rng);
  float limit = std::sqrt(6.0f / 30.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i]), limit);
  }
}

TEST(TensorTest, DetachCutsGraph) {
  Tensor a = MakeRandom(2, 2, 1);
  Tensor b = Sigmoid(a);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at(0, 0), b.at(0, 0));
  // Mutating the detached copy must not affect the original.
  d.set(0, 0, 42.0f);
  EXPECT_NE(b.at(0, 0), 42.0f);
}

TEST(TensorTest, CopyDataFrom) {
  Tensor a = Tensor::Zeros(2, 2);
  Tensor b = Tensor::Full(2, 2, 5.0f);
  a.CopyDataFrom(b);
  EXPECT_EQ(a.at(1, 1), 5.0f);
}

TEST(TensorTest, BackwardSimpleChain) {
  // y = sum(3 * x) => dy/dx = 3.
  Tensor x = Tensor::Full(2, 2, 1.0f, true);
  Tensor y = Sum(MulScalar(x, 3.0f));
  y.Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 3.0f);
}

TEST(TensorTest, BackwardAccumulatesOverUses) {
  // y = sum(x + x) => dy/dx = 2.
  Tensor x = Tensor::Full(1, 3, 1.0f, true);
  Tensor y = Sum(Add(x, x));
  y.Backward();
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 2.0f);
}

TEST(TensorTest, BackwardDiamondGraph) {
  // z = sum(a*b + a) with shared a: checks topological ordering.
  Tensor a = Tensor::Full(1, 2, 2.0f, true);
  Tensor b = Tensor::Full(1, 2, 3.0f, true);
  Tensor z = Sum(Add(Mul(a, b), a));
  z.Backward();
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_FLOAT_EQ(a.grad()[i], 4.0f);  // b + 1
    EXPECT_FLOAT_EQ(b.grad()[i], 2.0f);  // a
  }
}

TEST(TensorTest, NoLeakAfterBackward) {
  int64_t before = LiveTensorCount();
  {
    Tensor x = MakeRandom(4, 4, 3);
    Tensor loss = Mean(Square(Sigmoid(MatMul(x, Transpose(x)))));
    loss.Backward();
  }
  EXPECT_EQ(LiveTensorCount(), before);
}

// ---------- Forward-value checks ----------

TEST(OpsTest, MatMulValues) {
  Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, BroadcastAddRow) {
  Tensor a = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(1, 2, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = MakeRandom(5, 7, 11);
  Tensor s = Softmax(a);
  for (int64_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(s.at(r, c), 0.0f);
      sum += s.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, ReductionValues) {
  Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
  Tensor rs = RowSum(a);
  EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);
  Tensor cm = ColMean(a);
  EXPECT_FLOAT_EQ(cm.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(cm.at(0, 2), 4.5f);
}

TEST(OpsTest, ConcatAndSlice) {
  Tensor a = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(2, 1, {5, 6});
  Tensor c = Concat(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.at(0, 2), 5.0f);
  Tensor s = SliceCols(c, 1, 2);
  EXPECT_FLOAT_EQ(s.at(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), 6.0f);
  Tensor r = SliceRows(c, 1, 1);
  EXPECT_EQ(r.rows(), 1);
  EXPECT_FLOAT_EQ(r.at(0, 0), 3.0f);
}

TEST(OpsTest, ConcatRowsStacksInOrder) {
  Tensor a = Tensor::FromVector(1, 2, {1, 2});
  Tensor b = Tensor::FromVector(2, 2, {3, 4, 5, 6});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.rows(), 3);
  EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
}

TEST(OpsTest, GatherPicksRows) {
  Tensor t = Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = Gather(t, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.0f);
}

TEST(OpsTest, RepeatRows) {
  Tensor a = Tensor::FromVector(1, 2, {1, 2});
  Tensor r = RepeatRows(a, 3);
  EXPECT_EQ(r.rows(), 3);
  EXPECT_FLOAT_EQ(r.at(2, 1), 2.0f);
}

TEST(OpsTest, L2NormalizeRows) {
  Tensor a = Tensor::FromVector(1, 2, {3, 4});
  Tensor n = L2NormalizeRows(a);
  EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-5f);
}

TEST(OpsTest, GroupedMeanMasksPadding) {
  // Two groups of 2; second entry of group 1 invalid.
  Tensor v = Tensor::FromVector(4, 2, {1, 2, 3, 4, 10, 20, 99, 99});
  std::vector<uint8_t> valid = {1, 1, 1, 0};
  Tensor m = GroupedMean(v, 2, valid);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 10.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 20.0f);
}

TEST(OpsTest, GroupedMeanEmptyGroupYieldsZero) {
  Tensor v = Tensor::FromVector(2, 1, {5, 7});
  std::vector<uint8_t> valid = {0, 0};
  Tensor m = GroupedMean(v, 2, valid);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(OpsTest, GroupedAttentionUniformWhenKeysEqual) {
  // Equal keys => uniform attention => output is the mean of values.
  Tensor q = Tensor::FromVector(1, 2, {1, 0});
  Tensor k = Tensor::FromVector(2, 2, {1, 1, 1, 1});
  Tensor v = Tensor::FromVector(2, 2, {0, 2, 4, 6});
  std::vector<uint8_t> valid = {1, 1};
  Tensor out = GroupedAttention(q, k, v, 2, valid);
  EXPECT_NEAR(out.at(0, 0), 2.0f, 1e-5f);
  EXPECT_NEAR(out.at(0, 1), 4.0f, 1e-5f);
}

TEST(OpsTest, GroupedAttentionMasksInvalid) {
  Tensor q = Tensor::FromVector(1, 2, {1, 0});
  Tensor k = Tensor::FromVector(2, 2, {1, 1, 9, 9});
  Tensor v = Tensor::FromVector(2, 2, {1, 2, 100, 100});
  std::vector<uint8_t> valid = {1, 0};
  Tensor out = GroupedAttention(q, k, v, 2, valid);
  EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(out.at(0, 1), 2.0f, 1e-5f);
}

TEST(OpsTest, GroupedAttentionAllInvalidYieldsZeros) {
  Tensor q = Tensor::FromVector(1, 2, {1, 0});
  Tensor k = Tensor::FromVector(2, 2, {1, 1, 1, 1});
  Tensor v = Tensor::FromVector(2, 2, {5, 5, 5, 5});
  std::vector<uint8_t> valid = {0, 0};
  Tensor out = GroupedAttention(q, k, v, 2, valid);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
}

// ---------- Gradient checks ----------

TEST(GradTest, ElementwiseBinaryOps) {
  ExpectGradientsMatch(
      {MakeRandom(3, 4, 21), MakeRandom(3, 4, 22)},
      [](std::vector<Tensor>& in) { return Sum(Mul(in[0], in[1])); });
  ExpectGradientsMatch(
      {MakeRandom(3, 4, 23), MakeRandom(3, 4, 24)},
      [](std::vector<Tensor>& in) { return Sum(Sub(in[0], in[1])); });
  Rng rng(25);
  Tensor denom = Tensor::RandomUniform(3, 4, 0.5f, &rng, true);
  // Shift away from zero for a stable division.
  for (int64_t i = 0; i < denom.size(); ++i) denom.data()[i] += 2.0f;
  ExpectGradientsMatch(
      {MakeRandom(3, 4, 26), denom},
      [](std::vector<Tensor>& in) { return Sum(Div(in[0], in[1])); });
}

TEST(GradTest, BroadcastOps) {
  ExpectGradientsMatch(
      {MakeRandom(4, 3, 31), MakeRandom(1, 3, 32)},
      [](std::vector<Tensor>& in) {
        return Mean(Square(Add(in[0], in[1])));
      });
  ExpectGradientsMatch(
      {MakeRandom(4, 3, 33), MakeRandom(1, 3, 34)},
      [](std::vector<Tensor>& in) {
        return Mean(Square(Mul(in[0], in[1])));
      });
}

TEST(GradTest, MatMulAndTranspose) {
  ExpectGradientsMatch(
      {MakeRandom(3, 4, 41), MakeRandom(4, 2, 42)},
      [](std::vector<Tensor>& in) {
        return Mean(Square(MatMul(in[0], in[1])));
      });
  ExpectGradientsMatch({MakeRandom(3, 4, 43)},
                       [](std::vector<Tensor>& in) {
                         return Sum(Transpose(in[0]));
                       });
}

TEST(GradTest, UnaryOps) {
  ExpectGradientsMatch({MakeRandom(2, 5, 51)}, [](std::vector<Tensor>& in) {
    return Mean(Sigmoid(in[0]));
  });
  ExpectGradientsMatch({MakeRandom(2, 5, 52)}, [](std::vector<Tensor>& in) {
    return Mean(Tanh(in[0]));
  });
  ExpectGradientsMatch({MakeRandom(2, 5, 54)}, [](std::vector<Tensor>& in) {
    return Mean(Exp(in[0]));
  });
  ExpectGradientsMatch({MakeRandom(2, 5, 55)}, [](std::vector<Tensor>& in) {
    return Mean(Cos(in[0]));
  });
  ExpectGradientsMatch({MakeRandom(2, 5, 56)}, [](std::vector<Tensor>& in) {
    return Mean(Sin(in[0]));
  });
  ExpectGradientsMatch({MakeRandom(2, 5, 57)}, [](std::vector<Tensor>& in) {
    return Mean(Square(in[0]));
  });
}

TEST(GradTest, SoftmaxAndReductions) {
  ExpectGradientsMatch({MakeRandom(3, 5, 61)}, [](std::vector<Tensor>& in) {
    return Mean(Square(Softmax(in[0])));
  });
  ExpectGradientsMatch({MakeRandom(3, 5, 62)}, [](std::vector<Tensor>& in) {
    return Mean(Square(RowSum(in[0])));
  });
  ExpectGradientsMatch({MakeRandom(3, 5, 63)}, [](std::vector<Tensor>& in) {
    return Mean(Square(ColMean(in[0])));
  });
}

TEST(GradTest, ShapeOps) {
  ExpectGradientsMatch(
      {MakeRandom(3, 2, 71), MakeRandom(3, 3, 72)},
      [](std::vector<Tensor>& in) {
        return Mean(Square(Concat(in[0], in[1])));
      });
  ExpectGradientsMatch(
      {MakeRandom(2, 3, 73), MakeRandom(1, 3, 74)},
      [](std::vector<Tensor>& in) {
        return Mean(Square(ConcatRows({in[0], in[1]})));
      });
  ExpectGradientsMatch({MakeRandom(4, 3, 75)}, [](std::vector<Tensor>& in) {
    return Mean(Square(SliceRows(in[0], 1, 2)));
  });
  ExpectGradientsMatch({MakeRandom(4, 3, 76)}, [](std::vector<Tensor>& in) {
    return Mean(Square(SliceCols(in[0], 1, 2)));
  });
  ExpectGradientsMatch({MakeRandom(1, 3, 77)}, [](std::vector<Tensor>& in) {
    return Mean(Square(RepeatRows(in[0], 4)));
  });
}

TEST(GradTest, GatherScattersIntoTable) {
  ExpectGradientsMatch({MakeRandom(5, 3, 81)}, [](std::vector<Tensor>& in) {
    return Mean(Square(Gather(in[0], {0, 2, 2, 4})));
  });
}

TEST(GradTest, SegmentMean) {
  ExpectGradientsMatch({MakeRandom(7, 3, 83)}, [](std::vector<Tensor>& in) {
    return Mean(Square(SegmentMean(in[0], {0, 2, 3, 7})));
  });
}

TEST(GradTest, MultiTableGatherWithDuplicates) {
  ExpectGradientsMatch(
      {MakeRandom(3, 2, 85), MakeRandom(4, 2, 86)},
      [](std::vector<Tensor>& in) {
        std::vector<RowRef> refs = {{1, 0}, {0, 2}, {1, 0}, {0, 0}, {1, 3}};
        return Mean(Square(Gather({in[0], in[1]}, refs)));
      });
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

bool SameGradBits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.grad(), b.grad(), sizeof(float) * a.size()) == 0;
}

// Weighted sum of `t` against a fixed non-trivial weight, so every output
// element carries a distinct upstream gradient.
Tensor WeightedSum(const Tensor& t) {
  Rng rng(7);
  return Sum(Mul(t, Tensor::RandomUniform(t.rows(), t.cols(), 3.0f, &rng)));
}

TEST(OpsTest, SegmentMeanMatchesSlicedColMeanBitwise) {
  std::vector<int64_t> offsets = {0, 1, 4, 9, 16};
  Tensor x = MakeRandom(16, 5, 87);
  Tensor y = MakeRandom(16, 5, 87);
  Tensor fused = SegmentMean(x, offsets);
  std::vector<Tensor> pooled;
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    pooled.push_back(
        ColMean(SliceRows(y, offsets[s], offsets[s + 1] - offsets[s])));
  }
  Tensor reference = ConcatRows(pooled);
  EXPECT_TRUE(SameBits(fused, reference));
  WeightedSum(fused).Backward();
  WeightedSum(reference).Backward();
  EXPECT_TRUE(SameGradBits(x, y));
}

TEST(OpsTest, MultiTableGatherMatchesConcatOfSlicesBitwise) {
  std::vector<Tensor> a = {MakeRandom(3, 4, 88), MakeRandom(5, 4, 89)};
  std::vector<Tensor> b = {MakeRandom(3, 4, 88), MakeRandom(5, 4, 89)};
  std::vector<RowRef> refs = {{1, 4}, {0, 1}, {1, 4}, {1, 0}, {0, 1}, {0, 2}};
  Tensor fused = Gather(a, refs);
  // The reference slices each distinct row once and reuses the slice for
  // duplicates, as a per-row cache would.
  std::vector<std::vector<Tensor>> slices(b.size());
  std::vector<Tensor> rows;
  for (const RowRef& ref : refs) {
    std::vector<Tensor>& cache = slices[static_cast<size_t>(ref.table)];
    cache.resize(static_cast<size_t>(b[ref.table].rows()));
    Tensor& slice = cache[static_cast<size_t>(ref.row)];
    if (!slice.defined()) slice = SliceRows(b[ref.table], ref.row, 1);
    rows.push_back(slice);
  }
  Tensor reference = ConcatRows(rows);
  EXPECT_TRUE(SameBits(fused, reference));
  WeightedSum(fused).Backward();
  WeightedSum(reference).Backward();
  EXPECT_TRUE(SameGradBits(a[0], b[0]));
  EXPECT_TRUE(SameGradBits(a[1], b[1]));
}

TEST(GradTest, GroupedAttention) {
  ExpectGradientsMatch(
      {MakeRandom(2, 3, 91), MakeRandom(6, 3, 92), MakeRandom(6, 4, 93)},
      [](std::vector<Tensor>& in) {
        std::vector<uint8_t> valid = {1, 1, 0, 1, 1, 1};
        return Mean(Square(GroupedAttention(in[0], in[1], in[2], 3, valid)));
      });
}

TEST(GradTest, GroupedMean) {
  ExpectGradientsMatch({MakeRandom(6, 3, 95)}, [](std::vector<Tensor>& in) {
    std::vector<uint8_t> valid = {1, 0, 1, 1, 1, 0};
    return Mean(Square(GroupedMean(in[0], 3, valid)));
  });
}

TEST(GradTest, Losses) {
  Rng rng(101);
  Tensor targets = Tensor::FromVector(4, 1, {1, 0, 1, 0});
  ExpectGradientsMatch({MakeRandom(4, 1, 102)},
                       [targets](std::vector<Tensor>& in) {
                         return BceWithLogitsLoss(in[0], targets);
                       });
  ExpectGradientsMatch(
      {MakeRandom(3, 4, 103), MakeRandom(3, 4, 104), MakeRandom(3, 4, 105)},
      [](std::vector<Tensor>& in) {
        return TripletMarginLoss(in[0], in[1], in[2], 0.5f);
      });
  ExpectGradientsMatch(
      {MakeRandom(3, 4, 106), MakeRandom(3, 4, 107)},
      [](std::vector<Tensor>& in) { return MseLoss(in[0], in[1]); });
}

TEST(GradTest, L2NormalizeRows) {
  ExpectGradientsMatch({MakeRandom(3, 4, 111)},
                       [](std::vector<Tensor>& in) {
                         return Mean(Square(L2NormalizeRows(in[0])));
                       });
}

}  // namespace
}  // namespace cpdg::tensor
