#ifndef CPDG_TENSOR_OPS_H_
#define CPDG_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace cpdg::tensor {

/// \file Differentiable operations on 2-D tensors.
///
/// All operations record themselves on the computation graph when any input
/// requires gradients. Shapes follow the conventions:
///  - binary elementwise ops accept equal shapes, or a [1, cols] second
///    operand broadcast across rows (the bias pattern);
///  - reductions produce [1, 1] (Sum/Mean), [n, 1] (RowSum) or [1, d]
///    (ColMean).

/// \name Elementwise binary ops
/// @{
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise division; requires equal shapes.
Tensor Div(const Tensor& a, const Tensor& b);
/// @}

/// \name Scalar ops
/// @{
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);
/// @}

/// \name Matrix ops
/// @{
/// [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor Transpose(const Tensor& a);
/// @}

/// \name Elementwise unary ops
/// @{
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log of max(a, eps) for numerical safety.
Tensor Log(const Tensor& a, float eps = 1e-12f);
Tensor Sqrt(const Tensor& a, float eps = 1e-12f);
Tensor Square(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Sin(const Tensor& a);
/// @}

/// \name Reductions
/// @{
/// Sum of all elements -> [1,1].
Tensor Sum(const Tensor& a);
/// Mean of all elements -> [1,1].
Tensor Mean(const Tensor& a);
/// Per-row sum: [n,d] -> [n,1].
Tensor RowSum(const Tensor& a);
/// Per-column mean: [n,d] -> [1,d].
Tensor ColMean(const Tensor& a);
/// Per-segment column mean: segment s covers rows [offsets[s],
/// offsets[s+1]) of `a`, so `offsets` holds k+1 strictly increasing
/// boundaries from 0 to a.rows() and the result is [k,d]. Each row of the
/// result equals ColMean of its segment bitwise, forward and backward.
/// This is the mean-pooling readout used for subgraph embeddings (Eq.
/// 9-10, 12-13 of the paper), one node for the whole batch of subgraphs.
Tensor SegmentMean(const Tensor& a, const std::vector<int64_t>& offsets);
/// @}

/// \name Shape ops
/// @{
/// Horizontal concat: [n,d1] ++ [n,d2] -> [n,d1+d2].
Tensor Concat(const Tensor& a, const Tensor& b);
/// Vertical concat of any number of same-width tensors.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Rows [start, start+len) of a.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);
/// Columns [start, start+len) of a.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);
/// Broadcasts a [1,d] row to [n,d].
Tensor RepeatRows(const Tensor& a, int64_t n);
/// @}

/// \name Indexed ops
/// @{
/// Row lookup: table [n,d], indices (each in [0,n)) -> [m,d]. The backward
/// pass scatter-adds into the table gradient, so this doubles as an
/// embedding layer.
Tensor Gather(const Tensor& table, const std::vector<int64_t>& indices);
/// One row of one table in a multi-table Gather.
struct RowRef {
  int64_t table = 0;
  int64_t row = 0;
};
/// Row lookup over several same-width tables: row i of the result is row
/// refs[i].row of tables[refs[i].table]. The backward pass scatter-adds
/// into every table that requires gradients, in row order.
Tensor Gather(const std::vector<Tensor>& tables,
              const std::vector<RowRef>& refs);
/// @}

/// \name Normalization / regularization
/// @{
/// Softmax over each row.
Tensor Softmax(const Tensor& a);
/// Per-row L2 normalization: x / max(||x||, eps).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);
/// Inverted dropout; identity when !training or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng* rng, bool training);
/// @}

/// \brief Fused grouped attention kernel.
///
/// For each of n query rows, attends over its `group` candidate rows in
/// `keys`/`values` (laid out contiguously: candidate j of query i is row
/// i*group + j). `valid[i*group+j]` masks padding entries. Scores are
/// scaled dot products; invalid entries get -inf before the softmax.
/// Queries with no valid candidates produce zero rows (and no gradients).
///
/// This is the kernel behind the temporal graph attention embedding module
/// (TGAT/TGN-style aggregation over sampled temporal neighbors) and the
/// EIE-attn fusion; it avoids introducing 3-D tensors into the engine.
Tensor GroupedAttention(const Tensor& queries, const Tensor& keys,
                        const Tensor& values, int64_t group,
                        const std::vector<uint8_t>& valid);

/// \brief Fused masked mean over fixed-size groups: `values` is
/// [n*group, d] with candidate j of group i at row i*group+j; returns the
/// [n, d] mean over each group's valid rows (zero row when none are
/// valid). The workhorse of mean-aggregating GNN layers (GraphSAGE, GIN)
/// and subgraph readouts.
Tensor GroupedMean(const Tensor& values, int64_t group,
                   const std::vector<uint8_t>& valid);

}  // namespace cpdg::tensor

#endif  // CPDG_TENSOR_OPS_H_
