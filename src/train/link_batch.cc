#include "train/link_batch.h"

#include <algorithm>

#include "dgnn/trainer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/losses.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace cpdg::train {

namespace ts = cpdg::tensor;

LinkBatch AssembleLinkBatch(const std::vector<graph::Event>& events,
                            const std::vector<graph::NodeId>& negative_pool,
                            int64_t num_nodes, Rng* rng) {
  CPDG_CHECK(rng != nullptr);
  CPDG_TRACE_SPAN("train/batch_assembly");
  static obs::Counter& assembled =
      obs::MetricsRegistry::Global().counter("train.batch_assembly.events");
  assembled.Add(static_cast<int64_t>(events.size()));
  LinkBatch out;
  out.srcs.reserve(events.size());
  out.dsts.reserve(events.size());
  out.negs.reserve(events.size());
  out.times.reserve(events.size());
  for (const graph::Event& e : events) {
    out.srcs.push_back(e.src);
    out.dsts.push_back(e.dst);
    out.negs.push_back(
        dgnn::SampleNegative(negative_pool, num_nodes, e.dst, rng));
    out.times.push_back(e.time);
  }
  return out;
}

std::vector<tensor::Tensor> EmbedStacked(
    const EmbedFn& embed,
    std::initializer_list<
        std::reference_wrapper<const std::vector<graph::NodeId>>>
        parts,
    const std::vector<double>& times) {
  int64_t n = static_cast<int64_t>(times.size());
  std::vector<graph::NodeId> nodes;
  std::vector<double> stacked_times;
  nodes.reserve(parts.size() * times.size());
  stacked_times.reserve(parts.size() * times.size());
  for (const std::vector<graph::NodeId>& part : parts) {
    CPDG_CHECK_EQ(static_cast<int64_t>(part.size()), n);
    nodes.insert(nodes.end(), part.begin(), part.end());
    stacked_times.insert(stacked_times.end(), times.begin(), times.end());
  }
  ts::Tensor z = embed(nodes, stacked_times);
  std::vector<ts::Tensor> slices;
  slices.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    slices.push_back(ts::SliceRows(z, static_cast<int64_t>(i) * n, n));
  }
  return slices;
}

tensor::Tensor StackedBceLoss(const tensor::Tensor& logits,
                              int64_t num_positive) {
  int64_t n = logits.rows();
  CPDG_CHECK_GE(num_positive, 0);
  CPDG_CHECK_LE(num_positive, n);
  std::vector<float> target_data(static_cast<size_t>(n), 0.0f);
  std::fill(target_data.begin(), target_data.begin() + num_positive, 1.0f);
  ts::Tensor targets = ts::Tensor::FromVector(n, 1, std::move(target_data));
  return ts::BceWithLogitsLoss(logits, targets);
}

tensor::Tensor LinkBceLoss(const tensor::Tensor& pos_logits,
                           const tensor::Tensor& neg_logits) {
  ts::Tensor logits = ts::ConcatRows({pos_logits, neg_logits});
  return StackedBceLoss(logits, pos_logits.rows());
}

}  // namespace cpdg::train
