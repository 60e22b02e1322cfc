#ifndef CPDG_TRAIN_LINK_BATCH_H_
#define CPDG_TRAIN_LINK_BATCH_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace cpdg::train {

/// \brief One temporal-link-prediction batch: the event endpoints, one
/// sampled negative destination per event, and the event times. Every
/// TLP-style loop (CPDG pretext, fine-tuning, supervised TGN-family
/// training) assembles exactly this from an event batch.
struct LinkBatch {
  std::vector<graph::NodeId> srcs;
  std::vector<graph::NodeId> dsts;
  std::vector<graph::NodeId> negs;
  std::vector<double> times;

  int64_t size() const { return static_cast<int64_t>(srcs.size()); }
};

/// \brief Builds a LinkBatch from `events`, drawing one negative per event
/// via dgnn::SampleNegative (uniform over `negative_pool`, or over all
/// `num_nodes` when the pool is empty).
LinkBatch AssembleLinkBatch(const std::vector<graph::Event>& events,
                            const std::vector<graph::NodeId>& negative_pool,
                            int64_t num_nodes, Rng* rng);

/// \brief Embeds (node, time) queries as [n, d] rows.
using EmbedFn = std::function<tensor::Tensor(
    const std::vector<graph::NodeId>& nodes, const std::vector<double>& times)>;

/// \brief One embedding pass for several node lists that share `times`:
/// calls `embed` once on the lists stacked in order and returns one
/// [times.size(), d] row slice per list. With a row-independent `embed`
/// (every DGNN encoder, see DESIGN.md §5) each slice is bitwise the result
/// of a separate call on its list.
std::vector<tensor::Tensor> EmbedStacked(
    const EmbedFn& embed,
    std::initializer_list<
        std::reference_wrapper<const std::vector<graph::NodeId>>>
        parts,
    const std::vector<double>& times);

/// \brief BCE-with-logits over vertically stacked logits whose first
/// `num_positive` rows are positive examples (target 1) and the remaining
/// rows negatives (target 0).
tensor::Tensor StackedBceLoss(const tensor::Tensor& logits,
                              int64_t num_positive);

/// \brief The common pos/neg special case: stacks `pos_logits` over
/// `neg_logits` and applies BCE with [1...1, 0...0] targets (Eq. 16).
tensor::Tensor LinkBceLoss(const tensor::Tensor& pos_logits,
                           const tensor::Tensor& neg_logits);

}  // namespace cpdg::train

#endif  // CPDG_TRAIN_LINK_BATCH_H_
