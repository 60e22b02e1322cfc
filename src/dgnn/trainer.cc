#include "dgnn/trainer.h"

#include "train/link_batch.h"
#include "train/train_loop.h"
#include "util/check.h"

namespace cpdg::dgnn {

namespace ts = cpdg::tensor;

NodeId SampleNegative(const std::vector<NodeId>& pool, int64_t num_nodes,
                      NodeId positive, Rng* rng) {
  CPDG_CHECK(rng != nullptr);
  for (int attempt = 0; attempt < 8; ++attempt) {
    NodeId cand;
    if (pool.empty()) {
      cand = static_cast<NodeId>(
          rng->NextBounded(static_cast<uint64_t>(num_nodes)));
    } else {
      cand = pool[rng->NextBounded(pool.size())];
    }
    if (cand != positive) return cand;
  }
  return positive;  // degenerate pool; accept the collision
}

TrainLog TrainLinkPrediction(DgnnEncoder* encoder, LinkPredictor* decoder,
                             const graph::GraphStore& graph,
                             const TlpTrainOptions& options, Rng* rng,
                             train::TrainTelemetry* telemetry) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(decoder != nullptr);
  CPDG_CHECK(rng != nullptr);

  std::vector<ts::Tensor> params = decoder->Parameters();
  if (options.train_encoder) {
    std::vector<ts::Tensor> enc = encoder->Parameters();
    params.insert(params.end(), enc.begin(), enc.end());
  }

  train::TrainLoopOptions loop_options;
  loop_options.epochs = options.epochs;
  loop_options.learning_rate = options.learning_rate;
  loop_options.grad_clip = options.grad_clip;
  loop_options.log_label = "TLP";
  // Negative draws come from per-(epoch, batch) streams, so each batch's
  // content depends only on its position.
  loop_options.prepare_stream_seed = rng->NextUint64();
  train::TrainLoop loop(std::move(params), loop_options);

  train::TrainTelemetry result = loop.RunChronological(
      encoder, graph, options.batch_size,
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          Rng* batch_rng) -> std::any {
        return train::AssembleLinkBatch(batch.events, options.negative_pool,
                                        graph.num_nodes(), batch_rng);
      },
      [&](const train::BatchContext&, const graph::EventBatch&,
          std::any& prepared) -> std::optional<ts::Tensor> {
        const train::LinkBatch& lb =
            *std::any_cast<train::LinkBatch>(&prepared);
        std::vector<ts::Tensor> z = train::EmbedStacked(
            [encoder](const std::vector<NodeId>& nodes,
                      const std::vector<double>& times) {
              return encoder->ComputeEmbeddings(nodes, times);
            },
            {lb.srcs, lb.dsts, lb.negs}, lb.times);
        ts::Tensor pos_logits = decoder->ForwardLogits(z[0], z[1]);
        ts::Tensor neg_logits = decoder->ForwardLogits(z[0], z[2]);
        return train::LinkBceLoss(pos_logits, neg_logits);
      });
  if (telemetry != nullptr) *telemetry = result;
  return result;
}

}  // namespace cpdg::dgnn
