#include "core/finetuner.h"

#include "tensor/ops.h"
#include "train/link_batch.h"
#include "train/train_loop.h"
#include "util/check.h"

namespace cpdg::core {

namespace ts = cpdg::tensor;
using graph::NodeId;

FineTunedModel::FineTunedModel(std::unique_ptr<dgnn::LinkPredictor> decoder,
                               std::unique_ptr<EvolutionFusion> fusion,
                               const EvolutionCheckpoints* checkpoints)
    : decoder_(std::move(decoder)),
      fusion_(std::move(fusion)),
      checkpoints_(checkpoints) {
  CPDG_CHECK(decoder_ != nullptr);
  if (fusion_ != nullptr) {
    CPDG_CHECK(checkpoints_ != nullptr);
    CPDG_CHECK(!checkpoints_->empty());
  }
}

tensor::Tensor FineTunedModel::Embed(dgnn::DgnnEncoder* encoder,
                                     const std::vector<NodeId>& nodes,
                                     const std::vector<double>& times) const {
  ts::Tensor z = encoder->ComputeEmbeddings(nodes, times);
  if (fusion_ == nullptr) return z;
  ts::Tensor ei = fusion_->Forward(*checkpoints_, nodes);
  return ts::Concat(z, ei);  // Eq. (19)
}

tensor::Tensor FineTunedModel::ScoreLogits(
    dgnn::DgnnEncoder* encoder, const std::vector<NodeId>& srcs,
    const std::vector<NodeId>& dsts, const std::vector<double>& times) const {
  std::vector<ts::Tensor> z = train::EmbedStacked(
      [&](const std::vector<NodeId>& nodes, const std::vector<double>& t) {
        return Embed(encoder, nodes, t);
      },
      {srcs, dsts}, times);
  return decoder_->ForwardLogits(z[0], z[1]);
}

std::vector<tensor::Tensor> FineTunedModel::Parameters() const {
  std::vector<ts::Tensor> params = decoder_->Parameters();
  if (fusion_ != nullptr) {
    std::vector<ts::Tensor> f = fusion_->Parameters();
    params.insert(params.end(), f.begin(), f.end());
  }
  return params;
}

FineTunedModel FineTuneLinkPrediction(dgnn::DgnnEncoder* encoder,
                                      const graph::GraphStore& graph,
                                      const FineTuneConfig& config,
                                      const EvolutionCheckpoints* checkpoints,
                                      Rng* rng,
                                      train::TrainTelemetry* telemetry) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(rng != nullptr);

  int64_t node_dim = encoder->config().embed_dim;
  std::unique_ptr<EvolutionFusion> fusion;
  if (config.use_eie) {
    CPDG_CHECK(checkpoints != nullptr && !checkpoints->empty())
        << "EIE fine-tuning requires pre-training checkpoints";
    fusion = std::make_unique<EvolutionFusion>(
        config.eie_variant, checkpoints->dim(), config.eie_dim, rng);
    node_dim += config.eie_dim;
  }
  auto decoder = std::make_unique<dgnn::LinkPredictor>(
      node_dim, config.decoder_hidden, rng);

  FineTunedModel model(std::move(decoder), std::move(fusion),
                       config.use_eie ? checkpoints : nullptr);

  std::vector<ts::Tensor> params = model.Parameters();
  if (config.train.train_encoder) {
    std::vector<ts::Tensor> enc = encoder->Parameters();
    params.insert(params.end(), enc.begin(), enc.end());
  }

  train::TrainLoopOptions loop_options;
  loop_options.epochs = config.train.epochs;
  loop_options.learning_rate = config.train.learning_rate;
  loop_options.grad_clip = config.train.grad_clip;
  loop_options.log_label = "fine-tune";
  // Negative draws come from per-(epoch, batch) streams, so each batch's
  // content depends only on its position.
  loop_options.prepare_stream_seed = rng->NextUint64();
  train::TrainLoop loop(std::move(params), loop_options);

  train::TrainTelemetry result = loop.RunChronological(
      encoder, graph, config.train.batch_size,
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          Rng* batch_rng) -> std::any {
        return train::AssembleLinkBatch(batch.events,
                                        config.train.negative_pool,
                                        graph.num_nodes(), batch_rng);
      },
      [&](const train::BatchContext&, const graph::EventBatch&,
          std::any& prepared) -> std::optional<ts::Tensor> {
        const train::LinkBatch& lb =
            *std::any_cast<train::LinkBatch>(&prepared);
        // One pass embeds every row once: each source row and its EIE
        // fusion feed both the positive and the negative pair.
        std::vector<ts::Tensor> z = train::EmbedStacked(
            [&](const std::vector<NodeId>& nodes,
                const std::vector<double>& times) {
              return model.Embed(encoder, nodes, times);
            },
            {lb.srcs, lb.dsts, lb.negs}, lb.times);
        ts::Tensor pos_logits = model.decoder()->ForwardLogits(z[0], z[1]);
        ts::Tensor neg_logits = model.decoder()->ForwardLogits(z[0], z[2]);
        return train::LinkBceLoss(pos_logits, neg_logits);
      });
  if (telemetry != nullptr) *telemetry = std::move(result);
  return model;
}

}  // namespace cpdg::core
