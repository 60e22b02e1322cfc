#include "core/pretrainer.h"

#include <algorithm>

#include "tensor/losses.h"
#include "tensor/ops.h"
#include "train/link_batch.h"
#include "train/train_loop.h"
#include "util/atomic_file.h"
#include "util/byte_codec.h"
#include "util/check.h"

namespace cpdg::core {

namespace ts = cpdg::tensor;
using graph::NodeId;

CpdgPretrainer::CpdgPretrainer(const CpdgConfig& config, Rng* rng)
    : config_(config), rng_(rng) {
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_GE(config.beta, 0.0f);
  CPDG_CHECK_LE(config.beta, 1.0f);
  CPDG_CHECK_GE(config.num_checkpoints, 1);
}

std::vector<tensor::Tensor> CpdgPretrainer::PoolSubgraphs(
    dgnn::DgnnEncoder* encoder,
    const std::vector<const std::vector<sampler::ArenaNodeVec>*>& views) {
  CPDG_CHECK(!views.empty());
  std::vector<NodeId> all;
  std::vector<int64_t> offsets = {0};
  for (const std::vector<sampler::ArenaNodeVec>* view : views) {
    CPDG_CHECK_EQ(view->size(), views[0]->size());
    for (const sampler::ArenaNodeVec& sg : *view) {
      CPDG_CHECK(!sg.empty());
      all.insert(all.end(), sg.begin(), sg.end());
      offsets.push_back(static_cast<int64_t>(all.size()));
    }
  }
  // One flush and one gather for every node of every view, then one mean
  // per subgraph (the Readout of Eq. 9-10 / 12-13 over memory states).
  ts::Tensor pooled =
      ts::SegmentMean(encoder->ComputeUpdatedStates(all), offsets);
  int64_t anchors = static_cast<int64_t>(views[0]->size());
  std::vector<ts::Tensor> out;
  out.reserve(views.size());
  for (size_t v = 0; v < views.size(); ++v) {
    out.push_back(
        ts::SliceRows(pooled, static_cast<int64_t>(v) * anchors, anchors));
  }
  return out;
}

CpdgPretrainer::PreparedContrast CpdgPretrainer::PrepareContrast(
    const sampler::StructuralTemporalSampler& subgraph_sampler,
    const sampler::StructuralTemporalSampler::Options& sample_opts,
    const train::LinkBatch& lb, Rng* rng) const {
  bool want_tc = config_.use_temporal_contrast;
  bool want_sc = config_.use_structural_contrast;
  PreparedContrast out;

  // Pick up to max_contrast_anchors distinct source positions.
  std::vector<int64_t> positions(lb.srcs.size());
  for (size_t i = 0; i < lb.srcs.size(); ++i) {
    positions[i] = static_cast<int64_t>(i);
  }
  rng->Shuffle(&positions);

  for (int64_t pos : positions) {
    if (static_cast<int64_t>(out.anchor_pos.size()) >=
        config_.max_contrast_anchors) {
      break;
    }
    NodeId root = lb.srcs[static_cast<size_t>(pos)];
    double t = lb.times[static_cast<size_t>(pos)];

    sampler::SubgraphSample s_tp, s_tn, s_sp, s_sn;
    if (want_tc) {
      s_tp = subgraph_sampler.SampleEtaBfs(
          root, t, sampler::TemporalBias::kChronological, sample_opts, rng);
      s_tn = subgraph_sampler.SampleEtaBfs(
          root, t, sampler::TemporalBias::kReverseChronological, sample_opts,
          rng);
      if (s_tp.empty() || s_tn.empty()) continue;
    }
    if (want_sc) {
      // Instance discrimination: the negative is the ε-DFS context
      // of a different random node i' (another batch source).
      NodeId other = root;
      for (int attempt = 0; attempt < 8 && other == root; ++attempt) {
        other = lb.srcs[rng->NextBounded(lb.srcs.size())];
      }
      s_sp = subgraph_sampler.SampleEpsilonDfs(root, t, sample_opts);
      s_sn = subgraph_sampler.SampleEpsilonDfs(other, t, sample_opts);
      if (s_sp.empty() || s_sn.empty() || other == root) continue;
    }
    out.anchor_pos.push_back(pos);
    if (want_tc) {
      out.tp.push_back(std::move(s_tp.nodes));
      out.tn.push_back(std::move(s_tn.nodes));
    }
    if (want_sc) {
      out.sp.push_back(std::move(s_sp.nodes));
      out.sn.push_back(std::move(s_sn.nodes));
    }
  }
  return out;
}

tensor::Tensor CpdgPretrainer::ContrastiveLoss(
    dgnn::DgnnEncoder* encoder, const PreparedContrast& contrast,
    const tensor::Tensor& z_src, tensor::Tensor loss) {
  if (contrast.anchor_pos.empty()) return loss;
  std::vector<int64_t> anchor_idx(contrast.anchor_pos.begin(),
                                  contrast.anchor_pos.end());
  ts::Tensor anchors = ts::Gather(z_src, anchor_idx);
  std::vector<const std::vector<sampler::ArenaNodeVec>*> views;
  if (config_.use_temporal_contrast) {
    views.push_back(&contrast.tp);
    views.push_back(&contrast.tn);
  }
  if (config_.use_structural_contrast) {
    views.push_back(&contrast.sp);
    views.push_back(&contrast.sn);
  }
  std::vector<ts::Tensor> pooled = PoolSubgraphs(encoder, views);
  size_t next = 0;
  if (config_.use_temporal_contrast) {
    ts::Tensor l_eta = ts::TripletMarginLoss(anchors, pooled[0], pooled[1],
                                             config_.margin);
    loss = ts::Add(loss, ts::MulScalar(l_eta, config_.contrast_weight *
                                                  (1.0f - config_.beta)));
    next = 2;
  }
  if (config_.use_structural_contrast) {
    ts::Tensor l_eps = ts::TripletMarginLoss(anchors, pooled[next],
                                             pooled[next + 1], config_.margin);
    loss = ts::Add(loss, ts::MulScalar(l_eps, config_.contrast_weight *
                                                  config_.beta));
  }
  return loss;
}

PretrainResult CpdgPretrainer::Pretrain(dgnn::DgnnEncoder* encoder,
                                        dgnn::LinkPredictor* decoder,
                                        const graph::GraphStore& graph) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(decoder != nullptr);
  CPDG_CHECK_EQ(encoder->config().embed_dim, encoder->config().memory_dim)
      << "contrastive readouts compare embeddings with pooled memory "
         "states, so embed_dim must equal memory_dim";

  std::vector<ts::Tensor> params = encoder->Parameters();
  {
    std::vector<ts::Tensor> dec = decoder->Parameters();
    params.insert(params.end(), dec.begin(), dec.end());
  }

  sampler::StructuralTemporalSampler subgraph_sampler(&graph);
  sampler::StructuralTemporalSampler::Options sample_opts;
  sample_opts.width = config_.sample_width;
  sample_opts.depth = config_.sample_depth;
  sample_opts.temperature = config_.temperature;

  PretrainResult result;
  result.checkpoints =
      EvolutionCheckpoints(encoder->memory().num_nodes(),
                           encoder->memory().dim());

  train::TrainLoopOptions loop_options;
  loop_options.epochs = config_.epochs;
  loop_options.learning_rate = config_.learning_rate;
  loop_options.grad_clip = config_.grad_clip;
  loop_options.log_label = "CPDG pretrain";
  loop_options.checkpoint_path = config_.checkpoint_path;
  loop_options.checkpoint_every_batches = config_.checkpoint_every_batches;
  loop_options.non_finite_policy = config_.non_finite_policy;
  loop_options.max_batches = config_.max_batches;
  // All prepare-stage randomness (negative draws, anchor subsampling,
  // subgraph sampling) flows through per-(epoch, batch) streams derived
  // from this seed, so a batch draws the same whatever ran before it. The
  // draw happens before any possible resume: a re-run of this function
  // derives the same seed, and the checkpointed rng_ state already
  // reflects it.
  loop_options.prepare_stream_seed = rng_->NextUint64();
  train::TrainLoop loop(std::move(params), loop_options);

  // State the loop cannot know about but a bit-exact resume needs: the
  // pre-trainer's RNG stream (negative sampling, anchor subsampling,
  // subgraph sampling) and the evolution checkpoints recorded so far.
  loop.RegisterCheckpointSection(
      "rng",
      {[this](std::string* out) {
         Rng::State s = rng_->GetState();
         util::ByteWriter w(out);
         w.Pod(s.state);
         w.Pod(static_cast<uint8_t>(s.has_cached_gaussian ? 1 : 0));
         w.Pod(s.cached_gaussian);
       },
       [this](std::string_view bytes) -> Status {
         util::ByteReader r(bytes);
         Rng::State s;
         uint8_t flag = 0;
         if (!r.Pod(&s.state) || !r.Pod(&flag) ||
             !r.Pod(&s.cached_gaussian) || !r.AtEnd()) {
           return Status::InvalidArgument("corrupt rng section");
         }
         s.has_cached_gaussian = (flag != 0);
         rng_->SetState(s);
         return Status::OK();
       }});
  loop.RegisterCheckpointSection(
      "evolution",
      {[&result](std::string* out) { result.checkpoints.SerializeTo(out); },
       [&result](std::string_view bytes) {
         return result.checkpoints.DeserializeFrom(bytes);
       }});

  if (config_.resume && !config_.checkpoint_path.empty() &&
      util::FileExists(config_.checkpoint_path)) {
    Status staged = loop.ResumeFrom(config_.checkpoint_path);
    if (!staged.ok()) {
      result.log.status = std::move(staged);
      return result;
    }
  }

  // Uniform memory checkpoints over the final epoch (Sec. IV-C), recorded
  // after the batch has been committed to memory.
  loop.set_batch_end_hook([&](const train::BatchContext& ctx) {
    int64_t checkpoint_interval =
        std::max<int64_t>(1, ctx.num_batches / config_.num_checkpoints);
    if (ctx.final_epoch && (ctx.batch_index + 1) % checkpoint_interval == 0 &&
        result.checkpoints.num_checkpoints() < config_.num_checkpoints - 1) {
      result.checkpoints.Record(encoder->memory());
    }
  });

  // The prepare stage (negative sampling, anchor subsampling, η-BFS/ε-DFS
  // subgraph draws) is a pure function of const graph state and the
  // per-batch RNG stream; the compute stage (embeddings, pooling, losses)
  // is what touches encoder memory.
  struct Payload {
    train::LinkBatch lb;
    PreparedContrast contrast;
  };
  result.log = loop.RunChronological(
      encoder, graph, config_.batch_size,
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          Rng* rng) -> std::any {
        Payload payload;
        payload.lb = train::AssembleLinkBatch(
            batch.events, config_.negative_pool, graph.num_nodes(), rng);
        if (config_.use_temporal_contrast || config_.use_structural_contrast) {
          payload.contrast = PrepareContrast(subgraph_sampler, sample_opts,
                                             payload.lb, rng);
        }
        return payload;
      },
      [&](const train::BatchContext&, const graph::EventBatch&,
          std::any& prepared) -> std::optional<ts::Tensor> {
        Payload& payload = *std::any_cast<Payload>(&prepared);
        const train::LinkBatch& lb = payload.lb;
        std::vector<ts::Tensor> z = train::EmbedStacked(
            [encoder](const std::vector<NodeId>& nodes,
                      const std::vector<double>& times) {
              return encoder->ComputeEmbeddings(nodes, times);
            },
            {lb.srcs, lb.dsts, lb.negs}, lb.times);

        // --- Pretext temporal link prediction (Eq. 15-16). ---
        ts::Tensor pos_logits = decoder->ForwardLogits(z[0], z[1]);
        ts::Tensor neg_logits = decoder->ForwardLogits(z[0], z[2]);
        ts::Tensor loss = train::LinkBceLoss(pos_logits, neg_logits);

        // --- Contrastive terms on a subsample of anchors (Eq. 9-14). ---
        if (config_.use_temporal_contrast || config_.use_structural_contrast) {
          loss = ContrastiveLoss(encoder, payload.contrast, z[0], loss);
        }
        return loss;
      });

  // Include the final memory state as the last checkpoint — but only for
  // runs that actually finished: a halted or gracefully stopped run will
  // record it when the resumed run completes.
  if (result.log.status.ok() && !result.log.stopped_early) {
    result.checkpoints.Record(encoder->memory());
  }
  return result;
}

}  // namespace cpdg::core
