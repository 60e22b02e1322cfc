#ifndef CPDG_CORE_PRETRAINER_H_
#define CPDG_CORE_PRETRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/evolution.h"
#include "dgnn/encoder.h"
#include "graph/graph_store.h"
#include "sampler/samplers.h"
#include "train/link_batch.h"
#include "train/telemetry.h"
#include "train/train_loop.h"
#include "util/rng.h"

namespace cpdg::core {

/// \brief Hyper-parameters of the CPDG pre-training objective (Sec. IV-B).
struct CpdgConfig {
  /// Structural/temporal trade-off β of Eq. (17).
  float beta = 0.5f;
  /// Global weight on the combined contrastive term. Eq. (17) uses an
  /// unweighted sum; on the scaled-down synthetic workloads the contrast
  /// gradients otherwise overwhelm the link-prediction pretext, so the
  /// default rebalances while preserving the equation's structure.
  float contrast_weight = 0.5f;
  /// Triplet margin α1 of Eq. (11)/(14).
  float margin = 0.5f;
  /// Temperature τ of Eq. (7)-(8).
  float temperature = 0.2f;
  /// η-BFS / ε-DFS width and depth (Sec. IV-A).
  int64_t sample_width = 2;
  int64_t sample_depth = 2;
  /// Number of uniformly spaced memory checkpoints l for EIE (Sec. IV-C).
  int64_t num_checkpoints = 10;
  /// Cap on contrastive anchors per batch: the expectation in Eq. (11)/(14)
  /// is estimated on a subsample of the batch's source nodes (the
  /// Monte-Carlo trick of Sec. IV-D).
  int64_t max_contrast_anchors = 64;
  /// Toggles for the ablation study (Fig. 5).
  bool use_temporal_contrast = true;
  bool use_structural_contrast = true;

  int64_t epochs = 2;
  int64_t batch_size = 200;
  float learning_rate = 1e-3f;
  float grad_clip = 5.0f;
  std::vector<graph::NodeId> negative_pool;

  /// \name Crash safety (see train::TrainLoopOptions)
  /// When set (with checkpoint_every_batches > 0), full pre-training state
  /// — encoder/decoder params, Adam moments, encoder memory, the RNG
  /// stream and the recorded evolution checkpoints — is published
  /// atomically to this path on the given batch cadence.
  std::string checkpoint_path;
  int64_t checkpoint_every_batches = 0;
  /// Resume from checkpoint_path when the file exists; a resumed run is
  /// bit-identical to one that never stopped.
  bool resume = false;
  /// Non-finite loss handling of the training health monitor.
  train::NonFinitePolicy non_finite_policy = train::NonFinitePolicy::kHalt;
  /// Graceful stop after this many batches (0 = run to completion); used
  /// by the fault-tolerance tests to simulate a mid-run kill.
  int64_t max_batches = 0;
};

/// \brief Output of pre-training: the loss/telemetry trace plus the
/// memory checkpoints consumed by EIE fine-tuning.
struct PretrainResult {
  train::TrainTelemetry log;
  EvolutionCheckpoints checkpoints;
};

/// \brief The CPDG pre-trainer: temporal contrast (η-BFS positive /
/// negative subgraphs, Eq. 9-11), structural contrast (ε-DFS instance
/// discrimination, Eq. 12-14), and the temporal link prediction pretext
/// task (Eq. 15-16), combined as Eq. (17):
///   L = (1-β) L_η + β L_ε + L_tlp.
///
/// The pre-trainer owns no model state; it drives the provided encoder and
/// decoder and records memory checkpoints along the way.
class CpdgPretrainer {
 public:
  CpdgPretrainer(const CpdgConfig& config, Rng* rng);

  /// Runs the full pre-training loop over `graph`. The encoder's memory is
  /// reset per epoch; checkpoints are recorded uniformly over the final
  /// epoch's batches.
  PretrainResult Pretrain(dgnn::DgnnEncoder* encoder,
                          dgnn::LinkPredictor* decoder,
                          const graph::GraphStore& graph);

  const CpdgConfig& config() const { return config_; }

 private:
  /// \brief Sampled contrast inputs of one batch, drawn in the train
  /// loop's prepare stage (graph reads + per-batch RNG only, no model
  /// state).
  struct PreparedContrast {
    std::vector<int64_t> anchor_pos;
    std::vector<sampler::ArenaNodeVec> tp, tn, sp, sn;
  };

  /// Anchor subsampling plus the η-BFS / ε-DFS subgraph draws of Eq.
  /// (9)-(14). Samples off const graph state with the per-batch `rng`
  /// only.
  PreparedContrast PrepareContrast(
      const sampler::StructuralTemporalSampler& subgraph_sampler,
      const sampler::StructuralTemporalSampler::Options& sample_opts,
      const train::LinkBatch& lb, Rng* rng) const;

  /// Pools each anchor's sampled subgraph into a row (mean-pooling readout
  /// of Eq. 9/10/12/13) for every view in one pass, returning one
  /// [anchors, d] tensor per view. Views hold one subgraph per anchor, and
  /// every subgraph must be non-empty; PrepareContrast filters empty
  /// samples while selecting anchors.
  std::vector<tensor::Tensor> PoolSubgraphs(
      dgnn::DgnnEncoder* encoder,
      const std::vector<const std::vector<sampler::ArenaNodeVec>*>& views);

  /// Adds the temporal (η-BFS) and structural (ε-DFS) contrastive terms of
  /// Eq. (11)/(14) over the prepared anchors onto `loss`, returning the
  /// combined objective of Eq. (17). Pure compute; runs on the consumer
  /// thread.
  tensor::Tensor ContrastiveLoss(dgnn::DgnnEncoder* encoder,
                                 const PreparedContrast& contrast,
                                 const tensor::Tensor& z_src,
                                 tensor::Tensor loss);

  CpdgConfig config_;
  Rng* rng_;
};

}  // namespace cpdg::core

#endif  // CPDG_CORE_PRETRAINER_H_
