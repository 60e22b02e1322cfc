#ifndef CPDG_DGNN_ENCODER_H_
#define CPDG_DGNN_ENCODER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dgnn/memory.h"
#include "graph/batching.h"
#include "graph/graph_store.h"
#include "sampler/samplers.h"
#include "tensor/arena.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace cpdg::dgnn {

/// \brief Implementation choices for the four pluggable components of the
/// generic DGNN paradigm (Table III of the paper).
enum class MessageFunctionType { kIdentity, kMlp, kAttention };
enum class AggregatorType { kLast, kMean };
enum class MemoryUpdaterType { kGru, kRnn };
enum class EmbeddingType { kAttention, kTimeProjection, kIdentity };

/// \brief Named encoder presets matching Table III.
enum class EncoderType { kJodie, kDyRep, kTgn };

const char* EncoderTypeName(EncoderType type);

/// \brief Hyper-parameters of a DGNN encoder instance.
struct EncoderConfig {
  int64_t num_nodes = 0;
  int64_t memory_dim = 32;
  int64_t embed_dim = 32;
  int64_t time_dim = 8;
  /// Temporal neighbors attended over by the embedding module.
  int64_t num_neighbors = 10;
  MessageFunctionType message = MessageFunctionType::kIdentity;
  AggregatorType aggregator = AggregatorType::kLast;
  MemoryUpdaterType updater = MemoryUpdaterType::kGru;
  EmbeddingType embedding = EmbeddingType::kAttention;

  /// Preset for one of the three paper encoders (Table III):
  ///  - JODIE: identity message, RNN memory, time-projection embedding.
  ///  - DyRep: attention message, RNN memory, identity embedding.
  ///  - TGN:   identity message, last aggregation, GRU memory, attention
  ///    embedding.
  static EncoderConfig Preset(EncoderType type, int64_t num_nodes);
};

/// \brief The generic memory-based DGNN encoder of Sec. III-B.
///
/// The encoder follows TGN's training protocol: interactions enqueue raw
/// messages; when a node is next touched, its pending messages are flushed
/// through the (differentiable) Message -> Aggregate -> MemoryUpdate path
/// (Eqs. 2-4) and the refreshed state feeds the embedding module (Eq. 1).
/// Gradients flow through the within-batch flush; committed states are
/// stored detached.
///
/// Typical batch loop, one encoder pass per training step:
///   encoder.BeginBatch();
///   // [srcs; dsts; negs] in one ComputeEmbeddings call, sliced apart
///   // (train::EmbedStacked); contrastive views likewise pool every view
///   // from one ComputeUpdatedStates call.
///   std::vector<Tensor> z = train::EmbedStacked(embed, {srcs, dsts, negs},
///                                               ts);
///   ... loss.Backward(); optimizer.Step(); ...
///   encoder.CommitBatch(batch_events);
///
/// Stacking is forward-exact: every output row depends only on its own
/// (node, time) query (rng-free kMostRecent neighbors, GEMM blocking that
/// depends on shapes only, per-node flush results cached for the batch), so
/// the rows of one stacked call equal those of separate calls bitwise, and
/// CommitBatch writes the same memory. Gradients are the same sums added
/// in a different order (one GEMM over the stacked rows instead of one per
/// call), so trained parameters agree to rounding, not bitwise.
///
/// \par Read-only (serving) protocol
/// `BeginBatch()` + `ComputeEmbeddings()` *without* a following
/// `CommitBatch()` is a pure read of the persistent state: pending
/// messages are flushed into the per-batch cache only, and nothing is
/// written back to `memory()` (its `version()` does not change). Given
/// frozen parameters and a fixed memory version the result is a
/// deterministic, bit-reproducible function of (nodes, times) — each
/// output row depends only on its own query — which is what
/// `serve::ServingEngine` builds its embedding cache and batch coalescing
/// on. Wrap serving forwards in `tensor::InferenceModeGuard` so no
/// autograd graph is retained.
class DgnnEncoder : public tensor::Module {
 public:
  DgnnEncoder(const EncoderConfig& config, const graph::GraphStore* graph,
              Rng* rng);

  const EncoderConfig& config() const { return config_; }
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }

  /// \brief Points the encoder at a different temporal graph (e.g. the
  /// downstream graph during fine-tuning) and resets the memory. The graph
  /// must have num_nodes <= config.num_nodes.
  void AttachGraph(const graph::GraphStore* graph);

  /// \brief Clears per-batch caches; call before the first
  /// ComputeEmbeddings of each batch.
  void BeginBatch();

  /// \brief Temporal embeddings z_i^t (Eq. 1) for the queried nodes, as a
  /// [n, embed_dim] tensor attached to the autograd graph. Pending
  /// messages of every touched node (queries and sampled neighbors) are
  /// flushed first; flush results are cached for the rest of the batch.
  tensor::Tensor ComputeEmbeddings(const std::vector<NodeId>& nodes,
                                   const std::vector<double>& times);

  /// \brief Memory states s_i^t for the queried nodes after flushing
  /// pending messages, [n, memory_dim]. This is what the contrastive
  /// readouts of Eqs. (9)-(13) pool over.
  tensor::Tensor ComputeUpdatedStates(const std::vector<NodeId>& nodes);

  /// \brief Static (learnable) feature rows of `nodes`, [n, memory_dim].
  /// Real deployments of JODIE/TGN feed node features or one-hot static
  /// embeddings next to the dynamic memory; without any identity signal,
  /// structurally isomorphic nodes would be indistinguishable.
  tensor::Tensor NodeFeatures(const std::vector<NodeId>& nodes) const;

  /// \brief Persists this batch's flushed states (detached) into memory,
  /// then enqueues the batch's events as raw messages for both endpoints
  /// and advances last-update times.
  void CommitBatch(const std::vector<graph::Event>& events);

  /// \brief Convenience: run BeginBatch + CommitBatch over all events of
  /// the attached graph without training, so that memory reflects graph
  /// history (used before evaluation on warm memory).
  void ReplayEvents(const std::vector<graph::Event>& events,
                    int64_t batch_size);

 private:
  /// Flushes pending messages for all uncached nodes in `nodes`.
  void FlushNodes(const std::vector<NodeId>& nodes);

  /// Builds the aggregated message matrix for `flush_nodes` (each has
  /// pending messages) and returns Mem(s^-, m̄) rows, [n, memory_dim].
  tensor::Tensor UpdateStates(const std::vector<NodeId>& flush_nodes);

  /// Attention-based neighbor summary of `others` at `times` (DyRep's
  /// attention message function), [n, memory_dim].
  tensor::Tensor AttentionNeighborSummary(const std::vector<NodeId>& others,
                                          const std::vector<double>& times);

  int64_t message_dim() const;

  EncoderConfig config_;
  const graph::GraphStore* graph_;
  Memory memory_;
  Rng* rng_;

  // Parameterized components.
  std::unique_ptr<tensor::TimeEncoder> time_encoder_;
  std::unique_ptr<tensor::Mlp> message_mlp_;  // only for kMlp messages
  std::unique_ptr<tensor::GroupedAttentionLayer> message_attention_;
  std::unique_ptr<tensor::GruCell> gru_updater_;
  std::unique_ptr<tensor::RnnCell> rnn_updater_;
  std::unique_ptr<tensor::GroupedAttentionLayer> embed_attention_;
  std::unique_ptr<tensor::Linear> embed_merge_;
  tensor::Tensor jodie_projection_;  // [1, memory_dim] for time projection
  std::unique_ptr<tensor::Linear> embed_output_;
  tensor::Tensor node_features_;  // [num_nodes, memory_dim] static features

  // Per-batch cache of flushed states: each flush's output is one block in
  // `flush_blocks_`, and `updated_states_` maps a node to its (block, row).
  // The map's node and bucket allocations ride the batch arena (one insert
  // per flushed node per batch; both are cleared every
  // BeginBatch/CommitBatch).
  std::vector<tensor::Tensor> flush_blocks_;
  std::unordered_map<NodeId, tensor::RowRef, std::hash<NodeId>,
                     std::equal_to<NodeId>,
                     tensor::ArenaAllocator<
                         std::pair<const NodeId, tensor::RowRef>>>
      updated_states_;
};

/// \brief Temporal link prediction decoder (Eq. 15):
/// y = sigmoid(MLP(z_i || z_j)); exposed as logits for BCE-with-logits.
class LinkPredictor : public tensor::Module {
 public:
  LinkPredictor(int64_t embed_dim, int64_t hidden_dim, Rng* rng);

  /// [n, d] x [n, d] -> logits [n, 1].
  tensor::Tensor ForwardLogits(const tensor::Tensor& z_src,
                               const tensor::Tensor& z_dst) const;

 private:
  std::unique_ptr<tensor::Mlp> mlp_;
};

}  // namespace cpdg::dgnn

#endif  // CPDG_DGNN_ENCODER_H_
