#include "dgnn/encoder.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/losses.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace cpdg::dgnn {

namespace ts = cpdg::tensor;

const char* EncoderTypeName(EncoderType type) {
  switch (type) {
    case EncoderType::kJodie:
      return "JODIE";
    case EncoderType::kDyRep:
      return "DyRep";
    case EncoderType::kTgn:
      return "TGN";
  }
  return "?";
}

EncoderConfig EncoderConfig::Preset(EncoderType type, int64_t num_nodes) {
  EncoderConfig c;
  c.num_nodes = num_nodes;
  switch (type) {
    case EncoderType::kJodie:
      c.message = MessageFunctionType::kIdentity;
      c.aggregator = AggregatorType::kLast;
      c.updater = MemoryUpdaterType::kRnn;
      c.embedding = EmbeddingType::kTimeProjection;
      break;
    case EncoderType::kDyRep:
      c.message = MessageFunctionType::kAttention;
      c.aggregator = AggregatorType::kLast;
      c.updater = MemoryUpdaterType::kRnn;
      c.embedding = EmbeddingType::kIdentity;
      break;
    case EncoderType::kTgn:
      c.message = MessageFunctionType::kIdentity;
      c.aggregator = AggregatorType::kLast;
      c.updater = MemoryUpdaterType::kGru;
      c.embedding = EmbeddingType::kAttention;
      break;
  }
  return c;
}

int64_t DgnnEncoder::message_dim() const {
  // Raw message layout: [s_self || other_repr || x_other || phi(dt)]
  // (Eq. 2, with the sender's static features appended so memory can
  // record *which* neighbor it interacted with). The MLP message function
  // compresses that to memory_dim.
  int64_t raw = 3 * config_.memory_dim + config_.time_dim;
  return config_.message == MessageFunctionType::kMlp ? config_.memory_dim
                                                      : raw;
}

DgnnEncoder::DgnnEncoder(const EncoderConfig& config,
                         const graph::GraphStore* graph, Rng* rng)
    : config_(config),
      graph_(graph),
      memory_(config.num_nodes, config.memory_dim),
      rng_(rng) {
  CPDG_CHECK(graph != nullptr);
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_LE(graph->num_nodes(), config.num_nodes);

  time_encoder_ = std::make_unique<ts::TimeEncoder>(config_.time_dim, rng);
  RegisterModule(time_encoder_.get());

  node_features_ = RegisterParameter(
      ts::Tensor::RandomNormal(config_.num_nodes, config_.memory_dim, 0.1f,
                               rng));

  int64_t raw_msg = 3 * config_.memory_dim + config_.time_dim;
  if (config_.message == MessageFunctionType::kMlp) {
    message_mlp_ = std::make_unique<ts::Mlp>(
        std::vector<int64_t>{raw_msg, config_.memory_dim}, rng);
    RegisterModule(message_mlp_.get());
  }
  if (config_.message == MessageFunctionType::kAttention) {
    // DyRep-style attention over the sender's temporal neighborhood.
    // Queries/keys carry [state || static features || time encoding].
    int64_t qk = 2 * config_.memory_dim + config_.time_dim;
    message_attention_ = std::make_unique<ts::GroupedAttentionLayer>(
        qk, qk, config_.memory_dim, config_.memory_dim, rng);
    RegisterModule(message_attention_.get());
  }

  if (config_.updater == MemoryUpdaterType::kGru) {
    gru_updater_ = std::make_unique<ts::GruCell>(message_dim(),
                                                 config_.memory_dim, rng);
    RegisterModule(gru_updater_.get());
  } else {
    rnn_updater_ = std::make_unique<ts::RnnCell>(message_dim(),
                                                 config_.memory_dim, rng);
    RegisterModule(rnn_updater_.get());
  }

  switch (config_.embedding) {
    case EmbeddingType::kAttention: {
      int64_t qk = 2 * config_.memory_dim + config_.time_dim;
      embed_attention_ = std::make_unique<ts::GroupedAttentionLayer>(
          qk, qk, config_.embed_dim, config_.embed_dim, rng);
      RegisterModule(embed_attention_.get());
      embed_merge_ = std::make_unique<ts::Linear>(
          config_.embed_dim + 2 * config_.memory_dim, config_.embed_dim,
          rng);
      RegisterModule(embed_merge_.get());
      break;
    }
    case EmbeddingType::kTimeProjection: {
      jodie_projection_ =
          RegisterParameter(ts::Tensor::Zeros(1, config_.memory_dim));
      embed_output_ = std::make_unique<ts::Linear>(2 * config_.memory_dim,
                                                   config_.embed_dim, rng);
      RegisterModule(embed_output_.get());
      break;
    }
    case EmbeddingType::kIdentity: {
      embed_output_ = std::make_unique<ts::Linear>(2 * config_.memory_dim,
                                                   config_.embed_dim, rng);
      RegisterModule(embed_output_.get());
      break;
    }
  }
}

void DgnnEncoder::AttachGraph(const graph::GraphStore* graph) {
  CPDG_CHECK(graph != nullptr);
  CPDG_CHECK_LE(graph->num_nodes(), config_.num_nodes);
  graph_ = graph;
  memory_.Reset();
  BeginBatch();
}

void DgnnEncoder::BeginBatch() {
  updated_states_.clear();
  flush_blocks_.clear();
}

tensor::Tensor DgnnEncoder::NodeFeatures(
    const std::vector<NodeId>& nodes) const {
  std::vector<int64_t> idx(nodes.begin(), nodes.end());
  return ts::Gather(node_features_, idx);
}

tensor::Tensor DgnnEncoder::AttentionNeighborSummary(
    const std::vector<NodeId>& others, const std::vector<double>& times) {
  int64_t n = static_cast<int64_t>(others.size());
  int64_t g = config_.num_neighbors;
  sampler::NeighborBatch nb = sampler::SampleNeighborBatch(
      *graph_, others, times, g, sampler::NeighborStrategy::kMostRecent,
      rng_);

  // Query: [s_j || x_j || phi(0)] from stored (pre-update) states.
  ts::Tensor q_states = memory_.GetStates(others);
  ts::Tensor q_time = time_encoder_->Forward(std::vector<double>(
      static_cast<size_t>(n), 0.0));
  ts::Tensor query =
      ts::Concat(ts::Concat(q_states, NodeFeatures(others)), q_time);

  // Candidates: [s_u || phi(t - t_u)]; padding slots use node 0's layout
  // but are masked out via `valid`.
  std::vector<NodeId> cand_nodes(nb.nodes.size());
  std::vector<double> cand_dts(nb.nodes.size());
  for (size_t s = 0; s < nb.nodes.size(); ++s) {
    cand_nodes[s] = nb.valid[s] ? nb.nodes[s] : 0;
    cand_dts[s] =
        nb.valid[s] ? (times[s / static_cast<size_t>(g)] - nb.times[s]) : 0.0;
  }
  ts::Tensor c_states = memory_.GetStates(cand_nodes);
  ts::Tensor c_time = time_encoder_->Forward(cand_dts);
  ts::Tensor candidates =
      ts::Concat(ts::Concat(c_states, NodeFeatures(cand_nodes)), c_time);

  return message_attention_->Forward(query, candidates, g, nb.valid);
}

tensor::Tensor DgnnEncoder::UpdateStates(
    const std::vector<NodeId>& flush_nodes) {
  CPDG_CHECK(!flush_nodes.empty());
  int64_t n = static_cast<int64_t>(flush_nodes.size());

  ts::Tensor self_states = memory_.GetStates(flush_nodes);

  ts::Tensor messages;
  if (config_.aggregator == AggregatorType::kLast) {
    // Batched fast path: only the most recent pending message matters.
    std::vector<NodeId> others(flush_nodes.size());
    std::vector<double> msg_times(flush_nodes.size());
    std::vector<double> deltas(flush_nodes.size());
    for (size_t i = 0; i < flush_nodes.size(); ++i) {
      const auto& pending = memory_.Pending(flush_nodes[i]);
      CPDG_CHECK(!pending.empty());
      const Memory::RawMessage& last = pending.back();
      others[i] = last.other;
      msg_times[i] = last.time;
      deltas[i] = last.time - memory_.LastUpdate(flush_nodes[i]);
      if (deltas[i] < 0.0) deltas[i] = 0.0;
    }
    ts::Tensor other_repr;
    if (config_.message == MessageFunctionType::kAttention) {
      other_repr = AttentionNeighborSummary(others, msg_times);
    } else {
      other_repr = memory_.GetStates(others);
    }
    ts::Tensor phi = time_encoder_->Forward(deltas);
    messages = ts::Concat(
        ts::Concat(ts::Concat(self_states, other_repr),
                   NodeFeatures(others)),
        phi);
  } else {
    // Mean aggregation (Eq. 3): the raw messages of every flushed node in
    // one block, averaged per node by one SegmentMean.
    std::vector<NodeId> self, others;
    std::vector<double> deltas;
    std::vector<int64_t> offsets = {0};
    for (NodeId v : flush_nodes) {
      double last_update = memory_.LastUpdate(v);
      for (const Memory::RawMessage& m : memory_.Pending(v)) {
        self.push_back(v);
        others.push_back(m.other);
        deltas.push_back(std::max(0.0, m.time - last_update));
      }
      offsets.push_back(static_cast<int64_t>(self.size()));
    }
    ts::Tensor rows = ts::Concat(
        ts::Concat(ts::Concat(memory_.GetStates(self),
                              memory_.GetStates(others)),
                   NodeFeatures(others)),
        time_encoder_->Forward(deltas));
    messages = ts::SegmentMean(rows, offsets);
  }

  if (config_.message == MessageFunctionType::kMlp) {
    messages = message_mlp_->Forward(messages);
  }

  ts::Tensor updated;
  if (config_.updater == MemoryUpdaterType::kGru) {
    updated = gru_updater_->Forward(messages, self_states);
  } else {
    updated = rnn_updater_->Forward(messages, self_states);
  }
  CPDG_CHECK_EQ(updated.rows(), n);
  return updated;
}

void DgnnEncoder::FlushNodes(const std::vector<NodeId>& nodes) {
  CPDG_TRACE_SPAN("dgnn/memory_flush");
  // Split uncached nodes into those with pending messages (need the
  // differentiable update path) and those without (plain leaf states).
  std::vector<NodeId> to_update;
  std::vector<NodeId> plain;
  std::unordered_set<NodeId, std::hash<NodeId>, std::equal_to<NodeId>,
                     ts::ArenaAllocator<NodeId>>
      dedup;
  for (NodeId v : nodes) {
    if (updated_states_.count(v) != 0 || !dedup.insert(v).second) continue;
    if (memory_.HasPending(v)) {
      to_update.push_back(v);
    } else {
      plain.push_back(v);
    }
  }
  // Each flush output becomes one block; the cache refers into it by row.
  auto add_block = [this](const std::vector<NodeId>& block_nodes,
                          ts::Tensor block) {
    int64_t table = static_cast<int64_t>(flush_blocks_.size());
    flush_blocks_.push_back(std::move(block));
    for (size_t i = 0; i < block_nodes.size(); ++i) {
      updated_states_.emplace(block_nodes[i],
                              ts::RowRef{table, static_cast<int64_t>(i)});
    }
  };
  if (!to_update.empty()) {
    static obs::Counter& state_updates =
        obs::MetricsRegistry::Global().counter("dgnn.memory.state_updates");
    state_updates.Add(static_cast<int64_t>(to_update.size()));
    add_block(to_update, UpdateStates(to_update));
  }
  if (!plain.empty()) add_block(plain, memory_.GetStates(plain));
}

tensor::Tensor DgnnEncoder::ComputeUpdatedStates(
    const std::vector<NodeId>& nodes) {
  CPDG_CHECK(!nodes.empty());
  FlushNodes(nodes);
  // The gather's parents are the blocks it reads, in order of first use,
  // so the backward pass visits the flush graphs in query order.
  std::vector<ts::Tensor> tables;
  std::vector<int64_t> table_of_block(flush_blocks_.size(), -1);
  std::vector<ts::RowRef> refs(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    ts::RowRef ref = updated_states_.at(nodes[i]);
    int64_t& table = table_of_block[static_cast<size_t>(ref.table)];
    if (table < 0) {
      table = static_cast<int64_t>(tables.size());
      tables.push_back(flush_blocks_[static_cast<size_t>(ref.table)]);
    }
    refs[i] = {table, ref.row};
  }
  return ts::Gather(tables, refs);
}

tensor::Tensor DgnnEncoder::ComputeEmbeddings(
    const std::vector<NodeId>& nodes, const std::vector<double>& times) {
  CPDG_CHECK(!nodes.empty());
  CPDG_CHECK_EQ(nodes.size(), times.size());
  int64_t n = static_cast<int64_t>(nodes.size());

  ts::Tensor root_states = ComputeUpdatedStates(nodes);

  switch (config_.embedding) {
    case EmbeddingType::kAttention: {
      int64_t g = config_.num_neighbors;
      sampler::NeighborBatch nb = sampler::SampleNeighborBatch(
          *graph_, nodes, times, g, sampler::NeighborStrategy::kMostRecent,
          rng_);
      // Neighbor candidate states are read from memory storage as leaves:
      // gradients still reach the attention projections, the merge layer
      // and the time encoder; the flush path of the *root* nodes trains
      // the message/updater parameters (TGN's within-batch protocol).
      std::vector<NodeId> cand_nodes(nb.nodes.size());
      std::vector<double> cand_dts(nb.nodes.size());
      for (size_t s = 0; s < nb.nodes.size(); ++s) {
        cand_nodes[s] = nb.valid[s] ? nb.nodes[s] : 0;
        cand_dts[s] = nb.valid[s]
                          ? (times[s / static_cast<size_t>(g)] - nb.times[s])
                          : 0.0;
      }
      ts::Tensor c_states = memory_.GetStates(cand_nodes);
      ts::Tensor c_time = time_encoder_->Forward(cand_dts);
      ts::Tensor candidates =
          ts::Concat(ts::Concat(c_states, NodeFeatures(cand_nodes)), c_time);

      ts::Tensor root_feats = NodeFeatures(nodes);
      ts::Tensor root_aug = ts::Concat(root_states, root_feats);
      ts::Tensor q_time = time_encoder_->Forward(
          std::vector<double>(static_cast<size_t>(n), 0.0));
      ts::Tensor query = ts::Concat(root_aug, q_time);

      ts::Tensor att =
          embed_attention_->Forward(query, candidates, g, nb.valid);
      return ts::Tanh(
          embed_merge_->Forward(ts::Concat(att, root_aug)));
    }
    case EmbeddingType::kTimeProjection: {
      // JODIE: z = Linear((1 + dt * w) ∘ s).
      std::vector<float> dts(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        double dt = times[static_cast<size_t>(i)] -
                    memory_.LastUpdate(nodes[static_cast<size_t>(i)]);
        dts[static_cast<size_t>(i)] =
            static_cast<float>(std::max(0.0, dt));
      }
      ts::Tensor dt_col = ts::Tensor::FromVector(n, 1, std::move(dts));
      ts::Tensor factor =
          ts::AddScalar(ts::MatMul(dt_col, jodie_projection_), 1.0f);
      ts::Tensor projected = ts::Mul(root_states, factor);
      // JODIE pairs the projected dynamic embedding with the node's
      // static embedding.
      return embed_output_->Forward(
          ts::Concat(projected, NodeFeatures(nodes)));
    }
    case EmbeddingType::kIdentity: {
      return embed_output_->Forward(
          ts::Concat(root_states, NodeFeatures(nodes)));
    }
  }
  CPDG_CHECK(false) << "unreachable";
  return root_states;
}

void DgnnEncoder::CommitBatch(const std::vector<graph::Event>& events) {
  CPDG_TRACE_SPAN("dgnn/memory_commit");
  static obs::Counter& messages = obs::MetricsRegistry::Global().counter(
      "dgnn.memory.messages_enqueued");
  messages.Add(2 * static_cast<int64_t>(events.size()));
  // Persist flushed states (detached) and consume their pending messages.
  for (const auto& [node, ref] : updated_states_) {
    if (memory_.HasPending(node)) {
      const ts::Tensor& block = flush_blocks_[static_cast<size_t>(ref.table)];
      memory_.SetState(node, block.data() + ref.row * block.cols());
      memory_.ClearPending(node);
    }
  }
  updated_states_.clear();
  flush_blocks_.clear();

  // Enqueue this batch's interactions for both endpoints. The message's
  // delta is computed lazily at flush time from last_update, so order
  // matters: enqueue first, then advance last_update.
  for (const graph::Event& e : events) {
    memory_.EnqueueMessage(e.src, Memory::RawMessage{e.dst, e.time});
    memory_.EnqueueMessage(e.dst, Memory::RawMessage{e.src, e.time});
  }
  for (const graph::Event& e : events) {
    memory_.SetLastUpdate(e.src, e.time);
    memory_.SetLastUpdate(e.dst, e.time);
  }
}

void DgnnEncoder::ReplayEvents(const std::vector<graph::Event>& events,
                               int64_t batch_size) {
  CPDG_CHECK_GT(batch_size, 0);
  for (size_t start = 0; start < events.size();
       start += static_cast<size_t>(batch_size)) {
    size_t end = std::min(events.size(), start + static_cast<size_t>(
                                                     batch_size));
    std::vector<graph::Event> batch(events.begin() + start,
                                    events.begin() + end);
    BeginBatch();
    std::vector<NodeId> touched;
    for (const graph::Event& e : batch) {
      touched.push_back(e.src);
      touched.push_back(e.dst);
    }
    FlushNodes(touched);
    CommitBatch(batch);
  }
}

LinkPredictor::LinkPredictor(int64_t embed_dim, int64_t hidden_dim, Rng* rng) {
  mlp_ = std::make_unique<ts::Mlp>(
      std::vector<int64_t>{2 * embed_dim, hidden_dim, 1}, rng);
  RegisterModule(mlp_.get());
}

tensor::Tensor LinkPredictor::ForwardLogits(const tensor::Tensor& z_src,
                                            const tensor::Tensor& z_dst) const {
  return mlp_->Forward(ts::Concat(z_src, z_dst));
}

}  // namespace cpdg::dgnn
