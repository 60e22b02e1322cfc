#include "core/evolution.h"

#include "tensor/ops.h"
#include "util/byte_codec.h"
#include "util/check.h"

namespace cpdg::core {

namespace ts = cpdg::tensor;

void EvolutionCheckpoints::Record(const dgnn::Memory& memory) {
  if (num_nodes_ == 0) {
    num_nodes_ = memory.num_nodes();
    dim_ = memory.dim();
  }
  CPDG_CHECK_EQ(memory.num_nodes(), num_nodes_);
  CPDG_CHECK_EQ(memory.dim(), dim_);
  snapshots_.push_back(memory.SnapshotFlat());
}

const float* EvolutionCheckpoints::StateAt(int64_t checkpoint,
                                           NodeId node) const {
  CPDG_CHECK_GE(checkpoint, 0);
  CPDG_CHECK_LT(checkpoint, num_checkpoints());
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  return snapshots_[static_cast<size_t>(checkpoint)].data() + node * dim_;
}

void EvolutionCheckpoints::SerializeTo(std::string* out) const {
  util::ByteWriter w(out);
  w.Pod(num_nodes_);
  w.Pod(dim_);
  w.Pod(static_cast<uint32_t>(snapshots_.size()));
  for (const std::vector<float>& snapshot : snapshots_) {
    w.PodVector(snapshot);
  }
}

Status EvolutionCheckpoints::DeserializeFrom(std::string_view bytes) {
  util::ByteReader r(bytes);
  int64_t num_nodes = 0, dim = 0;
  uint32_t count = 0;
  if (!r.Pod(&num_nodes) || !r.Pod(&dim) || !r.Pod(&count)) {
    return Status::InvalidArgument("truncated evolution-checkpoint header");
  }
  if (num_nodes < 0 || dim < 0) {
    return Status::InvalidArgument("corrupt evolution-checkpoint shape");
  }
  std::vector<std::vector<float>> snapshots(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.PodVector(&snapshots[i])) {
      return Status::InvalidArgument("truncated evolution snapshot " +
                                     std::to_string(i));
    }
    if (snapshots[i].size() != static_cast<size_t>(num_nodes * dim)) {
      return Status::InvalidArgument("evolution snapshot " +
                                     std::to_string(i) + " size mismatch");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "trailing garbage in evolution-checkpoint payload");
  }
  num_nodes_ = num_nodes;
  dim_ = dim;
  snapshots_ = std::move(snapshots);
  return Status::OK();
}

const char* EieVariantName(EieVariant variant) {
  switch (variant) {
    case EieVariant::kMean:
      return "EIE-mean";
    case EieVariant::kAttention:
      return "EIE-attn";
    case EieVariant::kGru:
      return "EIE-GRU";
  }
  return "?";
}

EvolutionFusion::EvolutionFusion(EieVariant variant, int64_t state_dim,
                                 int64_t out_dim, Rng* rng)
    : variant_(variant), state_dim_(state_dim), out_dim_(out_dim) {
  switch (variant_) {
    case EieVariant::kMean:
      break;
    case EieVariant::kAttention:
      attention_ = std::make_unique<ts::GroupedAttentionLayer>(
          state_dim, state_dim, state_dim, state_dim, rng);
      RegisterModule(attention_.get());
      break;
    case EieVariant::kGru:
      gru_ = std::make_unique<ts::GruCell>(state_dim, state_dim, rng);
      RegisterModule(gru_.get());
      break;
  }
  adapter_ = std::make_unique<ts::Mlp>(
      std::vector<int64_t>{state_dim, out_dim, out_dim}, rng);
  RegisterModule(adapter_.get());
}

tensor::Tensor EvolutionFusion::Fuse(const EvolutionCheckpoints& checkpoints,
                                     const std::vector<NodeId>& nodes) const {
  CPDG_CHECK(!checkpoints.empty());
  CPDG_CHECK_EQ(checkpoints.dim(), state_dim_);
  int64_t n = static_cast<int64_t>(nodes.size());
  int64_t l = checkpoints.num_checkpoints();
  int64_t d = state_dim_;

  // Materializes checkpoint `c` states for the node batch as a leaf.
  auto checkpoint_tensor = [&](int64_t c) {
    ts::Tensor out = ts::Tensor::Zeros(n, d);
    for (int64_t i = 0; i < n; ++i) {
      const float* s = checkpoints.StateAt(c, nodes[static_cast<size_t>(i)]);
      std::copy(s, s + d, out.data() + i * d);
    }
    return out;
  };

  switch (variant_) {
    case EieVariant::kMean: {
      ts::Tensor acc = checkpoint_tensor(0);
      for (int64_t c = 1; c < l; ++c) {
        acc = ts::Add(acc, checkpoint_tensor(c));
      }
      return ts::MulScalar(acc, 1.0f / static_cast<float>(l));
    }
    case EieVariant::kAttention: {
      // Query: the freshest checkpoint; candidates: the full sequence
      // grouped per node (slot i*l + c).
      ts::Tensor query = checkpoint_tensor(l - 1);
      ts::Tensor candidates = ts::Tensor::Zeros(n * l, d);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t c = 0; c < l; ++c) {
          const float* s =
              checkpoints.StateAt(c, nodes[static_cast<size_t>(i)]);
          std::copy(s, s + d, candidates.data() + (i * l + c) * d);
        }
      }
      std::vector<uint8_t> valid(static_cast<size_t>(n * l), 1);
      return attention_->Forward(query, candidates, l, valid);
    }
    case EieVariant::kGru: {
      ts::Tensor h = ts::Tensor::Zeros(n, d);
      for (int64_t c = 0; c < l; ++c) {
        h = gru_->Forward(checkpoint_tensor(c), h);
      }
      return h;
    }
  }
  CPDG_CHECK(false) << "unreachable";
  return ts::Tensor();
}

tensor::Tensor EvolutionFusion::Forward(
    const EvolutionCheckpoints& checkpoints,
    const std::vector<NodeId>& nodes) const {
  CPDG_CHECK(!nodes.empty());
  return adapter_->Forward(Fuse(checkpoints, nodes));
}

}  // namespace cpdg::core
