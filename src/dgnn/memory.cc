#include "dgnn/memory.h"

#include <algorithm>
#include <cmath>

#include "util/byte_codec.h"
#include "util/check.h"

namespace cpdg::dgnn {

Memory::Memory(int64_t num_nodes, int64_t dim)
    : num_nodes_(num_nodes), dim_(dim) {
  CPDG_CHECK_GT(num_nodes, 0);
  CPDG_CHECK_GT(dim, 0);
  states_.assign(static_cast<size_t>(num_nodes * dim), 0.0f);
  last_update_.assign(static_cast<size_t>(num_nodes), 0.0);
  pending_.resize(static_cast<size_t>(num_nodes));
}

void Memory::Reset() {
  ++version_;
  std::fill(states_.begin(), states_.end(), 0.0f);
  std::fill(last_update_.begin(), last_update_.end(), 0.0);
  for (auto& p : pending_) p.clear();
}

tensor::Tensor Memory::GetStates(const std::vector<NodeId>& nodes) const {
  CPDG_CHECK(!nodes.empty());
  tensor::Tensor out =
      tensor::Tensor::Zeros(static_cast<int64_t>(nodes.size()), dim_);
  float* dst = out.data();
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::copy_n(StateData(nodes[i]), dim_,
                dst + static_cast<int64_t>(i) * dim_);
  }
  return out;
}

void Memory::SetStates(const std::vector<NodeId>& nodes,
                       const tensor::Tensor& states) {
  CPDG_CHECK_EQ(states.rows(), static_cast<int64_t>(nodes.size()));
  CPDG_CHECK_EQ(states.cols(), dim_);
  ++version_;
  const float* src = states.data();
  for (size_t i = 0; i < nodes.size(); ++i) {
    NodeId v = nodes[i];
    CPDG_CHECK_GE(v, 0);
    CPDG_CHECK_LT(v, num_nodes_);
    std::copy(src + static_cast<int64_t>(i) * dim_,
              src + static_cast<int64_t>(i + 1) * dim_,
              states_.begin() + v * dim_);
  }
}

void Memory::SetState(NodeId node, const float* row) {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  ++version_;
  std::copy_n(row, dim_, states_.begin() + node * dim_);
}

const float* Memory::StateData(NodeId node) const {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  return states_.data() + node * dim_;
}

double Memory::LastUpdate(NodeId node) const {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  return last_update_[static_cast<size_t>(node)];
}

void Memory::SetLastUpdate(NodeId node, double time) {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  ++version_;
  last_update_[static_cast<size_t>(node)] = time;
}

void Memory::EnqueueMessage(NodeId node, RawMessage message) {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  ++version_;
  pending_[static_cast<size_t>(node)].push_back(message);
}

bool Memory::HasPending(NodeId node) const {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  return !pending_[static_cast<size_t>(node)].empty();
}

const std::vector<Memory::RawMessage>& Memory::Pending(NodeId node) const {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  return pending_[static_cast<size_t>(node)];
}

void Memory::ClearPending(NodeId node) {
  CPDG_CHECK_GE(node, 0);
  CPDG_CHECK_LT(node, num_nodes_);
  ++version_;
  pending_[static_cast<size_t>(node)].clear();
}

std::vector<float> Memory::SnapshotFlat() const { return states_; }

void Memory::RestoreFlat(const std::vector<float>& snapshot) {
  CPDG_CHECK_EQ(snapshot.size(), states_.size());
  ++version_;
  states_ = snapshot;
}

void Memory::SerializeTo(std::string* out) const {
  util::ByteWriter w(out);
  w.Pod(num_nodes_);
  w.Pod(dim_);
  w.PodVector(states_);
  w.PodVector(last_update_);
  for (const std::vector<RawMessage>& queue : pending_) {
    w.Pod(static_cast<uint64_t>(queue.size()));
    for (const RawMessage& m : queue) {
      w.Pod(static_cast<int64_t>(m.other));
      w.Pod(m.time);
    }
  }
}

Status Memory::DeserializeFrom(std::string_view bytes) {
  util::ByteReader r(bytes);
  int64_t num_nodes = 0, dim = 0;
  if (!r.Pod(&num_nodes) || !r.Pod(&dim)) {
    return Status::InvalidArgument("truncated memory header");
  }
  if (num_nodes != num_nodes_ || dim != dim_) {
    return Status::FailedPrecondition(
        "memory checkpoint is " + std::to_string(num_nodes) + "x" +
        std::to_string(dim) + ", this memory is " +
        std::to_string(num_nodes_) + "x" + std::to_string(dim_));
  }
  std::vector<float> states;
  std::vector<double> last_update;
  if (!r.PodVector(&states) || !r.PodVector(&last_update)) {
    return Status::InvalidArgument("truncated memory payload");
  }
  if (states.size() != states_.size() ||
      last_update.size() != last_update_.size()) {
    return Status::InvalidArgument("memory payload size mismatch");
  }
  std::vector<std::vector<RawMessage>> pending(
      static_cast<size_t>(num_nodes_));
  for (int64_t v = 0; v < num_nodes_; ++v) {
    uint64_t count = 0;
    if (!r.Pod(&count)) {
      return Status::InvalidArgument("truncated pending-message count");
    }
    // Each message costs 16 bytes; bound before allocating.
    if (count > r.remaining() / 16) {
      return Status::InvalidArgument("corrupt pending-message count");
    }
    std::vector<RawMessage>& queue = pending[static_cast<size_t>(v)];
    queue.resize(static_cast<size_t>(count));
    for (RawMessage& m : queue) {
      int64_t other = 0;
      if (!r.Pod(&other) || !r.Pod(&m.time)) {
        return Status::InvalidArgument("truncated pending message");
      }
      if (other < 0 || other >= num_nodes_) {
        return Status::InvalidArgument("pending message references node " +
                                       std::to_string(other));
      }
      m.other = static_cast<NodeId>(other);
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing garbage in memory payload");
  }
  // Everything validated; commit (all-or-nothing).
  ++version_;
  states_ = std::move(states);
  last_update_ = std::move(last_update);
  pending_ = std::move(pending);
  return Status::OK();
}

double Memory::StateNorm() const {
  double acc = 0.0;
  for (float v : states_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

}  // namespace cpdg::dgnn
