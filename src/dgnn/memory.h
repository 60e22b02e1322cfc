#ifndef CPDG_DGNN_MEMORY_H_
#define CPDG_DGNN_MEMORY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace cpdg::dgnn {

using graph::NodeId;

/// \brief The DGNN memory M of Sec. III-B: one compressed state vector
/// s_i^t per node, the node's last-update timestamp, and a buffer of raw
/// (not yet flushed) interaction messages.
///
/// States are stored detached from any computation graph; the encoder
/// re-attaches them as leaf tensors when it processes a batch, exactly as
/// TGN detaches memory between batches. New nodes start from the zero
/// vector (the paper's initialization).
class Memory {
 public:
  Memory(int64_t num_nodes, int64_t dim);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t dim() const { return dim_; }

  /// \brief Monotonic mutation counter: bumped by every state-changing call
  /// (SetStates, SetLastUpdate, EnqueueMessage, ClearPending, Reset,
  /// RestoreFlat, DeserializeFrom). Two reads at the same version are
  /// guaranteed to observe identical memory, so derived artifacts — the
  /// serving engine's node-embedding cache in particular — can be keyed on
  /// (node, version) and invalidated by comparing versions instead of
  /// diffing states. Const accessors never bump it.
  uint64_t version() const { return version_; }

  /// Resets all states to zero and clears timestamps and pending messages.
  void Reset();

  /// \brief Raw (undirected) interaction message enqueued at event time and
  /// flushed through Msg/Agg/Mem the next time the node is touched.
  struct RawMessage {
    NodeId other = -1;
    double time = 0.0;
  };

  /// Gathers states for `nodes` into a detached [n, dim] leaf tensor.
  tensor::Tensor GetStates(const std::vector<NodeId>& nodes) const;

  /// Writes row i of `states` into node `nodes[i]`'s slot (data copy only).
  void SetStates(const std::vector<NodeId>& nodes,
                 const tensor::Tensor& states);

  /// Copies the dim() floats at `row` into node `node`'s slot.
  void SetState(NodeId node, const float* row);

  /// Direct read access to one node's state.
  const float* StateData(NodeId node) const;

  double LastUpdate(NodeId node) const;
  void SetLastUpdate(NodeId node, double time);

  void EnqueueMessage(NodeId node, RawMessage message);
  bool HasPending(NodeId node) const;
  const std::vector<RawMessage>& Pending(NodeId node) const;
  void ClearPending(NodeId node);

  /// \brief Flat copy of all states (num_nodes * dim, row-major); the
  /// memory checkpoint S^l stored during pre-training for EIE (Eq. 18).
  std::vector<float> SnapshotFlat() const;

  /// \brief Restores states from a flat snapshot (timestamps/pending are
  /// untouched).
  void RestoreFlat(const std::vector<float>& snapshot);

  /// L2 norm of the full state matrix; used by tests and diagnostics.
  double StateNorm() const;

  /// \brief Appends the complete memory to `out`: states, last-update
  /// timestamps AND the pending raw-message queues. Unlike SnapshotFlat
  /// (which EIE uses for state-only snapshots), this captures everything a
  /// crash-safe resume needs — unflushed messages change the next batch's
  /// Msg/Agg/Mem flush, so dropping them would break bit-exact resume.
  void SerializeTo(std::string* out) const;

  /// \brief Restores state written by SerializeTo. Validates the node
  /// count and dimension against this memory before mutating anything
  /// (all-or-nothing); corrupt input fails with a descriptive Status.
  Status DeserializeFrom(std::string_view bytes);

 private:
  int64_t num_nodes_;
  int64_t dim_;
  uint64_t version_ = 0;
  std::vector<float> states_;       // num_nodes * dim
  std::vector<double> last_update_;  // num_nodes
  std::vector<std::vector<RawMessage>> pending_;  // num_nodes
};

}  // namespace cpdg::dgnn

#endif  // CPDG_DGNN_MEMORY_H_
