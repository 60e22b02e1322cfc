#ifndef CPDG_SAMPLER_SAMPLERS_H_
#define CPDG_SAMPLER_SAMPLERS_H_

#include <cstdint>
#include <vector>

#include "graph/graph_store.h"
#include "tensor/arena.h"
#include "util/rng.h"

namespace cpdg::sampler {

using graph::GraphStore;
using graph::NodeId;

/// Arena-backed containers for sampled subgraphs: under an ArenaScope
/// (the training thread) they recycle through the thread's batch pool;
/// outside a scope they behave like plain vectors.
using ArenaNodeVec = std::vector<NodeId, tensor::ArenaAllocator<NodeId>>;
using ArenaTimeVec = std::vector<double, tensor::ArenaAllocator<double>>;

/// \brief Temporal-aware sampling probability f_{t->p} for the η-BFS
/// strategy (Sec. IV-A / IV-B of the paper).
///
///  - kChronological: Eq. (6)-(7) — recent neighbors more likely; used to
///    draw the temporal *positive* subgraph TP_i^t.
///  - kReverseChronological: Eq. (8) — agelong neighbors more likely; used
///    to draw the temporal *negative* subgraph TN_i^t.
///  - kUniform: baseline choice used by existing DGNN samplers.
enum class TemporalBias {
  kChronological,
  kReverseChronological,
  kUniform,
};

/// \brief A sampled context subgraph: the unique node ids it contains
/// (excluding the root) plus, per node, the interaction time through which
/// it was reached (useful for diagnostics and tests).
struct SubgraphSample {
  ArenaNodeVec nodes;
  ArenaTimeVec times;
  /// Number of frontier entries the traversal expanded across all hops
  /// (diagnostics). The η-BFS frontier is deduplicated against the seen
  /// set, so this is bounded by the nodes added plus the root.
  int64_t frontier_expansions = 0;

  bool empty() const { return nodes.empty(); }
  int64_t size() const { return static_cast<int64_t>(nodes.size()); }
};

/// \brief Computes the normalized sampling probabilities of Eq. (6)-(8)
/// over a node's temporal neighborhood. Exposed for testing.
///
/// `neighbor_times` are the event times t_u (< t); `t` is the query time;
/// `tau` is the softmax temperature. Degenerate neighborhoods (all events
/// at the same time) fall back to uniform.
std::vector<double> TemporalProbabilities(
    const std::vector<double>& neighbor_times, double t, TemporalBias bias,
    double tau);

/// \brief The structural-temporal subgraph sampler of Sec. IV-A.
///
/// Provides the η-BFS strategy (breadth-first with temporal-aware sampling
/// probabilities; Fig. 3) and the ε-DFS strategy (depth-first over the most
/// recently interacted neighbors; Fig. 4 / Eq. 5).
class StructuralTemporalSampler {
 public:
  struct Options {
    /// Samples per expansion: η for BFS, ε for DFS.
    int64_t width = 2;
    /// Recursion depth k (number of hops).
    int64_t depth = 2;
    /// Softmax temperature τ of Eq. (7)-(8).
    double temperature = 0.2;
  };

  explicit StructuralTemporalSampler(const GraphStore* graph);

  /// \brief η-BFS sampling rooted at `root` as of `time`.
  ///
  /// Each hop draws up to `options.width` distinct neighbors per frontier
  /// node without replacement, weighted by the temporal-aware probability.
  /// Returns the union of all sampled nodes over `options.depth` hops.
  SubgraphSample SampleEtaBfs(NodeId root, double time, TemporalBias bias,
                              const Options& options, Rng* rng) const;

  /// \brief ε-DFS sampling rooted at `root` as of `time`: recursively
  /// expands the ε most-recently-interacted neighbors (Eq. 5). The
  /// expansion is deterministic given the graph.
  SubgraphSample SampleEpsilonDfs(NodeId root, double time,
                                  const Options& options) const;

  const GraphStore& graph() const { return *graph_; }

 private:
  const GraphStore* graph_;
};

/// \brief Fixed-width temporal neighbor batch used by DGNN embedding
/// modules: for each of n roots, up to `group` neighbors interacted before
/// the root's query time, padded with invalid entries.
struct NeighborBatch {
  int64_t group = 0;
  std::vector<NodeId> nodes;    // n*group; -1 for padding
  std::vector<double> times;    // interaction times (0 for padding)
  std::vector<uint8_t> valid;   // 1 for real entries
};

/// \brief Strategy for picking the fixed-width neighbor set.
enum class NeighborStrategy { kMostRecent, kUniform };

/// \brief Samples fixed-width temporal neighborhoods for a batch of
/// (root, time) queries. `rng` may be null for kMostRecent.
NeighborBatch SampleNeighborBatch(const GraphStore& graph,
                                  const std::vector<NodeId>& roots,
                                  const std::vector<double>& times,
                                  int64_t group, NeighborStrategy strategy,
                                  Rng* rng);

/// \brief Temporal random walk of the given length starting at `root`
/// (each step moves to a uniformly sampled neighbor that interacted before
/// `time`). Used by DeepWalk-style baselines; returns visited nodes
/// including the root.
std::vector<NodeId> TemporalRandomWalk(const GraphStore& graph, NodeId root,
                                       double time, int64_t length, Rng* rng);

}  // namespace cpdg::sampler

#endif  // CPDG_SAMPLER_SAMPLERS_H_
