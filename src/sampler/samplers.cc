#include "sampler/samplers.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/arena.h"
#include "util/check.h"

namespace cpdg::sampler {

namespace {

// Traversal scratch lives in arena-backed vectors: under an ArenaScope
// (TrainLoop's thread) the per-call buffers recycle through the thread's
// pool instead of hitting global operator new — the contrast objective
// runs thousands of these traversals per batch.
template <typename T>
using AVec = std::vector<T, tensor::ArenaAllocator<T>>;

// Membership is tracked in a flat vector with linear scans: sampled
// subgraphs hold at most width^depth nodes (single digits to low tens),
// where scanning beats a heap-allocating hash set.
bool SeenInsert(AVec<graph::NodeId>* seen, graph::NodeId node) {
  for (graph::NodeId s : *seen) {
    if (s == node) return false;
  }
  seen->push_back(node);
  return true;
}

/// Sampler hot-path metrics. Resolved once (the registry lookup takes a
/// mutex); the updates themselves are relaxed atomics.
struct SamplerMetrics {
  obs::Counter& eta_bfs_calls =
      obs::MetricsRegistry::Global().counter("sampler.eta_bfs.calls");
  obs::Counter& eta_bfs_expansions = obs::MetricsRegistry::Global().counter(
      "sampler.eta_bfs.frontier_expansions");
  obs::Histogram& eta_bfs_nodes =
      obs::MetricsRegistry::Global().histogram("sampler.eta_bfs.nodes");
  obs::Counter& eps_dfs_calls =
      obs::MetricsRegistry::Global().counter("sampler.eps_dfs.calls");
  obs::Counter& eps_dfs_expansions = obs::MetricsRegistry::Global().counter(
      "sampler.eps_dfs.frontier_expansions");
  obs::Histogram& eps_dfs_nodes =
      obs::MetricsRegistry::Global().histogram("sampler.eps_dfs.nodes");
  obs::Counter& neighbor_batch_calls =
      obs::MetricsRegistry::Global().counter("sampler.neighbor_batch.calls");

  static SamplerMetrics& Get() {
    static SamplerMetrics* metrics = new SamplerMetrics();
    return *metrics;
  }
};

// Shared implementation over any vector type; `probs` is resized and
// doubles as the logits buffer, so the computation allocates nothing
// beyond (amortized) growth of the output. The floating-point operation
// sequence matches the historical implementation exactly.
template <typename VecIn, typename VecOut>
void TemporalProbabilitiesInto(const VecIn& neighbor_times, double t,
                               TemporalBias bias, double tau, VecOut* probs) {
  CPDG_CHECK(!neighbor_times.empty());
  CPDG_CHECK_GT(tau, 0.0);
  size_t n = neighbor_times.size();
  probs->assign(n, 1.0 / static_cast<double>(n));
  if (bias == TemporalBias::kUniform) return;

  double t_min = *std::min_element(neighbor_times.begin(),
                                   neighbor_times.end());
  double denom = t - t_min;
  if (denom <= 0.0) return;  // all events at the query time: uniform

  // Eq. (6): normalized event time in [0,1]; Eq. (7)/(8): softmax of the
  // (reversed) normalized time with temperature tau. The logits overwrite
  // `probs` in place before the softmax reads them back.
  for (size_t i = 0; i < n; ++i) {
    double t_hat = (neighbor_times[i] - t_min) / denom;
    if (bias == TemporalBias::kReverseChronological) t_hat = 1.0 - t_hat;
    (*probs)[i] = t_hat / tau;
  }
  double mx = *std::max_element(probs->begin(), probs->end());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    (*probs)[i] = std::exp((*probs)[i] - mx);
    sum += (*probs)[i];
  }
  for (double& p : *probs) p /= sum;
}

}  // namespace

std::vector<double> TemporalProbabilities(
    const std::vector<double>& neighbor_times, double t, TemporalBias bias,
    double tau) {
  std::vector<double> probs;
  TemporalProbabilitiesInto(neighbor_times, t, bias, tau, &probs);
  return probs;
}

StructuralTemporalSampler::StructuralTemporalSampler(const GraphStore* graph)
    : graph_(graph) {
  CPDG_CHECK(graph != nullptr);
}

SubgraphSample StructuralTemporalSampler::SampleEtaBfs(
    NodeId root, double time, TemporalBias bias, const Options& options,
    Rng* rng) const {
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_GT(options.width, 0);
  CPDG_CHECK_GT(options.depth, 0);
  CPDG_TRACE_SPAN("sampler/eta_bfs");

  SubgraphSample out;
  AVec<NodeId> seen;
  seen.push_back(root);

  graph::NeighborScratch scratch;
  // Scratch hoisted out of the hop loop: one traversal reuses the same
  // buffers across every expansion.
  AVec<std::pair<NodeId, double>> frontier = {{root, time}};
  AVec<std::pair<NodeId, double>> next;
  AVec<double> times;
  AVec<double> probs;
  for (int64_t hop = 0; hop < options.depth && !frontier.empty(); ++hop) {
    next.clear();
    for (const auto& [u, ut] : frontier) {
      ++out.frontier_expansions;
      auto view = graph_->NeighborsBefore(u, ut, &scratch);
      if (view.empty()) continue;

      times.resize(static_cast<size_t>(view.count));
      for (int64_t i = 0; i < view.count; ++i) times[i] = view[i].time;
      TemporalProbabilitiesInto(times, ut, bias, options.temperature,
                                &probs);

      // Weighted sampling without replacement: draw up to `width` distinct
      // neighbor positions by zeroing drawn weights. The remaining mass is
      // tracked as a running total decremented by each drawn weight, so an
      // expansion costs O(draws * n) scans but only one initial summation.
      double total = 0.0;
      for (double p : probs) total += p;
      int64_t draws = std::min(options.width, view.count);
      for (int64_t d = 0; d < draws; ++d) {
        if (total <= 0.0) break;
        double x = rng->NextDouble() * total;
        double acc = 0.0;
        size_t pick = probs.size();
        size_t last_alive = probs.size();
        for (size_t i = 0; i < probs.size(); ++i) {
          if (probs[i] <= 0.0) continue;  // already drawn
          last_alive = i;
          acc += probs[i];
          if (x < acc) {
            pick = i;
            break;
          }
        }
        // Rounding in the decremented total can push x past the remaining
        // mass; fall back to the last undrawn position.
        if (pick == probs.size()) pick = last_alive;
        if (pick == probs.size()) break;  // every weight already drawn
        total -= probs[pick];
        probs[pick] = 0.0;
        const auto& nbr = view[static_cast<int64_t>(pick)];
        // Only a newly discovered node enters the next frontier: frontier
        // entries would otherwise duplicate at every deeper hop. Expansion
        // happens at the time of the sampled interaction, so deeper hops
        // only see the past of that interaction.
        if (SeenInsert(&seen, nbr.node)) {
          out.nodes.push_back(nbr.node);
          out.times.push_back(nbr.time);
          next.emplace_back(nbr.node, nbr.time);
        }
      }
    }
    std::swap(frontier, next);
  }
  SamplerMetrics& metrics = SamplerMetrics::Get();
  metrics.eta_bfs_calls.Add();
  metrics.eta_bfs_expansions.Add(out.frontier_expansions);
  metrics.eta_bfs_nodes.Observe(static_cast<double>(out.size()));
  return out;
}

SubgraphSample StructuralTemporalSampler::SampleEpsilonDfs(
    NodeId root, double time, const Options& options) const {
  CPDG_CHECK_GT(options.width, 0);
  CPDG_CHECK_GT(options.depth, 0);
  CPDG_TRACE_SPAN("sampler/eps_dfs");

  SubgraphSample out;
  AVec<NodeId> seen;
  seen.push_back(root);

  // Explicit stack of (node, time, remaining_depth); expansion picks the
  // ε most recent neighbors (the tail of the chronologically sorted
  // NS_i^t of Eq. 5).
  struct Frame {
    NodeId node;
    double time;
    int64_t depth_left;
  };
  graph::NeighborScratch scratch;
  AVec<Frame> stack = {{root, time, options.depth}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    ++out.frontier_expansions;
    if (f.depth_left == 0) continue;
    auto view = graph_->NeighborsBefore(f.node, f.time, &scratch);
    if (view.empty()) continue;
    int64_t take = std::min(options.width, view.count);
    // Most recent `take` entries, pushed oldest first so the newest sampled
    // neighbor ends on top of the LIFO stack and is explored deepest-first
    // (the chronological-tail order of Eq. 5).
    for (int64_t i = take - 1; i >= 0; --i) {
      const auto& nbr = view[view.count - 1 - i];
      if (SeenInsert(&seen, nbr.node)) {
        out.nodes.push_back(nbr.node);
        out.times.push_back(nbr.time);
      }
      stack.push_back({nbr.node, nbr.time, f.depth_left - 1});
    }
  }
  SamplerMetrics& metrics = SamplerMetrics::Get();
  metrics.eps_dfs_calls.Add();
  metrics.eps_dfs_expansions.Add(out.frontier_expansions);
  metrics.eps_dfs_nodes.Observe(static_cast<double>(out.size()));
  return out;
}

NeighborBatch SampleNeighborBatch(const GraphStore& graph,
                                  const std::vector<NodeId>& roots,
                                  const std::vector<double>& times,
                                  int64_t group, NeighborStrategy strategy,
                                  Rng* rng) {
  CPDG_CHECK_EQ(roots.size(), times.size());
  CPDG_CHECK_GT(group, 0);
  if (strategy == NeighborStrategy::kUniform) {
    CPDG_CHECK(rng != nullptr);
  }
  CPDG_TRACE_SPAN("sampler/neighbor_batch");
  SamplerMetrics::Get().neighbor_batch_calls.Add();

  int64_t n = static_cast<int64_t>(roots.size());
  NeighborBatch batch;
  batch.group = group;
  batch.nodes.assign(static_cast<size_t>(n * group), -1);
  batch.times.assign(static_cast<size_t>(n * group), 0.0);
  batch.valid.assign(static_cast<size_t>(n * group), 0);

  graph::NeighborScratch scratch;
  for (int64_t i = 0; i < n; ++i) {
    auto view = graph.NeighborsBefore(roots[static_cast<size_t>(i)],
                                      times[static_cast<size_t>(i)], &scratch);
    if (view.empty()) continue;
    int64_t take = std::min(group, view.count);
    for (int64_t j = 0; j < take; ++j) {
      int64_t src_idx;
      if (strategy == NeighborStrategy::kMostRecent) {
        src_idx = view.count - take + j;  // chronological tail
      } else {
        src_idx = static_cast<int64_t>(
            rng->NextBounded(static_cast<uint64_t>(view.count)));
      }
      int64_t slot = i * group + j;
      batch.nodes[static_cast<size_t>(slot)] = view[src_idx].node;
      batch.times[static_cast<size_t>(slot)] = view[src_idx].time;
      batch.valid[static_cast<size_t>(slot)] = 1;
    }
  }
  return batch;
}

std::vector<NodeId> TemporalRandomWalk(const GraphStore& graph, NodeId root,
                                       double time, int64_t length, Rng* rng) {
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_GE(length, 0);
  std::vector<NodeId> walk = {root};
  NodeId cur = root;
  double cur_time = time;
  graph::NeighborScratch scratch;
  for (int64_t step = 0; step < length; ++step) {
    auto view = graph.NeighborsBefore(cur, cur_time, &scratch);
    if (view.empty()) break;
    int64_t pick = static_cast<int64_t>(
        rng->NextBounded(static_cast<uint64_t>(view.count)));
    cur = view[pick].node;
    cur_time = view[pick].time;
    walk.push_back(cur);
  }
  return walk;
}

}  // namespace cpdg::sampler
