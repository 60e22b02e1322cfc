#include "ssl/ssl_baselines.h"

#include <algorithm>

#include "tensor/losses.h"
#include "tensor/ops.h"
#include "train/link_batch.h"
#include "train/train_loop.h"
#include "util/check.h"

namespace cpdg::ssl {

namespace ts = cpdg::tensor;
using graph::NodeId;

namespace {

/// Neighbors of `node` with interaction time in [t_lo, t_hi).
std::vector<NodeId> NeighborsInWindow(const graph::GraphStore& graph,
                                      NodeId node, double t_lo, double t_hi) {
  std::vector<NodeId> out;
  graph::NeighborScratch scratch;
  auto view = graph.NeighborsBefore(node, t_hi, &scratch);
  for (int64_t i = view.count - 1; i >= 0; --i) {
    if (view[i].time < t_lo) break;  // chronologically sorted
    out.push_back(view[i].node);
  }
  return out;
}

/// Flushes both endpoints of every batch event so memory keeps advancing
/// when an objective finds no usable anchors in the batch.
void AdvanceMemoryOnly(dgnn::DgnnEncoder* encoder,
                       const std::vector<graph::Event>& events) {
  std::vector<NodeId> touched;
  for (const graph::Event& e : events) {
    touched.push_back(e.src);
    touched.push_back(e.dst);
  }
  ts::Tensor unused = encoder->ComputeUpdatedStates(touched);
  (void)unused;
}

train::TrainLoopOptions MakeLoopOptions(const SslTrainOptions& options,
                                        const char* label) {
  train::TrainLoopOptions loop_options;
  loop_options.epochs = options.epochs;
  loop_options.learning_rate = options.learning_rate;
  loop_options.grad_clip = options.grad_clip;
  loop_options.log_label = label;
  return loop_options;
}

}  // namespace

train::TrainTelemetry PretrainDdgcl(dgnn::DgnnEncoder* encoder,
                                    const graph::GraphStore& graph,
                                    const SslTrainOptions& options,
                                    Rng* rng) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(rng != nullptr);
  int64_t d = encoder->config().embed_dim;
  CPDG_CHECK_EQ(d, encoder->config().memory_dim);

  // Bilinear time-dependent critic: score(z, h) = rowsum(z * (h W)).
  Rng init_rng = rng->Split();
  ts::Tensor critic_w = ts::Tensor::XavierUniform(d, d, &init_rng, true);

  std::vector<ts::Tensor> params = encoder->Parameters();
  params.push_back(critic_w);

  // Anchor/view collection is a deterministic function of the const graph,
  // so it is the prepare stage; no RNG stream is consumed.
  struct DdgclViews {
    std::vector<NodeId> anchors;
    std::vector<double> anchor_times;
    std::vector<std::vector<NodeId>> view_recent, view_earlier;
  };

  train::TrainLoop loop(std::move(params), MakeLoopOptions(options, "DDGCL"));
  return loop.RunChronological(
      encoder, graph, options.batch_size,
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          Rng*) -> std::any {
        // Collect anchors with non-empty nearby views.
        DdgclViews views;
        for (const graph::Event& e : batch.events) {
          if (static_cast<int64_t>(views.anchors.size()) >=
              options.max_anchors) {
            break;
          }
          double w = options.view_window;
          std::vector<NodeId> recent =
              NeighborsInWindow(graph, e.src, e.time - w, e.time);
          std::vector<NodeId> earlier =
              NeighborsInWindow(graph, e.src, e.time - 2 * w, e.time - w);
          if (recent.empty() || earlier.empty()) continue;
          views.anchors.push_back(e.src);
          views.anchor_times.push_back(e.time);
          views.view_recent.push_back(std::move(recent));
          views.view_earlier.push_back(std::move(earlier));
        }
        return views;
      },
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          std::any& prepared) -> std::optional<ts::Tensor> {
        DdgclViews& views = *std::any_cast<DdgclViews>(&prepared);
        const std::vector<NodeId>& anchors = views.anchors;
        const std::vector<double>& anchor_times = views.anchor_times;
        const std::vector<std::vector<NodeId>>& view_recent =
            views.view_recent;
        const std::vector<std::vector<NodeId>>& view_earlier =
            views.view_earlier;

        if (anchors.empty()) {
          // Keep memory advancing even when no anchor qualifies.
          AdvanceMemoryOnly(encoder, batch.events);
          return std::nullopt;
        }

        ts::Tensor z = encoder->ComputeEmbeddings(anchors, anchor_times);
        // Pool each view from memory states.
        auto pool = [&](const std::vector<std::vector<NodeId>>& views) {
          std::vector<NodeId> all;
          std::vector<int64_t> offsets = {0};
          for (const auto& v : views) {
            all.insert(all.end(), v.begin(), v.end());
            offsets.push_back(static_cast<int64_t>(all.size()));
          }
          return ts::SegmentMean(encoder->ComputeUpdatedStates(all),
                                 offsets);
        };
        ts::Tensor h_recent = pool(view_recent);
        ts::Tensor h_earlier = pool(view_earlier);

        // Positive: agreement between the node's two views; negative: the
        // recent view of a shifted (different) anchor.
        int64_t n = z.rows();
        std::vector<int64_t> shifted(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) shifted[i] = (i + 1) % n;
        ts::Tensor h_neg = ts::Gather(h_recent, shifted);

        auto score = [&](const ts::Tensor& a, const ts::Tensor& b) {
          return ts::RowSum(ts::Mul(a, ts::MatMul(b, critic_w)));
        };
        ts::Tensor pos1 = score(z, h_recent);
        ts::Tensor pos2 = score(h_earlier, h_recent);
        ts::Tensor neg = score(z, h_neg);
        ts::Tensor logits = ts::ConcatRows({pos1, pos2, neg});
        return train::StackedBceLoss(logits, 2 * n);
      });
}

train::TrainTelemetry PretrainSelfRgnn(dgnn::DgnnEncoder* encoder,
                                       const graph::GraphStore& graph,
                                       const SslTrainOptions& options,
                                       Rng* rng) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_EQ(encoder->config().embed_dim, encoder->config().memory_dim);

  // Learnable time-varying curvature: kappa(t) = kappa0 + kappa1 * t.
  ts::Tensor kappa0 = ts::Tensor::Zeros(1, 1, true);
  ts::Tensor kappa1 = ts::Tensor::Zeros(1, 1, true);

  std::vector<ts::Tensor> params = encoder->Parameters();
  params.push_back(kappa0);
  params.push_back(kappa1);

  // Anchor selection only reads const graph state, so it is the prepare
  // stage; see the DDGCL note above.
  struct SelfRgnnAnchors {
    std::vector<NodeId> anchors;
    std::vector<double> anchor_times;
  };

  train::TrainLoop loop(std::move(params),
                        MakeLoopOptions(options, "SelfRGNN"));
  return loop.RunChronological(
      encoder, graph, options.batch_size,
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          Rng*) -> std::any {
        SelfRgnnAnchors out;
        graph::NeighborScratch scratch;
        for (const graph::Event& e : batch.events) {
          if (static_cast<int64_t>(out.anchors.size()) >=
              options.max_anchors) {
            break;
          }
          if (graph.NeighborsBefore(e.src, e.time, &scratch).empty()) continue;
          out.anchors.push_back(e.src);
          out.anchor_times.push_back(e.time);
        }
        return out;
      },
      [&](const train::BatchContext&, const graph::EventBatch& batch,
          std::any& prepared) -> std::optional<ts::Tensor> {
        SelfRgnnAnchors& sel = *std::any_cast<SelfRgnnAnchors>(&prepared);
        const std::vector<NodeId>& anchors = sel.anchors;
        const std::vector<double>& anchor_times = sel.anchor_times;

        if (anchors.empty()) {
          AdvanceMemoryOnly(encoder, batch.events);
          return std::nullopt;
        }

        int64_t n = static_cast<int64_t>(anchors.size());
        ts::Tensor z = encoder->ComputeEmbeddings(anchors, anchor_times);
        // Positive: the node's own (past) memory state; negative: a
        // shifted anchor's state.
        ts::Tensor own = encoder->ComputeUpdatedStates(anchors);
        std::vector<int64_t> shifted(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) shifted[i] = (i + 1) % n;
        ts::Tensor other = ts::Gather(own, shifted);

        // Riemannian reweighting proxy: distances scaled by
        // sigmoid(kappa(t)) with the batch's mean time.
        double mean_t = 0.0;
        for (double t : anchor_times) mean_t += t;
        mean_t /= static_cast<double>(n);
        ts::Tensor kappa = ts::Add(
            kappa0, ts::MulScalar(kappa1, static_cast<float>(mean_t)));
        ts::Tensor weight = ts::Sigmoid(kappa);  // [1,1]

        ts::Tensor d_pos = ts::RowEuclideanDistance(z, own);
        ts::Tensor d_neg = ts::RowEuclideanDistance(z, other);
        ts::Tensor margin_term =
            ts::Relu(ts::AddScalar(ts::Sub(d_pos, d_neg), 1.0f));
        // Scale the per-row hinge by the curvature weight (broadcast via
        // matmul with the [1,1] weight).
        return ts::Mean(ts::MatMul(margin_term, weight));
      });
}

}  // namespace cpdg::ssl
