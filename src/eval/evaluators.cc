#include "eval/evaluators.h"

#include <algorithm>
#include <cmath>

#include "dgnn/trainer.h"
#include "tensor/losses.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "train/train_loop.h"
#include "util/check.h"

namespace cpdg::eval {

namespace ts = cpdg::tensor;

std::unordered_set<NodeId> CollectNodes(const std::vector<Event>& events) {
  std::unordered_set<NodeId> nodes;
  for (const Event& e : events) {
    nodes.insert(e.src);
    nodes.insert(e.dst);
  }
  return nodes;
}

LinkPredictionMetrics EvaluateDynamicLinkPrediction(
    dgnn::DgnnEncoder* encoder, const ScoreFn& score,
    const std::vector<Event>& test_events,
    const std::vector<NodeId>& negative_pool, int64_t batch_size, Rng* rng,
    const std::unordered_set<NodeId>* inductive_seen) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_GT(batch_size, 0);

  std::vector<ScoredLabel> samples;
  int64_t num_nodes = encoder->memory().num_nodes();

  for (size_t start = 0; start < test_events.size();
       start += static_cast<size_t>(batch_size)) {
    size_t end = std::min(test_events.size(),
                          start + static_cast<size_t>(batch_size));
    std::vector<Event> batch(test_events.begin() + start,
                             test_events.begin() + end);

    std::vector<NodeId> srcs, dsts, negs;
    std::vector<double> times;
    for (const Event& e : batch) {
      bool scored = true;
      if (inductive_seen != nullptr) {
        scored = inductive_seen->count(e.src) == 0 ||
                 inductive_seen->count(e.dst) == 0;
      }
      if (!scored) continue;
      srcs.push_back(e.src);
      dsts.push_back(e.dst);
      negs.push_back(
          dgnn::SampleNegative(negative_pool, num_nodes, e.dst, rng));
      times.push_back(e.time);
    }

    encoder->BeginBatch();
    if (!srcs.empty()) {
      // One score call over stacked pairs: rows [0, n) are the (src, dst)
      // positives, rows [n, 2n) the (src, neg) negatives.
      size_t n = srcs.size();
      srcs.resize(2 * n);
      std::copy_n(srcs.begin(), n, srcs.begin() + n);
      dsts.insert(dsts.end(), negs.begin(), negs.end());
      times.resize(2 * n);
      std::copy_n(times.begin(), n, times.begin() + n);
      ts::Tensor probs = ts::Sigmoid(score(srcs, dsts, times));
      for (size_t i = 0; i < n; ++i) {
        samples.push_back({static_cast<double>(probs.data()[i]), 1});
        samples.push_back({static_cast<double>(probs.data()[n + i]), 0});
      }
    } else {
      // Still flush so CommitBatch below observes consistent state.
      std::vector<NodeId> touched;
      for (const Event& e : batch) {
        touched.push_back(e.src);
        touched.push_back(e.dst);
      }
      ts::Tensor unused = encoder->ComputeUpdatedStates(touched);
      (void)unused;
    }
    encoder->CommitBatch(batch);
  }

  LinkPredictionMetrics metrics;
  metrics.num_scored_events = static_cast<int64_t>(samples.size()) / 2;
  if (!samples.empty()) {
    metrics.auc = RocAuc(samples);
    metrics.ap = AveragePrecision(samples);
  }
  return metrics;
}

NodeClassificationMetrics EvaluateDynamicNodeClassification(
    dgnn::DgnnEncoder* encoder, const EmbedFn& embed,
    const std::vector<Event>& events, double train_end_time,
    double test_start_time, int64_t batch_size, int64_t head_epochs,
    float head_lr, Rng* rng) {
  CPDG_CHECK(encoder != nullptr);
  CPDG_CHECK(rng != nullptr);
  CPDG_CHECK_GT(batch_size, 0);

  // Pass 1: stream events, collecting detached embeddings of labeled
  // source nodes at event time.
  std::vector<std::vector<float>> features;
  std::vector<int32_t> labels;
  std::vector<double> sample_times;
  int64_t feat_dim = 0;

  for (size_t start = 0; start < events.size();
       start += static_cast<size_t>(batch_size)) {
    size_t end =
        std::min(events.size(), start + static_cast<size_t>(batch_size));
    std::vector<Event> batch(events.begin() + start, events.begin() + end);

    std::vector<NodeId> labeled_nodes;
    std::vector<double> labeled_times;
    std::vector<int32_t> labeled_labels;
    for (const Event& e : batch) {
      if (e.label >= 0) {
        labeled_nodes.push_back(e.src);
        labeled_times.push_back(e.time);
        labeled_labels.push_back(e.label);
      }
    }

    encoder->BeginBatch();
    if (!labeled_nodes.empty()) {
      ts::Tensor z = embed(labeled_nodes, labeled_times);
      feat_dim = z.cols();
      for (int64_t i = 0; i < z.rows(); ++i) {
        std::vector<float> row(static_cast<size_t>(feat_dim));
        for (int64_t c = 0; c < feat_dim; ++c) row[c] = z.at(i, c);
        features.push_back(std::move(row));
        labels.push_back(labeled_labels[static_cast<size_t>(i)]);
        sample_times.push_back(labeled_times[static_cast<size_t>(i)]);
      }
    } else {
      std::vector<NodeId> touched;
      for (const Event& e : batch) {
        touched.push_back(e.src);
        touched.push_back(e.dst);
      }
      ts::Tensor unused = encoder->ComputeUpdatedStates(touched);
      (void)unused;
    }
    encoder->CommitBatch(batch);
  }

  NodeClassificationMetrics metrics;
  if (features.empty() || feat_dim == 0) return metrics;

  // Split chronologically.
  std::vector<int64_t> train_idx, test_idx;
  for (size_t i = 0; i < features.size(); ++i) {
    if (sample_times[i] < train_end_time) {
      train_idx.push_back(static_cast<int64_t>(i));
    } else if (sample_times[i] >= test_start_time) {
      test_idx.push_back(static_cast<int64_t>(i));
    }
  }
  metrics.num_train_samples = static_cast<int64_t>(train_idx.size());
  metrics.num_test_samples = static_cast<int64_t>(test_idx.size());
  if (train_idx.empty() || test_idx.empty()) return metrics;

  // Labels are heavily imbalanced (state flips are rare); oversample
  // positives in the head's training set so the logistic head does not
  // collapse onto the majority class.
  {
    std::vector<int64_t> pos;
    for (int64_t i : train_idx) {
      if (labels[static_cast<size_t>(i)] == 1) pos.push_back(i);
    }
    if (!pos.empty()) {
      int64_t num_neg = static_cast<int64_t>(train_idx.size()) -
                        static_cast<int64_t>(pos.size());
      int64_t target_pos = num_neg / 3;  // aim for >= 25% positives
      Rng os_rng = rng->Split();
      while (static_cast<int64_t>(pos.size()) < target_pos &&
             !pos.empty()) {
        train_idx.push_back(pos[os_rng.NextBounded(pos.size())]);
        pos.push_back(train_idx.back());
      }
    }
  }

  // Standardize features with the training window's statistics: streamed
  // embeddings drift over time (memory keeps accumulating), and without
  // normalization the head's decision boundary goes stale by test time.
  std::vector<double> feat_mean(static_cast<size_t>(feat_dim), 0.0);
  std::vector<double> feat_std(static_cast<size_t>(feat_dim), 0.0);
  for (int64_t i : train_idx) {
    const auto& row = features[static_cast<size_t>(i)];
    for (int64_t c = 0; c < feat_dim; ++c) feat_mean[c] += row[c];
  }
  for (int64_t c = 0; c < feat_dim; ++c) {
    feat_mean[c] /= static_cast<double>(train_idx.size());
  }
  for (int64_t i : train_idx) {
    const auto& row = features[static_cast<size_t>(i)];
    for (int64_t c = 0; c < feat_dim; ++c) {
      double d = row[c] - feat_mean[c];
      feat_std[c] += d * d;
    }
  }
  for (int64_t c = 0; c < feat_dim; ++c) {
    feat_std[c] = std::sqrt(feat_std[c] /
                            static_cast<double>(train_idx.size()));
    if (feat_std[c] < 1e-6) feat_std[c] = 1.0;
  }

  auto build = [&](const std::vector<int64_t>& idx, ts::Tensor* x,
                   ts::Tensor* y) {
    int64_t n = static_cast<int64_t>(idx.size());
    std::vector<float> xd(static_cast<size_t>(n * feat_dim));
    std::vector<float> yd(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const auto& row = features[static_cast<size_t>(idx[i])];
      for (int64_t c = 0; c < feat_dim; ++c) {
        xd[static_cast<size_t>(i * feat_dim + c)] = static_cast<float>(
            (row[static_cast<size_t>(c)] - feat_mean[static_cast<size_t>(c)]) /
            feat_std[static_cast<size_t>(c)]);
      }
      yd[static_cast<size_t>(i)] =
          static_cast<float>(labels[static_cast<size_t>(idx[i])]);
    }
    *x = ts::Tensor::FromVector(n, feat_dim, std::move(xd));
    *y = ts::Tensor::FromVector(n, 1, std::move(yd));
  };
  ts::Tensor x_train, y_train, x_test, y_test;
  build(train_idx, &x_train, &y_train);
  build(test_idx, &x_test, &y_test);

  // Logistic head trained full-batch on frozen embeddings (the decoder of
  // the dynamic node classification protocol). One full-batch step per
  // epoch; no gradient clipping (grad_clip <= 0).
  Rng head_rng = rng->Split();
  ts::Mlp head({feat_dim, feat_dim / 2 > 0 ? feat_dim / 2 : 1, 1}, &head_rng);
  train::TrainLoopOptions head_options;
  head_options.epochs = head_epochs;
  head_options.learning_rate = head_lr;
  head_options.log_label = "node-cls head";
  train::TrainLoop head_loop(head.Parameters(), head_options);
  metrics.head_log = head_loop.RunSteps(
      1, [&](const train::BatchContext&) -> std::optional<ts::Tensor> {
        ts::Tensor logits = head.Forward(x_train);
        return ts::BceWithLogitsLoss(logits, y_train);
      });

  ts::Tensor probs = ts::Sigmoid(head.Forward(x_test));
  std::vector<ScoredLabel> samples;
  for (int64_t i = 0; i < probs.rows(); ++i) {
    samples.push_back({static_cast<double>(probs.at(i, 0)),
                       labels[static_cast<size_t>(test_idx[i])]});
  }
  metrics.auc = RocAuc(samples);
  return metrics;
}

}  // namespace cpdg::eval
