#ifndef CPDG_EVAL_EVALUATORS_H_
#define CPDG_EVAL_EVALUATORS_H_

#include <functional>
#include <unordered_set>
#include <vector>

#include "dgnn/encoder.h"
#include "eval/metrics.h"
#include "graph/temporal_graph.h"
#include "tensor/tensor.h"
#include "train/link_batch.h"
#include "train/telemetry.h"
#include "util/rng.h"

namespace cpdg::eval {

using graph::Event;
using graph::NodeId;

/// \brief Scores a batch of (src, dst) pairs at the given times, returning
/// logits [n,1]. Implementations wrap (encoder, decoder[, EIE fusion]).
using ScoreFn = std::function<tensor::Tensor(
    const std::vector<NodeId>& srcs, const std::vector<NodeId>& dsts,
    const std::vector<double>& times)>;

/// \brief Embeds a batch of nodes at the given times, [n, d].
using EmbedFn = train::EmbedFn;

struct LinkPredictionMetrics {
  double auc = 0.5;
  double ap = 0.0;
  int64_t num_scored_events = 0;
};

/// \brief Dynamic link prediction evaluation: walks `test_events`
/// chronologically in batches; for each event samples one negative
/// destination from `negative_pool` and scores (src,dst) vs (src,neg).
/// All events are committed into the encoder memory so later test events
/// see earlier ones — the standard TGN streaming protocol.
///
/// When `inductive_seen` is non-null, only events with at least one
/// endpoint absent from that set are *scored* (all events still advance
/// memory); this is the paper's inductive setting (Table IX).
LinkPredictionMetrics EvaluateDynamicLinkPrediction(
    dgnn::DgnnEncoder* encoder, const ScoreFn& score,
    const std::vector<Event>& test_events,
    const std::vector<NodeId>& negative_pool, int64_t batch_size, Rng* rng,
    const std::unordered_set<NodeId>* inductive_seen = nullptr);

struct NodeClassificationMetrics {
  double auc = 0.5;
  int64_t num_train_samples = 0;
  int64_t num_test_samples = 0;
  /// Training trace of the logistic head (one full-batch step per epoch).
  train::TrainTelemetry head_log;
};

/// \brief Dynamic node classification (Table VII): replays `events`
/// chronologically through the encoder, collecting (embedding, label)
/// pairs for every labeled event; trains a logistic head on samples with
/// time < train_end_time and reports ROC-AUC on samples with
/// time >= test_start_time.
NodeClassificationMetrics EvaluateDynamicNodeClassification(
    dgnn::DgnnEncoder* encoder, const EmbedFn& embed,
    const std::vector<Event>& events, double train_end_time,
    double test_start_time, int64_t batch_size, int64_t head_epochs,
    float head_lr, Rng* rng);

/// \brief Endpoints of all events, for building inductive "seen" sets.
std::unordered_set<NodeId> CollectNodes(const std::vector<Event>& events);

}  // namespace cpdg::eval

#endif  // CPDG_EVAL_EVALUATORS_H_
