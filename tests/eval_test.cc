#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "dgnn/encoder.h"
#include "dgnn/trainer.h"
#include "eval/evaluators.h"
#include "graph/temporal_graph.h"
#include "tensor/ops.h"
#include "train/link_batch.h"

namespace cpdg::eval {
namespace {

TEST(RocAucTest, PerfectSeparation) {
  std::vector<ScoredLabel> s = {{0.9, 1}, {0.8, 1}, {0.2, 0}, {0.1, 0}};
  EXPECT_DOUBLE_EQ(RocAuc(s), 1.0);
}

TEST(RocAucTest, PerfectInversion) {
  std::vector<ScoredLabel> s = {{0.1, 1}, {0.2, 1}, {0.8, 0}, {0.9, 0}};
  EXPECT_DOUBLE_EQ(RocAuc(s), 0.0);
}

TEST(RocAucTest, RandomScoresGiveHalf) {
  std::vector<ScoredLabel> s = {{0.5, 1}, {0.5, 0}, {0.5, 1}, {0.5, 0}};
  EXPECT_DOUBLE_EQ(RocAuc(s), 0.5);  // all tied: half credit
}

TEST(RocAucTest, KnownPartialValue) {
  // Positives at ranks {4, 2} among 4 samples: AUC = 3/4.
  std::vector<ScoredLabel> s = {{0.9, 1}, {0.7, 0}, {0.5, 1}, {0.3, 0}};
  EXPECT_DOUBLE_EQ(RocAuc(s), 0.75);
}

TEST(RocAucTest, DegenerateSingleClass) {
  EXPECT_DOUBLE_EQ(RocAuc({{0.5, 1}, {0.9, 1}}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({}), 0.5);
}

TEST(AveragePrecisionTest, PerfectRanking) {
  std::vector<ScoredLabel> s = {{0.9, 1}, {0.8, 1}, {0.2, 0}};
  EXPECT_DOUBLE_EQ(AveragePrecision(s), 1.0);
}

TEST(AveragePrecisionTest, KnownValue) {
  // Ranking: pos, neg, pos => AP = (1/1 + 2/3) / 2 = 5/6.
  std::vector<ScoredLabel> s = {{0.9, 1}, {0.8, 0}, {0.7, 1}};
  EXPECT_NEAR(AveragePrecision(s), 5.0 / 6.0, 1e-12);
}

TEST(AveragePrecisionTest, NoPositives) {
  EXPECT_DOUBLE_EQ(AveragePrecision({{0.3, 0}}), 0.0);
}

TEST(AccuracyTest, ThresholdAtHalf) {
  std::vector<ScoredLabel> s = {{0.9, 1}, {0.4, 0}, {0.6, 0}, {0.2, 1}};
  EXPECT_DOUBLE_EQ(AccuracyAtHalf(s), 0.5);
}

TEST(CollectNodesTest, GathersBothEndpoints) {
  std::vector<graph::Event> events = {{1, 5, 0.1}, {2, 5, 0.2}};
  auto nodes = CollectNodes(events);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_TRUE(nodes.count(1) && nodes.count(2) && nodes.count(5));
}

// Scores each batch with one stacked call and checks AUC/AP against the
// two-call protocol (positives, then negatives) replayed by hand on a twin
// model: scoring is forward-only, so the metrics must match bitwise.
TEST(LinkEvalTest, OneScoreCallMatchesTwoCallsBitwise) {
  std::vector<Event> events;
  Rng gen(31);
  for (int i = 0; i < 240; ++i) {
    NodeId a = static_cast<NodeId>(gen.NextBounded(12));
    NodeId b = 12 + static_cast<NodeId>(gen.NextBounded(12));
    events.push_back({a, b, 0.01 * i});
  }
  graph::TemporalGraph g = graph::TemporalGraph::Create(24, events).ValueOrDie();
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.num_neighbors = 3;
  Rng init1(5), init2(5);
  dgnn::DgnnEncoder enc1(config, &g, &init1);
  dgnn::DgnnEncoder enc2(config, &g, &init2);
  dgnn::LinkPredictor dec1(8, 8, &init1);
  dgnn::LinkPredictor dec2(8, 8, &init2);
  enc2.CopyParametersFrom(enc1);
  dec2.CopyParametersFrom(dec1);
  std::vector<Event> history(events.begin(), events.begin() + 120);
  std::vector<Event> test(events.begin() + 120, events.end());
  enc1.ReplayEvents(history, 40);
  enc2.ReplayEvents(history, 40);
  const int64_t batch_size = 30;

  ScoreFn stacked = [&](const std::vector<NodeId>& s,
                        const std::vector<NodeId>& d,
                        const std::vector<double>& t) {
    std::vector<tensor::Tensor> z = train::EmbedStacked(
        [&](const std::vector<NodeId>& nodes, const std::vector<double>& ts) {
          return enc1.ComputeEmbeddings(nodes, ts);
        },
        {s, d}, t);
    return dec1.ForwardLogits(z[0], z[1]);
  };
  Rng eval_rng1(9);
  LinkPredictionMetrics one =
      EvaluateDynamicLinkPrediction(&enc1, stacked, test, {}, batch_size,
                                    &eval_rng1);

  Rng eval_rng2(9);
  std::vector<ScoredLabel> samples;
  for (size_t start = 0; start < test.size(); start += batch_size) {
    std::vector<Event> batch(
        test.begin() + start,
        test.begin() + std::min(test.size(), start + batch_size));
    std::vector<NodeId> srcs, dsts, negs;
    std::vector<double> times;
    for (const Event& e : batch) {
      srcs.push_back(e.src);
      dsts.push_back(e.dst);
      negs.push_back(
          dgnn::SampleNegative({}, g.num_nodes(), e.dst, &eval_rng2));
      times.push_back(e.time);
    }
    enc2.BeginBatch();
    tensor::Tensor pos = tensor::Sigmoid(dec2.ForwardLogits(
        enc2.ComputeEmbeddings(srcs, times),
        enc2.ComputeEmbeddings(dsts, times)));
    tensor::Tensor neg = tensor::Sigmoid(dec2.ForwardLogits(
        enc2.ComputeEmbeddings(srcs, times),
        enc2.ComputeEmbeddings(negs, times)));
    for (int64_t i = 0; i < pos.rows(); ++i) {
      samples.push_back({static_cast<double>(pos.at(i, 0)), 1});
      samples.push_back({static_cast<double>(neg.at(i, 0)), 0});
    }
    enc2.CommitBatch(batch);
  }

  EXPECT_EQ(one.num_scored_events, static_cast<int64_t>(test.size()));
  EXPECT_EQ(one.auc, RocAuc(samples));
  EXPECT_EQ(one.ap, AveragePrecision(samples));
  EXPECT_GT(one.auc, 0.0);
}

}  // namespace
}  // namespace cpdg::eval
