#include "dgnn/encoder.h"

#include <cstring>

#include <gtest/gtest.h>

#include "dgnn/trainer.h"
#include "graph/temporal_graph.h"
#include "train/link_batch.h"

namespace cpdg::dgnn {
namespace {

using graph::Event;
using graph::TemporalGraph;

TemporalGraph MakeSmallGraph() {
  std::vector<Event> events;
  Rng rng(42);
  // 20 nodes, 200 events, mildly structured.
  for (int i = 0; i < 200; ++i) {
    NodeId a = static_cast<NodeId>(rng.NextBounded(10));
    NodeId b = 10 + static_cast<NodeId>(rng.NextBounded(10));
    events.push_back({a, b, static_cast<double>(i) * 0.01});
  }
  return TemporalGraph::Create(20, events).ValueOrDie();
}

TEST(MemoryTest, StartsAtZeroAndResets) {
  Memory mem(5, 4);
  EXPECT_EQ(mem.StateNorm(), 0.0);
  mem.SetStates({2}, tensor::Tensor::Full(1, 4, 1.0f));
  EXPECT_GT(mem.StateNorm(), 0.0);
  mem.SetLastUpdate(2, 7.0);
  mem.EnqueueMessage(2, {3, 7.0});
  mem.Reset();
  EXPECT_EQ(mem.StateNorm(), 0.0);
  EXPECT_EQ(mem.LastUpdate(2), 0.0);
  EXPECT_FALSE(mem.HasPending(2));
}

TEST(MemoryTest, GetSetRoundTrip) {
  Memory mem(5, 3);
  tensor::Tensor s = tensor::Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  mem.SetStates({1, 3}, s);
  tensor::Tensor back = mem.GetStates({3, 1});
  EXPECT_FLOAT_EQ(back.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(back.at(1, 2), 3.0f);
  EXPECT_FALSE(back.requires_grad());
}

TEST(MemoryTest, PendingMessageLifecycle) {
  Memory mem(3, 2);
  EXPECT_FALSE(mem.HasPending(0));
  mem.EnqueueMessage(0, {1, 2.0});
  mem.EnqueueMessage(0, {2, 3.0});
  ASSERT_TRUE(mem.HasPending(0));
  EXPECT_EQ(mem.Pending(0).size(), 2u);
  EXPECT_EQ(mem.Pending(0).back().other, 2);
  mem.ClearPending(0);
  EXPECT_FALSE(mem.HasPending(0));
}

TEST(MemoryTest, SnapshotRestoreRoundTrip) {
  Memory mem(4, 2);
  mem.SetStates({0}, tensor::Tensor::Full(1, 2, 3.0f));
  auto snap = mem.SnapshotFlat();
  mem.Reset();
  EXPECT_EQ(mem.StateNorm(), 0.0);
  mem.RestoreFlat(snap);
  EXPECT_FLOAT_EQ(mem.StateData(0)[0], 3.0f);
}

TEST(EncoderConfigTest, PresetsMatchTableIII) {
  auto jodie = EncoderConfig::Preset(EncoderType::kJodie, 10);
  EXPECT_EQ(jodie.message, MessageFunctionType::kIdentity);
  EXPECT_EQ(jodie.updater, MemoryUpdaterType::kRnn);
  EXPECT_EQ(jodie.embedding, EmbeddingType::kTimeProjection);

  auto dyrep = EncoderConfig::Preset(EncoderType::kDyRep, 10);
  EXPECT_EQ(dyrep.message, MessageFunctionType::kAttention);
  EXPECT_EQ(dyrep.updater, MemoryUpdaterType::kRnn);
  EXPECT_EQ(dyrep.embedding, EmbeddingType::kIdentity);

  auto tgn = EncoderConfig::Preset(EncoderType::kTgn, 10);
  EXPECT_EQ(tgn.message, MessageFunctionType::kIdentity);
  EXPECT_EQ(tgn.aggregator, AggregatorType::kLast);
  EXPECT_EQ(tgn.updater, MemoryUpdaterType::kGru);
  EXPECT_EQ(tgn.embedding, EmbeddingType::kAttention);
}

class EncoderSmokeTest
    : public ::testing::TestWithParam<EncoderType> {};

TEST_P(EncoderSmokeTest, EmbeddingShapesAndCommit) {
  TemporalGraph g = MakeSmallGraph();
  Rng rng(7);
  EncoderConfig config = EncoderConfig::Preset(GetParam(), g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.num_neighbors = 3;
  DgnnEncoder encoder(config, &g, &rng);

  encoder.BeginBatch();
  tensor::Tensor z = encoder.ComputeEmbeddings({0, 1, 15}, {1.0, 1.0, 1.0});
  EXPECT_EQ(z.rows(), 3);
  EXPECT_EQ(z.cols(), 8);

  // Commit some events and check memory moves off zero.
  std::vector<Event> batch = {{0, 15, 1.1}, {1, 16, 1.2}};
  encoder.CommitBatch(batch);
  encoder.BeginBatch();
  tensor::Tensor z2 = encoder.ComputeEmbeddings({0, 1}, {1.3, 1.3});
  encoder.CommitBatch({});
  EXPECT_GT(encoder.memory().StateNorm(), 0.0);
}

TEST_P(EncoderSmokeTest, ReplayAdvancesMemoryDeterministically) {
  TemporalGraph g = MakeSmallGraph();
  Rng rng1(7), rng2(7);
  EncoderConfig config = EncoderConfig::Preset(GetParam(), g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.num_neighbors = 3;
  DgnnEncoder e1(config, &g, &rng1);
  DgnnEncoder e2(config, &g, &rng2);
  e2.CopyParametersFrom(e1);

  e1.ReplayEvents(g.events(), 50);
  e2.ReplayEvents(g.events(), 50);
  EXPECT_GT(e1.memory().StateNorm(), 0.0);
  EXPECT_NEAR(e1.memory().StateNorm(), e2.memory().StateNorm(), 1e-4);
}

TEST_P(EncoderSmokeTest, StackedEmbeddingsMatchSeparateCalls) {
  TemporalGraph g = MakeSmallGraph();
  Rng rng1(7), rng2(7);
  EncoderConfig config = EncoderConfig::Preset(GetParam(), g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.num_neighbors = 3;
  DgnnEncoder separate(config, &g, &rng1);
  DgnnEncoder stacked(config, &g, &rng2);
  stacked.CopyParametersFrom(separate);
  std::vector<Event> history(g.events().begin(), g.events().begin() + 100);
  separate.ReplayEvents(history, 25);
  stacked.ReplayEvents(history, 25);

  // Overlapping lists, as a link batch's sources, destinations and
  // negatives are; every node here has pending messages or a stored state.
  std::vector<NodeId> srcs = {0, 1, 2, 3, 1};
  std::vector<NodeId> dsts = {12, 13, 1, 14, 19};
  std::vector<NodeId> negs = {15, 0, 16, 17, 12};
  std::vector<double> times = {1.0, 1.0, 1.01, 1.02, 1.02};
  std::vector<Event> batch;
  for (size_t i = 0; i < srcs.size(); ++i) {
    batch.push_back({srcs[i], dsts[i], times[i]});
  }

  separate.BeginBatch();
  std::vector<tensor::Tensor> three = {
      separate.ComputeEmbeddings(srcs, times),
      separate.ComputeEmbeddings(dsts, times),
      separate.ComputeEmbeddings(negs, times)};
  stacked.BeginBatch();
  std::vector<tensor::Tensor> one = train::EmbedStacked(
      [&](const std::vector<NodeId>& nodes, const std::vector<double>& t) {
        return stacked.ComputeEmbeddings(nodes, t);
      },
      {srcs, dsts, negs}, times);
  ASSERT_EQ(one.size(), three.size());
  for (size_t k = 0; k < three.size(); ++k) {
    ASSERT_EQ(one[k].rows(), three[k].rows());
    ASSERT_EQ(one[k].cols(), three[k].cols());
    EXPECT_EQ(std::memcmp(one[k].data(), three[k].data(),
                          sizeof(float) * three[k].size()),
              0)
        << "slice " << k;
  }

  separate.CommitBatch(batch);
  stacked.CommitBatch(batch);
  std::vector<float> a = separate.memory().SnapshotFlat();
  std::vector<float> b = stacked.memory().SnapshotFlat();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(separate.memory().HasPending(v), stacked.memory().HasPending(v));
  }
  EXPECT_EQ(separate.memory().version(), stacked.memory().version());
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EncoderSmokeTest,
                         ::testing::Values(EncoderType::kJodie,
                                           EncoderType::kDyRep,
                                           EncoderType::kTgn),
                         [](const auto& info) {
                           return EncoderTypeName(info.param);
                         });

TEST(EncoderTest, PendingMessagesAreConsumedOnCommit) {
  TemporalGraph g = MakeSmallGraph();
  Rng rng(9);
  EncoderConfig config = EncoderConfig::Preset(EncoderType::kTgn,
                                               g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  DgnnEncoder encoder(config, &g, &rng);

  encoder.BeginBatch();
  encoder.CommitBatch({{0, 15, 1.0}});
  EXPECT_TRUE(encoder.memory().HasPending(0));
  EXPECT_TRUE(encoder.memory().HasPending(15));
  EXPECT_EQ(encoder.memory().LastUpdate(0), 1.0);

  // Touching node 0 flushes + commit persists and clears.
  encoder.BeginBatch();
  tensor::Tensor s = encoder.ComputeUpdatedStates({0});
  encoder.CommitBatch({});
  EXPECT_FALSE(encoder.memory().HasPending(0));
  EXPECT_TRUE(encoder.memory().HasPending(15));  // untouched
  EXPECT_GT(encoder.memory().StateNorm(), 0.0);
}

TEST(EncoderTest, AttachGraphResetsMemory) {
  TemporalGraph g = MakeSmallGraph();
  Rng rng(11);
  EncoderConfig config = EncoderConfig::Preset(EncoderType::kTgn,
                                               g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  DgnnEncoder encoder(config, &g, &rng);
  encoder.ReplayEvents(g.events(), 50);
  EXPECT_GT(encoder.memory().StateNorm(), 0.0);
  encoder.AttachGraph(&g);
  EXPECT_EQ(encoder.memory().StateNorm(), 0.0);
}

TEST(TrainerTest, SampleNegativeAvoidsPositive) {
  Rng rng(13);
  std::vector<NodeId> pool = {5, 6, 7};
  for (int i = 0; i < 50; ++i) {
    NodeId neg = SampleNegative(pool, 100, 6, &rng);
    EXPECT_TRUE(neg == 5 || neg == 7);
  }
  // Empty pool: uniform over all nodes.
  for (int i = 0; i < 50; ++i) {
    NodeId neg = SampleNegative({}, 10, 3, &rng);
    EXPECT_GE(neg, 0);
    EXPECT_LT(neg, 10);
    EXPECT_NE(neg, 3);
  }
}

TEST(TrainerTest, LinkPredictionLossDecreases) {
  TemporalGraph g = MakeSmallGraph();
  Rng rng(15);
  EncoderConfig config = EncoderConfig::Preset(EncoderType::kTgn,
                                               g.num_nodes());
  config.memory_dim = 8;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.num_neighbors = 3;
  DgnnEncoder encoder(config, &g, &rng);
  LinkPredictor decoder(8, 8, &rng);

  TlpTrainOptions opts;
  opts.epochs = 4;
  opts.batch_size = 50;
  TrainLog log = TrainLinkPrediction(&encoder, &decoder, g, opts, &rng);
  ASSERT_EQ(log.epoch_losses.size(), 4u);
  EXPECT_LT(log.epoch_losses.back(), log.epoch_losses.front());
  EXPECT_LT(log.final_loss(), 0.7);  // below chance-level BCE
}

}  // namespace
}  // namespace cpdg::dgnn
