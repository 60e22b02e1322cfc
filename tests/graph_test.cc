#include "graph/temporal_graph.h"

#include <limits>

#include <gtest/gtest.h>

namespace cpdg::graph {
namespace {

std::vector<Event> MakeEvents() {
  // Deliberately unsorted input.
  return {
      {0, 1, 5.0}, {0, 2, 1.0}, {1, 2, 3.0}, {0, 1, 2.0}, {2, 3, 4.0},
  };
}

TEST(TemporalGraphTest, CreateSortsEvents) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  EXPECT_EQ(g.num_events(), 5);
  for (int64_t i = 1; i < g.num_events(); ++i) {
    EXPECT_LE(g.event(i - 1).time, g.event(i).time);
  }
  EXPECT_EQ(g.min_time(), 1.0);
  EXPECT_EQ(g.max_time(), 5.0);
}

TEST(TemporalGraphTest, RejectsBadNodeIds) {
  auto r = TemporalGraph::Create(2, {{0, 5, 1.0}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto r2 = TemporalGraph::Create(0, {});
  EXPECT_FALSE(r2.ok());
}

TEST(TemporalGraphTest, NeighborsBeforeRespectsTime) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  // Node 0 interacts at t=1 (with 2), t=2 (with 1), t=5 (with 1).
  auto view = g.NeighborsBefore(0, 3.0);
  ASSERT_EQ(view.count, 2);
  EXPECT_EQ(view[0].node, 2);
  EXPECT_EQ(view[0].time, 1.0);
  EXPECT_EQ(view[1].node, 1);
  EXPECT_EQ(view[1].time, 2.0);
  // Strictly before: an event at exactly t is excluded.
  EXPECT_EQ(g.NeighborsBefore(0, 1.0).count, 0);
  EXPECT_EQ(g.NeighborsBefore(0, 100.0).count, 3);
}

TEST(TemporalGraphTest, NeighborsAreChronological) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  auto view = g.NeighborsBefore(1, 100.0);
  for (int64_t i = 1; i < view.count; ++i) {
    EXPECT_LE(view[i - 1].time, view[i].time);
  }
}

TEST(TemporalGraphTest, UndirectedAdjacency) {
  auto g = TemporalGraph::Create(4, {{0, 1, 1.0}}).ValueOrDie();
  EXPECT_EQ(g.NeighborsBefore(0, 2.0).count, 1);
  EXPECT_EQ(g.NeighborsBefore(1, 2.0).count, 1);
  EXPECT_EQ(g.NeighborsBefore(1, 2.0)[0].node, 0);
}

TEST(TemporalGraphTest, DegreeAndHasInteractions) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.Degree(3), 1);
  EXPECT_TRUE(g.HasInteractions(2));
  auto g2 = TemporalGraph::Create(5, MakeEvents()).ValueOrDie();
  EXPECT_FALSE(g2.HasInteractions(4));
}

TEST(TemporalGraphTest, NodesBefore) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  auto nodes = g.NodesBefore(1.5);
  EXPECT_EQ(nodes.size(), 2u);  // only 0 and 2 interacted before t=1.5
}

TEST(TemporalGraphTest, EventsInWindow) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  auto window = g.EventsInWindow(2.0, 4.5);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().time, 2.0);
  EXPECT_EQ(window.back().time, 4.0);
}

TEST(TemporalGraphTest, EventIndexInNeighborView) {
  auto g = TemporalGraph::Create(4, MakeEvents()).ValueOrDie();
  auto view = g.NeighborsBefore(0, 10.0);
  for (const auto& n : view) {
    const Event& e = g.event(n.event_index);
    EXPECT_TRUE(e.src == 0 || e.dst == 0);
    EXPECT_EQ(e.time, n.time);
  }
}

TEST(StaticSnapshotTest, CollapsesMultiEdges) {
  auto g = TemporalGraph::Create(
               3, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 2, 3.0}})
               .ValueOrDie();
  auto snap = StaticSnapshot::FromTemporalGraph(
      g, std::numeric_limits<double>::infinity());
  EXPECT_EQ(snap.Degree(0), 1);
  EXPECT_EQ(snap.Degree(1), 2);
  EXPECT_EQ(snap.num_edges(), 2);
}

TEST(StaticSnapshotTest, RespectsTimeCutoff) {
  auto g = TemporalGraph::Create(
               3, {{0, 1, 1.0}, {1, 2, 5.0}})
               .ValueOrDie();
  auto snap = StaticSnapshot::FromTemporalGraph(g, 3.0);
  EXPECT_EQ(snap.Degree(2), 0);
  EXPECT_EQ(snap.Degree(0), 1);
}

}  // namespace
}  // namespace cpdg::graph
