// Tests of the benchmark's own arithmetic: self time from nested spans,
// percentiles and their sample counts, and the attempt-accounting
// identity.

#include "stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

cpdg::obs::SpanEvent Span(const char* name, int64_t start, int64_t dur,
                          int32_t tid, int32_t depth) {
  cpdg::obs::SpanEvent e;
  e.name = name;
  e.start_us = start;
  e.dur_us = dur;
  e.tid = tid;
  e.depth = depth;
  return e;
}

TEST(FoldSpansTest, SelfTimeSubtractsDirectChildrenOnly) {
  // Thread 1:  outer [0,100)
  //              mid [10,60)           -> direct child of outer
  //                leaf [20,30), [40,50)  -> children of mid, not of outer
  //              mid [70,90)
  // Thread 2:  mid [0,40) with no children, overlapping thread 1 in time.
  // Events arrive in close order (children first), as a profiler records.
  std::vector<cpdg::obs::SpanEvent> events = {
      Span("leaf", 20, 10, 1, 2), Span("leaf", 40, 10, 1, 2),
      Span("mid", 10, 50, 1, 1),  Span("mid", 70, 20, 1, 1),
      Span("outer", 0, 100, 1, 0), Span("mid", 0, 40, 2, 0),
  };
  auto t = FoldSpans(events);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t["outer"].count, 1);
  EXPECT_NEAR(t["outer"].inclusive_s, 100e-6, 1e-12);
  EXPECT_NEAR(t["outer"].self_s, 30e-6, 1e-12);  // 100 - 50 - 20
  EXPECT_EQ(t["mid"].count, 3);
  EXPECT_NEAR(t["mid"].inclusive_s, 110e-6, 1e-12);
  EXPECT_NEAR(t["mid"].self_s, 90e-6, 1e-12);  // (50-20) + 20 + 40
  EXPECT_EQ(t["leaf"].count, 2);
  EXPECT_NEAR(t["leaf"].self_s, 20e-6, 1e-12);
}

TEST(FoldSpansTest, ChildStartingWithParentAndSiblingsAtSameDepth) {
  // A child that opens in the same microsecond as its parent, and a later
  // top-level span that must not be taken for a child of the first.
  std::vector<cpdg::obs::SpanEvent> events = {
      Span("a", 0, 10, 1, 0), Span("b", 0, 4, 1, 1), Span("c", 10, 5, 1, 0),
      Span("d", 12, 2, 1, 1)};
  auto t = FoldSpans(events);
  EXPECT_NEAR(t["a"].self_s, 6e-6, 1e-12);
  EXPECT_NEAR(t["c"].self_s, 3e-6, 1e-12);
  EXPECT_NEAR(t["b"].self_s, 4e-6, 1e-12);
}

TEST(FoldSpansTest, MergeAddsByName) {
  std::map<std::string, SpanTime> into;
  MergeSpanTimes(FoldSpans({Span("x", 0, 5, 1, 0)}), &into);
  MergeSpanTimes(FoldSpans({Span("x", 0, 7, 3, 0)}), &into);
  EXPECT_EQ(into["x"].count, 2);
  EXPECT_NEAR(into["x"].inclusive_s, 12e-6, 1e-12);
}

TEST(PercentileTest, NearestRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = ComputePercentile(v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000);
  EXPECT_EQ(p99.beyond, 10);
  const Percentile p50 = ComputePercentile(v, 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500);
  EXPECT_EQ(ComputePercentile(v, 1.0).value, 1000.0);
  EXPECT_EQ(ComputePercentile({}, 0.5).samples, 0);
  // Unsorted input and +inf (a request never answered) sort last.
  const Percentile p = ComputePercentile({3.0, INFINITY, 1.0, 2.0}, 0.75);
  EXPECT_EQ(p.value, 3.0);
  EXPECT_EQ(p.beyond, 1);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PercentileTest, MedianOfWindowsIgnoresOneStalledWindow) {
  // Five 1-second windows of 100 samples at 1 ms; one window stalls.
  std::vector<std::pair<int64_t, double>> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 100; ++i) {
      const int64_t due = w * 1000000 + i * 10000;
      samples.push_back({due, w == 2 ? 50.0 : 1.0 + i * 0.001});
    }
  }
  int64_t smallest = 0;
  const double p99 = MedianOfWindowPercentiles(samples, 0, 5000000, 5, 0.99,
                                               &smallest);
  EXPECT_NEAR(p99, 1.098, 1e-12);
  EXPECT_EQ(smallest, 100);
}

TEST(AttemptsTest, AccountingIdentity) {
  Attempts a;
  a.attempted = 10;
  a.answered = 6;
  a.rejected = 1;
  a.shed = 1;
  a.expired = 1;
  a.failed = 1;
  EXPECT_TRUE(a.Balanced());
  EXPECT_EQ(a.not_answered(), 4);
  Attempts b = a;
  b.answered = 5;  // one attempt unaccounted for
  EXPECT_FALSE(b.Balanced());
  a.Add(a);
  EXPECT_EQ(a.attempted, 20);
  EXPECT_TRUE(a.Balanced());
}

}  // namespace
}  // namespace perfbench
