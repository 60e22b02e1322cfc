// Unit tests for the observability layer (src/obs): histogram bucketing
// edge cases, registry JSON, scoped-span nesting and ordering,
// cross-thread span-merge determinism at 1 vs 4 threads, the
// disabled-mode zero-cost contract (no allocations, nothing recorded),
// the Chrome trace-event JSON round trip, and the batch arena's
// allocation cut on a CPDG pre-training epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/pretrainer.h"
#include "dgnn/encoder.h"
#include "graph/temporal_graph.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "tensor/arena.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Allocation probe for the disabled-mode and arena tests: every operator
// new on this thread bumps a thread-local counter. Worker threads and
// gtest internals do not disturb a measurement taken around
// single-threaded code.
namespace {
thread_local int64_t tl_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_alloc_count;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  ++tl_alloc_count;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cpdg {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::ParsedTraceEvent;
using obs::Profiler;
using obs::ScopedSpan;
using obs::SpanEvent;
using obs::SpanStats;

// --- Histogram bucketing --------------------------------------------------

TEST(HistogramTest, NonPositiveAndNanGoToUnderflowBucket) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1e300), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
}

TEST(HistogramTest, ExactPowersOfTwoLandOnTheirOwnUpperEdge) {
  for (int e = Histogram::kMinExponent + 1; e <= Histogram::kMaxExponent;
       ++e) {
    double v = std::ldexp(1.0, e);
    int b = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketUpperEdge(b), v) << "value 2^" << e;
  }
}

TEST(HistogramTest, ValuesJustAboveAnEdgeMoveToTheNextBucket) {
  double one = 1.0;
  int b_one = Histogram::BucketIndex(one);
  int b_above = Histogram::BucketIndex(std::nextafter(one, 2.0));
  EXPECT_EQ(b_above, b_one + 1);
  // ...and just below stays in the lower bucket.
  EXPECT_EQ(Histogram::BucketIndex(std::nextafter(one, 0.0)), b_one);
}

TEST(HistogramTest, UnderflowAndOverflowEdges) {
  double lo = std::ldexp(1.0, Histogram::kMinExponent);
  EXPECT_EQ(Histogram::BucketIndex(lo), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nextafter(lo, 1.0)), 1);
  double hi = std::ldexp(1.0, Histogram::kMaxExponent);
  EXPECT_EQ(Histogram::BucketIndex(hi), Histogram::kNumBuckets - 2);
  EXPECT_EQ(Histogram::BucketIndex(std::nextafter(hi, 1e300)),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperEdge(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, CountSumMinMaxAndReset) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  h.Observe(2.0);
  h.Observe(0.5);
  h.Observe(8.0);
  h.Observe(-3.0);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 7.5);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(2.0)), 1);
  EXPECT_EQ(h.bucket_count(0), 1);  // the -3.0
  int64_t total = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) total += h.bucket_count(b);
  EXPECT_EQ(total, h.count());
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// --- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  obs::Counter& a = MetricsRegistry::Global().counter("obs_test.same");
  obs::Counter& b = MetricsRegistry::Global().counter("obs_test.same");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(MetricsRegistryTest, JsonSnapshotIsDeterministicAndStructured) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("obs_test.json_counter").Add(7);
  registry.gauge("obs_test.json_gauge").Set(2.5);
  registry.histogram("obs_test.json_histogram").Observe(3.0);
  std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.ToJson());  // deterministic snapshot
  EXPECT_NE(json.find("\"obs_test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": 4"), std::string::npos);  // 3.0's bucket edge
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

// --- Span nesting and ordering --------------------------------------------

TEST(ProfilerTest, NestedSpansRecordDepthAndEnclosure) {
  obs::SetTraceEnabled(true);
  Profiler::Global().Clear();
  {
    CPDG_TRACE_SPAN("obs_test/outer");
    {
      CPDG_TRACE_SPAN("obs_test/inner_a");
    }
    {
      CPDG_TRACE_SPAN("obs_test/inner_b");
      { CPDG_TRACE_SPAN("obs_test/leaf"); }
    }
  }
  obs::SetTraceEnabled(false);

  std::vector<SpanEvent> events = Profiler::Global().Snapshot();
  ASSERT_EQ(events.size(), 4u);

  std::map<std::string, SpanEvent> by_name;
  for (const SpanEvent& e : events) by_name[e.name] = e;
  ASSERT_EQ(by_name.size(), 4u);

  const SpanEvent& outer = by_name["obs_test/outer"];
  const SpanEvent& inner_a = by_name["obs_test/inner_a"];
  const SpanEvent& inner_b = by_name["obs_test/inner_b"];
  const SpanEvent& leaf = by_name["obs_test/leaf"];

  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner_a.depth, 1);
  EXPECT_EQ(inner_b.depth, 1);
  EXPECT_EQ(leaf.depth, 2);

  // Children are temporally enclosed by their parent.
  for (const SpanEvent* child : {&inner_a, &inner_b, &leaf}) {
    EXPECT_GE(child->start_us, outer.start_us);
    EXPECT_LE(child->start_us + child->dur_us,
              outer.start_us + outer.dur_us);
  }
  EXPECT_GE(leaf.start_us, inner_b.start_us);
  // inner_a ran before inner_b.
  EXPECT_LE(inner_a.start_us, inner_b.start_us);

  // Snapshot order is sorted by start time (depth-tiebroken), so the
  // outer span comes first.
  EXPECT_STREQ(events[0].name, "obs_test/outer");
}

TEST(ProfilerTest, DepthUnwindsAcrossDisableMidSpan) {
  obs::SetTraceEnabled(true);
  Profiler::Global().Clear();
  {
    CPDG_TRACE_SPAN("obs_test/interrupted");
    obs::SetTraceEnabled(false);  // span open while tracing turns off
  }
  obs::SetTraceEnabled(true);
  {
    CPDG_TRACE_SPAN("obs_test/after");
  }
  obs::SetTraceEnabled(false);
  std::vector<SpanEvent> events = Profiler::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "obs_test/after");
  EXPECT_EQ(events[0].depth, 0);  // depth bookkeeping unwound correctly
}

// --- Cross-thread merge determinism ---------------------------------------

std::map<std::string, SpanStats> RunChunkedWorkload(int num_threads) {
  obs::SetTraceEnabled(true);
  Profiler::Global().Clear();
  util::ThreadPool pool(num_threads);
  pool.ParallelFor(0, 8, 1, [](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      CPDG_TRACE_SPAN("obs_test/chunk");
      CPDG_TRACE_SPAN("obs_test/chunk_body");
    }
  });
  std::map<std::string, SpanStats> stats =
      Profiler::Global().AggregateByName();
  obs::SetTraceEnabled(false);
  return stats;
}

TEST(ProfilerTest, CrossThreadAggregationIsThreadCountInvariant) {
  std::map<std::string, SpanStats> serial = RunChunkedWorkload(1);
  std::map<std::string, SpanStats> parallel = RunChunkedWorkload(4);

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_EQ(serial["obs_test/chunk"].count, 8);
  EXPECT_EQ(serial["obs_test/chunk_body"].count, 8);
  // The static-chunking contract: the same spans exist at any thread
  // count, and the merged per-name view lists them identically.
  for (const auto& [name, s] : serial) {
    ASSERT_NE(parallel.find(name), parallel.end()) << name;
    EXPECT_EQ(parallel[name].count, s.count) << name;
  }
  // Workers carried distinct tids in the parallel run but merged into the
  // same name keys; nesting depth survives on the worker threads too.
  std::map<std::string, SpanEvent> by_name;
  RunChunkedWorkload(4);
  obs::SetTraceEnabled(true);
  for (const SpanEvent& e : Profiler::Global().Snapshot()) {
    if (std::string(e.name) == "obs_test/chunk_body") {
      EXPECT_EQ(e.depth, 1);
    } else {
      EXPECT_EQ(e.depth, 0);
    }
  }
  obs::SetTraceEnabled(false);
}

// --- Disabled mode --------------------------------------------------------

TEST(ProfilerTest, DisabledSpansAllocateNothingAndEmitNothing) {
  obs::SetTraceEnabled(false);
  Profiler::Global().Clear();

  int64_t before = tl_alloc_count;
  for (int i = 0; i < 1000; ++i) {
    CPDG_TRACE_SPAN("obs_test/disabled");
    CPDG_TRACE_SPAN(nullptr);  // conditional-instrumentation form
  }
  int64_t after = tl_alloc_count;
  EXPECT_EQ(after, before) << "disabled spans must not allocate";

  EXPECT_TRUE(Profiler::Global().Snapshot().empty());
  EXPECT_TRUE(Profiler::Global().AggregateByName().empty());
  EXPECT_EQ(Profiler::Global().dropped_events(), 0);
}

TEST(ProfilerTest, BufferOverflowDropsAndCounts) {
  obs::SetTraceEnabled(true);
  Profiler::Global().Clear();
  Profiler& profiler = Profiler::Global();
  for (int64_t i = 0; i < Profiler::kMaxEventsPerThread + 10; ++i) {
    profiler.Record("obs_test/flood", i, 1, 0);
  }
  EXPECT_EQ(profiler.dropped_events(), 10);
  EXPECT_EQ(static_cast<int64_t>(profiler.Snapshot().size()),
            Profiler::kMaxEventsPerThread);
  obs::SetTraceEnabled(false);
  Profiler::Global().Clear();
}

// --- Chrome trace round trip ----------------------------------------------

TEST(TraceExportTest, RoundTripsThroughParser) {
  obs::SetTraceEnabled(true);
  Profiler::Global().Clear();
  {
    CPDG_TRACE_SPAN("obs_test/export \"quoted\"\n");
    { CPDG_TRACE_SPAN("obs_test/export_child"); }
  }
  obs::SetTraceEnabled(false);

  std::vector<SpanEvent> events = Profiler::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  std::string json = obs::ChromeTraceJson(events);

  Result<std::vector<ParsedTraceEvent>> parsed = obs::ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const ParsedTraceEvent& p = parsed.value()[i];
    EXPECT_EQ(p.name, events[i].name);  // escapes round-trip
    EXPECT_EQ(p.ph, "X");               // complete events only
    EXPECT_EQ(p.ts_us, events[i].start_us);
    EXPECT_EQ(p.dur_us, events[i].dur_us);
    EXPECT_EQ(p.pid, 1);
    EXPECT_EQ(p.tid, events[i].tid);
  }
}

TEST(TraceExportTest, WriteReadBackAndParseFromDisk) {
  obs::SetTraceEnabled(true);
  Profiler::Global().Clear();
  { CPDG_TRACE_SPAN("obs_test/disk"); }
  obs::SetTraceEnabled(false);

  std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(Profiler::Global().WriteChromeTrace(path).ok());
  std::string json;
  ASSERT_TRUE(util::ReadFileToString(path, &json).ok());
  Result<std::vector<ParsedTraceEvent>> parsed = obs::ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].name, "obs_test/disk");
  std::remove(path.c_str());
}

TEST(TraceExportTest, EmptyTraceIsValid) {
  std::string json = obs::ChromeTraceJson({});
  Result<std::vector<ParsedTraceEvent>> parsed = obs::ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().empty());
}

TEST(TraceExportTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::ParseChromeTrace("").ok());
  EXPECT_FALSE(obs::ParseChromeTrace("[]").ok());
  EXPECT_FALSE(obs::ParseChromeTrace("{").ok());
  EXPECT_FALSE(obs::ParseChromeTrace("{}").ok());  // no traceEvents
  EXPECT_FALSE(obs::ParseChromeTrace("{\"traceEvents\": 5}").ok());
  EXPECT_FALSE(
      obs::ParseChromeTrace("{\"traceEvents\": [{\"ph\": \"X\"}]}").ok());
  EXPECT_FALSE(obs::ParseChromeTrace(
                   "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", "
                   "\"ts\": 1}]} garbage")
                   .ok());
  // Truncated mid-event.
  EXPECT_FALSE(obs::ParseChromeTrace(
                   "{\"traceEvents\": [{\"name\": \"a\", \"ph\":")
                   .ok());
  // Valid minimal document with an extra unknown key: accepted.
  EXPECT_TRUE(obs::ParseChromeTrace(
                  "{\"other\": {\"x\": [1, 2]}, \"traceEvents\": "
                  "[{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1, "
                  "\"extra\": null}]}")
                  .ok());
}

// --- Batch arena ----------------------------------------------------------

// Global operator-new calls per batch on the calling thread over one CPDG
// pre-training epoch: 300 nodes, 4k events, batch 100, dims 16.
double PretrainAllocsPerBatch(bool arena) {
  tensor::SetArenaEnabledOverride(arena ? 1 : 0);
  constexpr int64_t kNodes = 300, kEvents = 4000, kBatch = 100;
  Rng graph_rng(11);
  std::vector<graph::Event> events;
  for (int64_t i = 0; i < kEvents; ++i) {
    auto a = static_cast<graph::NodeId>(graph_rng.NextBounded(kNodes / 2));
    auto b = static_cast<graph::NodeId>(kNodes / 2 +
                                        graph_rng.NextBounded(kNodes / 2));
    events.push_back({a, b, static_cast<double>(i) * 0.001});
  }
  graph::TemporalGraph g =
      graph::TemporalGraph::Create(kNodes, events).ValueOrDie();

  Rng rng(13);
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, kNodes);
  config.memory_dim = 16;
  config.embed_dim = 16;
  config.time_dim = 8;
  config.num_neighbors = 5;
  dgnn::DgnnEncoder encoder(config, &g, &rng);
  dgnn::LinkPredictor decoder(16, 16, &rng);
  core::CpdgConfig cpdg;
  cpdg.epochs = 1;
  cpdg.batch_size = kBatch;
  cpdg.num_checkpoints = 4;
  cpdg.max_contrast_anchors = 32;
  cpdg.sample_width = 3;
  cpdg.sample_depth = 2;
  core::CpdgPretrainer pretrainer(cpdg, &rng);

  int64_t before = tl_alloc_count;
  core::PretrainResult result = pretrainer.Pretrain(&encoder, &decoder, g);
  int64_t allocs = tl_alloc_count - before;
  tensor::SetArenaEnabledOverride(-1);
  EXPECT_TRUE(result.log.status.ok());
  return static_cast<double>(allocs) / static_cast<double>(kEvents / kBatch);
}

TEST(ArenaTest, CutsPretrainAllocationsPerBatchFiveFold) {
  // A 1-thread kernel pool keeps every allocation on this thread.
  util::ThreadPool::SetGlobalNumThreads(1);
  double pooled = PretrainAllocsPerBatch(/*arena=*/true);
  double unpooled = PretrainAllocsPerBatch(/*arena=*/false);
  util::ThreadPool::SetGlobalNumThreads(util::ThreadPool::DefaultNumThreads());
  EXPECT_GE(unpooled, 5.0 * pooled)
      << "allocations per batch: " << unpooled << " without the arena, "
      << pooled << " with it";
}

}  // namespace
}  // namespace cpdg
