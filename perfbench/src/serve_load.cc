// serve_hot and serve_live: one generator thread drives the serving engine
// open-loop with Poisson arrivals of EmbedAsync requests at fixed absolute
// rates; latency runs from each request's due time to its answer.
//
//   serve_hot   fixed query time, Zipf-skewed nodes from a working set that
//               fits the per-shard cache, no advances: admission, queueing,
//               batching and the cache-hit path.
//   serve_live  a feeder thread calls Advance at a fixed events/s with the
//               on-disk journal on; queries at the latest fed time over all
//               nodes: encoder forward, replay in every replica, the
//               advance barrier and the journal append.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "data/generators.h"
#include "graph/temporal_graph.h"
#include "dgnn/encoder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/serving_engine.h"
#include "serve/shard_router.h"
#include "tensor/checkpoint_container.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace cpdg;
namespace ts = cpdg::tensor;
using Clock = std::chrono::steady_clock;

// Engine shape, shared by both workloads. Two executors plus the generator
// (and the feeder on serve_live) keep the busy threads within 4 CPUs; the
// kernel pool runs inline on the executors.
constexpr int kShards = 2;
constexpr int64_t kMaxBatch = 64;
constexpr int64_t kCacheRows = 4096;
constexpr int64_t kQueueLimit = 1024;
constexpr int64_t kDeadlineUs = 100000;
// One source plus its candidate items.
constexpr int64_t kNodesPerRequest = 20;
constexpr int64_t kDim = 32;

// Both serve the Beauty field's late history of the Amazon-like universe
// with users, items and events scaled by kServeScale, so that uniform
// queries mostly miss the caches.
constexpr int64_t kServeScale = 8;

// serve_hot request mix.
constexpr int64_t kHotWorkingSet = 512;
constexpr double kZipfExponent = 1.1;

// serve_live feed: events per Advance and the event-time step between fed
// events (the history spans unit time).
constexpr double kFeedEventsPerSec = 2000.0;
constexpr int64_t kFeedBatch = 160;
constexpr double kFeedTimeStep = 1e-5;

// Open-loop request rates.
constexpr double kHotRps = 20000.0;
constexpr double kLiveRps = 600.0;

constexpr int kSetupRepeats = 3;
constexpr int kLatencyWindows = 10;
constexpr int64_t kProbeNodes = 64;
// The generator yields (instead of sleeping) this close to a due time.
constexpr int64_t kSpinUs = 1500;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t NowUs() { return obs::Profiler::Global().NowMicros(); }

dgnn::EncoderConfig ServeConfig(int64_t num_nodes) {
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, num_nodes);
  config.memory_dim = kDim;
  config.embed_dim = kDim;
  config.time_dim = 8;
  config.num_neighbors = 10;
  return config;
}

/// Everything one engine needs, in destruction-safe order: the engine
/// last, so it shuts down before the graph it reads goes away.
struct Fixture {
  std::unique_ptr<graph::TemporalGraph> graph;
  std::unique_ptr<Rng> init_rng;
  /// The encoder the checkpoint was written from; serve_live replays the
  /// fed events into it to check the engine afterwards.
  std::unique_ptr<dgnn::DgnnEncoder> reference;
  std::unique_ptr<serve::ServingEngine> engine;
  double history_end = 0.0;
  std::vector<graph::NodeId> working_set;  // serve_hot
};

std::unique_ptr<Fixture> BuildFixture(uint64_t seed, bool live,
                                      const std::string& work_dir) {
  auto f = std::make_unique<Fixture>();
  data::UniverseSpec spec = data::MakeAmazonLike();
  spec.num_users *= kServeScale;
  for (data::FieldSpec& field : spec.fields) {
    field.num_items *= kServeScale;
    field.num_events_early *= kServeScale;
    field.num_events_late *= kServeScale;
  }
  const data::DynamicGraphUniverse universe(spec, seed);
  f->graph = std::make_unique<graph::TemporalGraph>(
      graph::TemporalGraph::Create(universe.num_nodes(),
                                   universe.LateEvents(/*field=*/0))
          .ValueOrDie());
  f->history_end = f->graph->max_time();
  const dgnn::EncoderConfig config = ServeConfig(f->graph->num_nodes());

  f->init_rng = std::make_unique<Rng>(seed * 0xD1B54A32D192ED03ULL + 5);
  f->reference = std::make_unique<dgnn::DgnnEncoder>(config, f->graph.get(),
                                                     f->init_rng.get());
  {
    ts::InferenceModeGuard guard;
    f->reference->ReplayEvents(f->graph->events(), serve::kAdvanceReplayBatch);
  }
  ts::SectionWriter writer;
  writer.Add(ts::kParamsSection,
             ts::EncodeTensorList(f->reference->Parameters()).ValueOrDie());
  std::string memory_bytes;
  f->reference->memory().SerializeTo(&memory_bytes);
  writer.Add(train::kMemorySection, memory_bytes);
  const std::string checkpoint = work_dir + "/serve.ckpt";
  Status status = writer.WriteAtomic(checkpoint);
  if (!status.ok()) throw std::runtime_error(status.ToString());

  serve::ServingOptions options;
  options.max_batch = kMaxBatch;
  options.cache_capacity = kCacheRows;
  options.num_shards = kShards;
  options.queue_limit = kQueueLimit;
  options.overload = serve::OverloadPolicy::kReject;
  options.default_deadline_us = kDeadlineUs;
  if (live) {
    options.journal_dir = work_dir + "/journal";
    std::filesystem::remove_all(options.journal_dir);
    std::filesystem::create_directories(options.journal_dir);
  }
  auto engine = serve::ServingEngine::FromCheckpoint(
      config, 0, f->graph.get(), checkpoint, options);
  if (!engine.ok()) throw std::runtime_error(engine.status().ToString());
  f->engine = engine.TakeValue();

  Rng pick(seed ^ 0x5eedULL);
  std::vector<graph::NodeId> nodes(static_cast<size_t>(f->graph->num_nodes()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<graph::NodeId>(i);
  }
  for (size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[pick.NextBounded(i)]);
  }
  nodes.resize(std::min<size_t>(nodes.size(), kHotWorkingSet));
  f->working_set = std::move(nodes);
  return f;
}

/// Embeddings of `nodes` at `time` straight from `encoder` (the read-only
/// protocol the engine uses), one row per node.
ts::Tensor DirectForward(dgnn::DgnnEncoder* encoder,
                         const std::vector<graph::NodeId>& nodes,
                         double time) {
  ts::InferenceModeGuard guard;
  encoder->BeginBatch();
  return encoder->ComputeEmbeddings(
      nodes, std::vector<double>(nodes.size(), time));
}

bool RowEquals(const ts::Tensor& a, int64_t row_a, const float* b) {
  return std::memcmp(a.data() + row_a * kDim, b, kDim * sizeof(float)) == 0;
}

/// Draws request node sets: Zipf over the hot working set, or uniform over
/// all nodes.
class NodeSampler {
 public:
  NodeSampler(const std::vector<graph::NodeId>& hot_set, int64_t num_nodes,
              bool zipf)
      : hot_set_(hot_set), num_nodes_(num_nodes), zipf_(zipf) {
    double total = 0.0;
    for (size_t r = 0; r < hot_set_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  graph::NodeId Draw(Rng* rng) const {
    if (!zipf_) {
      return static_cast<graph::NodeId>(
          rng->NextBounded(static_cast<uint64_t>(num_nodes_)));
    }
    const double u = rng->NextDouble();
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return hot_set_[std::min(r, hot_set_.size() - 1)];
  }

  void Fill(Rng* rng, std::vector<graph::NodeId>* nodes) const {
    nodes->resize(kNodesPerRequest);
    for (graph::NodeId& v : *nodes) v = Draw(rng);
  }

 private:
  const std::vector<graph::NodeId>& hot_set_;
  int64_t num_nodes_;
  bool zipf_;
  std::vector<double> cdf_;
};

/// One open-loop window's outcome.
struct Window {
  Attempts attempts;
  /// (due_us, due -> answer ms) of every attempt; +inf when not answered.
  std::vector<std::pair<int64_t, double>> latency_ms;
  std::vector<double> engine_ms;  // enqueue -> answer, as the engine reports
  std::vector<double> late_ms;    // submission minus due time
  int64_t stale = 0;
  int64_t row_mismatches = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

struct Pending {
  int64_t due_us = 0;
  int64_t submit_us = 0;
  std::vector<graph::NodeId> nodes;
  std::future<Result<serve::EmbedResponse>> future;
};

/// Rows the hot answers must equal bitwise (serve_hot only).
using ReferenceRows = std::unordered_map<graph::NodeId, const float*>;

/// Poisson arrivals at `rate` for `seconds` from the calling thread, then
/// waits for every admitted request. `query_time` is read per request.
/// Answers are collected in submission order whenever the generator is
/// ahead of schedule, so only requests in flight are held in memory.
Window DriveOpenLoop(serve::ServingEngine* engine, const NodeSampler& sampler,
                     double rate, double seconds,
                     const std::function<double()>& query_time,
                     const ReferenceRows* reference, Rng* rng) {
  Window w;
  // Sized up front: growing by doubling would make peak memory jump.
  const size_t expected = static_cast<size_t>(rate * seconds * 1.1) + 64;
  w.latency_ms.reserve(expected);
  w.engine_ms.reserve(expected);
  w.late_ms.reserve(expected);
  std::deque<Pending> pending;
  const auto collect = [&](Pending& p) {
    Result<serve::EmbedResponse> r = p.future.get();
    if (!r.ok()) {
      w.latency_ms.push_back({p.due_us, INFINITY});
      switch (r.status().code()) {
        case StatusCode::kDeadlineExceeded:
          ++w.attempts.expired;
          break;
        case StatusCode::kResourceExhausted:
          ++w.attempts.shed;
          break;
        default:
          ++w.attempts.failed;
      }
      return;
    }
    const serve::EmbedResponse& response = r.value();
    ++w.attempts.answered;
    if (response.stale) ++w.stale;
    w.latency_ms.push_back(
        {p.due_us,
         static_cast<double>(p.submit_us - p.due_us + response.latency_us) *
             1e-3});
    w.engine_ms.push_back(static_cast<double>(response.latency_us) * 1e-3);
    if (reference != nullptr) {
      for (size_t i = 0; i < p.nodes.size(); ++i) {
        auto it = reference->find(p.nodes[i]);
        if (it == reference->end() ||
            !RowEquals(response.embeddings, static_cast<int64_t>(i),
                       it->second)) {
          ++w.row_mismatches;
        }
      }
    }
  };
  const auto collect_ready = [&] {
    while (!pending.empty() &&
           pending.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      collect(pending.front());
      pending.pop_front();
    }
  };

  const Clock::time_point start = Clock::now();
  w.start_us = NowUs();
  double offset_s = rng->NextExponential(rate);
  std::vector<graph::NodeId> nodes;
  sampler.Fill(rng, &nodes);
  while (offset_s < seconds) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
    collect_ready();
    // Sleep to about a millisecond short of the due time, then yield until
    // it passes: a wake-up from sleep can be late by a millisecond.
    const Clock::duration ahead = due - Clock::now();
    if (ahead > std::chrono::microseconds(kSpinUs)) {
      std::this_thread::sleep_for(ahead - std::chrono::microseconds(kSpinUs));
    }
    while (Clock::now() < due) std::this_thread::yield();

    Pending p;
    p.due_us = w.start_us + static_cast<int64_t>(offset_s * 1e6);
    p.submit_us = NowUs();
    ++w.attempts.attempted;
    w.late_ms.push_back(static_cast<double>(p.submit_us - p.due_us) * 1e-3);
    auto submitted = engine->EmbedAsync(nodes, query_time());
    if (submitted.ok()) {
      p.future = submitted.TakeValue();
      p.nodes = nodes;
      pending.push_back(std::move(p));
    } else {
      if (submitted.status().code() == StatusCode::kResourceExhausted) {
        ++w.attempts.rejected;
      } else {
        ++w.attempts.failed;
      }
      w.latency_ms.push_back({p.due_us, INFINITY});
    }
    offset_s += rng->NextExponential(rate);
    sampler.Fill(rng, &nodes);
  }
  w.end_us = NowUs();
  for (Pending& p : pending) collect(p);
  return w;
}

/// Calls Advance with fresh events at a fixed events/s until stopped,
/// recording each call's duration and the batches applied.
class Feeder {
 public:
  Feeder(serve::ServingEngine* engine, int64_t num_nodes, double start_time,
         uint64_t seed)
      : engine_(engine), num_nodes_(num_nodes), rng_(seed),
        latest_time_(start_time), next_time_(start_time) {}

  ~Feeder() { Stop(); }
  Feeder(const Feeder&) = delete;
  Feeder& operator=(const Feeder&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Event time of the last applied advance (queries are made at it).
  double latest_time() const { return latest_time_.load(); }

  /// Durations (ms) of the calls that started in [from_us, to_us).
  std::vector<double> CallMsBetween(int64_t from_us, int64_t to_us) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Call& c : calls_) {
      if (c.start_us >= from_us && c.start_us < to_us) out.push_back(c.ms);
    }
    return out;
  }
  const std::vector<std::vector<graph::Event>>& applied() const {
    return applied_;
  }
  int64_t failures() const { return failures_; }

 private:
  struct Call {
    int64_t start_us = 0;
    double ms = 0.0;
  };

  void Loop() {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kFeedBatch / kFeedEventsPerSec));
    Clock::time_point next = Clock::now();
    while (!stop_.load()) {
      std::vector<graph::Event> batch(static_cast<size_t>(kFeedBatch));
      for (graph::Event& e : batch) {
        e.src = static_cast<graph::NodeId>(
            rng_.NextBounded(static_cast<uint64_t>(num_nodes_)));
        e.dst = static_cast<graph::NodeId>(
            rng_.NextBounded(static_cast<uint64_t>(num_nodes_ - 1)));
        if (e.dst >= e.src) ++e.dst;
        next_time_ += kFeedTimeStep;
        e.time = next_time_;
      }
      const int64_t start_us = NowUs();
      Status status = engine_->Advance(batch);
      const int64_t end_us = NowUs();
      if (!status.ok()) {
        ++failures_;
      } else {
        latest_time_.store(batch.back().time);
        applied_.push_back(std::move(batch));
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        calls_.push_back(
            {start_us, static_cast<double>(end_us - start_us) * 1e-3});
      }
      next += interval;
      std::this_thread::sleep_until(next);
    }
  }

  serve::ServingEngine* engine_;
  const int64_t num_nodes_;
  Rng rng_;
  std::atomic<double> latest_time_;
  double next_time_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<Call> calls_;  // guarded by mu_
  // Written by the feeder thread only; read after Stop().
  std::vector<std::vector<graph::Event>> applied_;
  int64_t failures_ = 0;
  std::thread thread_;
};

double P(const std::vector<double>& v, double q) {
  return ComputePercentile(v, q).value;
}

}  // namespace

void RunServe(const Args& args, bool live, Report* report) {
  util::ThreadPool::SetGlobalNumThreads(1);
  report->threads = {1, kShards, 1, live ? 1 : 0};
  const double nominal_rps = live ? kLiveRps : kHotRps;

  // Set-up: data, checkpoint, engine and cache warm-up, several times.
  std::vector<double> setup_s;
  SpanHarvest setup_trace;
  std::unique_ptr<Fixture> f;
  if (args.trace) setup_trace.Start();
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    f.reset();
    const Clock::time_point t0 = Clock::now();
    f = BuildFixture(args.seed, live, args.work_dir);
    // Warm-up: every working-set node once on each shard, which fills the
    // serve_hot caches.
    serve::ShardRouter router(kShards);
    for (int s = 0; s < kShards; ++s) {
      graph::NodeId source = f->working_set.front();
      for (graph::NodeId v : f->working_set) {
        if (router.ShardOf(v) == s) {
          source = v;
          break;
        }
      }
      for (size_t at = 0; at < f->working_set.size();
           at += kNodesPerRequest - 1) {
        std::vector<graph::NodeId> nodes = {source};
        for (size_t j = at; j < std::min(f->working_set.size(),
                                         at + kNodesPerRequest - 1);
             ++j) {
          nodes.push_back(f->working_set[j]);
        }
        auto r = f->engine->EmbedFull(nodes, f->history_end);
        if (!r.ok()) throw std::runtime_error(r.status().ToString());
      }
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  double load_checkpoint_s = 0.0;
  if (args.trace) {
    setup_trace.Stop();
    load_checkpoint_s =
        InclusiveSeconds(setup_trace.Totals(), "serve/load_checkpoint");
  }

  // Probe: served fp32 rows equal a direct forward of the checkpoint
  // encoder at the same memory version.
  const size_t probe_size =
      std::min<size_t>(kProbeNodes, f->working_set.size());
  const std::vector<graph::NodeId> probe(
      f->working_set.begin(),
      f->working_set.begin() + static_cast<std::ptrdiff_t>(probe_size));
  const ts::Tensor hot_rows =
      DirectForward(f->reference.get(), f->working_set, f->history_end);
  ReferenceRows reference_rows;
  for (size_t i = 0; i < f->working_set.size(); ++i) {
    reference_rows[f->working_set[i]] =
        hot_rows.data() + static_cast<int64_t>(i) * kDim;
  }
  {
    auto r = f->engine->EmbedFull(probe, f->history_end);
    if (!r.ok()) {
      report->Fail("probe failed: " + r.status().ToString());
      return;
    }
    for (size_t i = 0; i < probe.size(); ++i) {
      if (!RowEquals(r.value().embeddings, static_cast<int64_t>(i),
                     reference_rows[probe[i]])) {
        report->Fail("served probe row differs from the direct forward");
        break;
      }
    }
  }

  NodeSampler sampler(f->working_set, f->graph->num_nodes(), /*zipf=*/!live);
  Rng arrivals(args.seed * 0x9E3779B97F4A7C15ULL + 101);
  std::unique_ptr<Feeder> feeder;
  std::function<double()> query_time;
  if (live) {
    feeder = std::make_unique<Feeder>(f->engine.get(), f->graph->num_nodes(),
                                      f->history_end, args.seed + 7);
    feeder->Start();
    query_time = [&feeder] { return feeder->latest_time(); };
  } else {
    const double t = f->history_end;
    query_time = [t] { return t; };
  }
  const ReferenceRows* check_rows = live ? nullptr : &reference_rows;
  // Memory versions count state updates since each encoder was built, so
  // the engine and the reference are compared by how far they advanced.
  const uint64_t engine_version0 = f->engine->memory_version();
  const uint64_t reference_version0 = f->reference->memory().version();
  const double nominal_s = args.seconds;

  // windows[0] is the untraced nominal window; the traced run adds a
  // second, traced one, which the layer metrics come from.
  std::vector<Window> windows;
  windows.push_back(DriveOpenLoop(f->engine.get(), sampler, nominal_rps,
                                  nominal_s, query_time, check_rows,
                                  &arrivals));
  double overhead = 0.0;
  SpanHarvest run_trace;
  if (args.trace) {
    obs::MetricsRegistry::Global().ResetValues();
    const int64_t allocs_before = HeapAllocations();
    run_trace.Start();
    windows.push_back(DriveOpenLoop(f->engine.get(), sampler,
                                    nominal_rps, nominal_s * 0.5,
                                    query_time, check_rows, &arrivals));
    run_trace.Stop();
    const double allocations =
        static_cast<double>(HeapAllocations() - allocs_before);
    const double batches = static_cast<double>(
        obs::MetricsRegistry::Global()
            .histogram("serve.batch.coalesced_requests")
            .count());
    overhead = Median(windows[1].engine_ms) / Median(windows[0].engine_ms) -
               1.0;
    report->Add("tensor.allocs_per_batch",
                batches > 0 ? allocations / batches : 0.0, "count");
  }
  const Window& nominal = windows.front();
  const Window& traced = windows.back();

  if (feeder != nullptr) feeder->Stop();

  Attempts served;
  for (const Window& w : windows) {
    served.Add(w.attempts);
    if (w.row_mismatches > 0) {
      report->Fail("served rows differ from the direct forward");
    }
  }
  if (!served.Balanced()) {
    report->Fail("attempts do not add up: answered + rejected + shed + "
                 "expired + failed != attempted");
  }

  if (live) {
    // The engine must sit at the version the applied advances give, and
    // serve what a reference that replayed them (in the engine's chunking)
    // computes.
    if (feeder->failures() > 0) {
      report->Fail(std::to_string(feeder->failures()) + " advances failed");
    }
    {
      ts::InferenceModeGuard guard;
      for (const auto& batch : feeder->applied()) {
        f->reference->ReplayEvents(batch, serve::kAdvanceReplayBatch);
      }
    }
    const uint64_t version = f->engine->memory_version();
    if (feeder->applied().empty() ||
        version - engine_version0 !=
            f->reference->memory().version() - reference_version0) {
      report->Fail("engine memory_version moved by " +
                   std::to_string(version - engine_version0) +
                   ", the reference replay by " +
                   std::to_string(f->reference->memory().version() -
                                  reference_version0));
    }
    for (uint64_t v : f->engine->ShardMemoryVersions()) {
      if (v != version) report->Fail("a shard replica is at another version");
    }
    const double t = feeder->latest_time();
    auto r = f->engine->EmbedFull(probe, t);
    if (!r.ok()) {
      report->Fail("final probe failed: " + r.status().ToString());
    } else {
      const ts::Tensor expect = DirectForward(f->reference.get(), probe, t);
      bool equal = true;
      for (size_t i = 0; i < probe.size(); ++i) {
        equal = equal && RowEquals(r.value().embeddings,
                                   static_cast<int64_t>(i),
                                   expect.data() + i * kDim);
      }
      if (r.value().stale || r.value().memory_version != version || !equal) {
        report->Fail("final probe differs from the reference replay");
      }
    }
  }

  report->attempted = served.attempted;
  report->failed = served.not_answered();

  // Latency at the nominal rate (untraced window): the median over
  // kLatencyWindows spans of each span's percentile, so a stall of the
  // host in one span does not set the figure. A request not answered
  // counts as +inf.
  const double p50 = MedianOfWindowPercentiles(
      nominal.latency_ms, nominal.start_us, nominal.end_us, kLatencyWindows,
      0.50);
  std::vector<double> advance_ms;
  if (feeder != nullptr) {
    advance_ms = feeder->CallMsBetween(nominal.start_us, nominal.end_us);
  }

  if (!args.trace) {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    report->Add("latency_p50_ms", p50, "ms");
    return;
  }

  // The tails: too unsteady on shared hosts to carry a bound, so they are
  // reported with the layers.
  int64_t per_window = 0;
  const double p99 = MedianOfWindowPercentiles(
      nominal.latency_ms, nominal.start_us, nominal.end_us, kLatencyWindows,
      0.99, &per_window);
  if (!std::isfinite(p99) || per_window < 1000) {
    report->Fail("nominal window has no finite p99 with 10 samples beyond "
                 "in each span");
  }
  report->Add("query_p99_ms", p99, "ms");
  if (live) {
    const Percentile a95 = ComputePercentile(advance_ms, 0.95);
    if (a95.beyond < 10) {
      report->Fail("too few advances for p95: " +
                   std::to_string(advance_ms.size()));
    }
    report->Add("advance_p50_ms", Median(advance_ms), "ms");
    report->Add("advance_p95_ms", a95.value, "ms");
  } else {
    report->Add("advance_p50_ms", 0.0, "ms");
    report->Add("advance_p95_ms", 0.0, "ms");
  }
  report->Add("failed_frac",
              static_cast<double>(served.not_answered()) /
                  static_cast<double>(std::max<int64_t>(1, served.attempted)),
              "ratio");
  report->Add("stale_frac",
              static_cast<double>(nominal.stale) /
                  static_cast<double>(
                      std::max<int64_t>(1, nominal.attempts.answered)),
              "ratio");

  const double wall_s =
      static_cast<double>(traced.end_us - traced.start_us) * 1e-6;
  AddLayerMetrics(run_trace, load_checkpoint_s, wall_s, kShards, report);
  report->Add("train.batches", 0.0, "count");
  report->Add("train.sample_s", 0.0, "s");
  report->Add("train.compute_s", 0.0, "s");
  report->Add("test_auc", 0.0, "ratio");
  report->Add("test_ap", 0.0, "ratio");
  report->Add("serve.queue.peak_depth",
              static_cast<double>(f->engine->queue_peak_depth()), "count");
  report->Add("serve.rejected", static_cast<double>(traced.attempts.rejected),
              "count");
  report->Add("serve.shed", static_cast<double>(traced.attempts.shed), "count");
  report->Add("serve.expired", static_cast<double>(traced.attempts.expired),
              "count");
  report->Add("serve.stale", static_cast<double>(traced.stale), "count");
  report->Add("load.gen_late_p99_ms", P(traced.late_ms, 0.99), "ms");
  report->Add("serve.engine_latency_p99_ms", P(traced.engine_ms, 0.99), "ms");
  // Executor time no deeper span explains: the self time of the
  // executors' top-level spans.
  report->Add(args.workload + ".unattributed_s",
              SelfSeconds(run_trace.Totals(),
                          {"serve/execute_batch", "serve/advance_barrier"}),
              "s");
  report->Add("trace.overhead_frac", overhead, "ratio");
}

}  // namespace perfbench
