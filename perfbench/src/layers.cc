// Span collection of traced runs, and the per-layer metrics every traced
// workload reports: span self/inclusive times folded from the profiler
// plus the modules' own registry counters. A layer that does not run on a
// workload reports 0.

#include <string>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace perfbench {
namespace {

double Counter(const char* name) {
  return static_cast<double>(
      cpdg::obs::MetricsRegistry::Global().counter(name).value());
}

double HistogramSum(const char* name) {
  return cpdg::obs::MetricsRegistry::Global().histogram(name).sum();
}

double HistogramMean(const char* name) {
  const cpdg::obs::Histogram& h =
      cpdg::obs::MetricsRegistry::Global().histogram(name);
  return h.count() > 0 ? h.sum() / static_cast<double>(h.count()) : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void SpanHarvest::Start() {
  cpdg::obs::Profiler& profiler = cpdg::obs::Profiler::Global();
  profiler.Clear();
  dropped_base_ = profiler.dropped_events();
  cpdg::obs::SetTraceEnabled(true);
}

void SpanHarvest::Harvest() {
  cpdg::obs::Profiler& profiler = cpdg::obs::Profiler::Global();
  std::vector<cpdg::obs::SpanEvent> events = profiler.Snapshot();
  profiler.Clear();
  dropped_ = profiler.dropped_events() - dropped_base_;
  std::map<int32_t, std::vector<cpdg::obs::SpanEvent>> per_thread;
  for (const cpdg::obs::SpanEvent& e : events) {
    per_thread[e.tid].push_back(e);
    if (e.depth == 0) {
      durations_ms_[e.name].push_back(static_cast<double>(e.dur_us) * 1e-3);
    }
  }
  for (const auto& [tid, thread_events] : per_thread) {
    MergeSpanTimes(FoldSpans(thread_events), &by_thread_[tid]);
  }
}

void SpanHarvest::Stop() {
  Harvest();
  cpdg::obs::SetTraceEnabled(false);
}

std::map<std::string, SpanTime> SpanHarvest::Totals() const {
  std::map<std::string, SpanTime> out;
  for (const auto& [tid, totals] : by_thread_) MergeSpanTimes(totals, &out);
  return out;
}

std::map<std::string, SpanTime> SpanHarvest::TotalsOfThreadsWith(
    const std::string& name) const {
  std::map<std::string, SpanTime> out;
  for (const auto& [tid, totals] : by_thread_) {
    if (totals.count(name) > 0) MergeSpanTimes(totals, &out);
  }
  return out;
}

std::vector<double> SpanHarvest::DurationsMs(const std::string& name) const {
  auto it = durations_ms_.find(name);
  return it == durations_ms_.end() ? std::vector<double>() : it->second;
}

double SelfSeconds(const std::map<std::string, SpanTime>& totals,
                   const std::vector<std::string>& names) {
  double s = 0.0;
  for (const std::string& name : names) {
    auto it = totals.find(name);
    if (it != totals.end()) s += it->second.self_s;
  }
  return s;
}

double InclusiveSeconds(const std::map<std::string, SpanTime>& totals,
                        const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.inclusive_s;
}

void AddLayerMetrics(const SpanHarvest& run, double setup_load_checkpoint_s,
                     double wall_s, int shards, Report* report) {
  const std::map<std::string, SpanTime> t = run.Totals();

  // The benchmark's own spans around the public training/eval calls.
  report->Add("core.pretrain_s", InclusiveSeconds(t, "perfbench/pretrain"),
              "s");
  report->Add("core.finetune_s", InclusiveSeconds(t, "perfbench/finetune"),
              "s");
  report->Add("eval.evaluate_s", InclusiveSeconds(t, "perfbench/evaluate"),
              "s");

  report->Add("train.prepare_s", SelfSeconds(t, {"train/prepare"}), "s");
  report->Add("train.forward_s", SelfSeconds(t, {"train/forward"}), "s");
  report->Add("train.backward_s", SelfSeconds(t, {"train/backward"}), "s");
  report->Add("train.optimizer_step_s",
              SelfSeconds(t, {"train/optimizer_step"}), "s");
  report->Add("train.batch_assembly_s",
              SelfSeconds(t, {"train/batch_assembly"}), "s");

  report->Add("sampler.eta_bfs_s", SelfSeconds(t, {"sampler/eta_bfs"}), "s");
  report->Add("sampler.eta_bfs.calls", Counter("sampler.eta_bfs.calls"),
              "count");
  report->Add("sampler.eta_bfs.nodes", HistogramSum("sampler.eta_bfs.nodes"),
              "count");
  report->Add("sampler.eps_dfs_s", SelfSeconds(t, {"sampler/eps_dfs"}), "s");
  report->Add("sampler.eps_dfs.calls", Counter("sampler.eps_dfs.calls"),
              "count");
  report->Add("sampler.eps_dfs.nodes", HistogramSum("sampler.eps_dfs.nodes"),
              "count");
  report->Add("sampler.neighbor_batch_s",
              SelfSeconds(t, {"sampler/neighbor_batch"}), "s");
  report->Add("sampler.neighbor_batch.calls",
              Counter("sampler.neighbor_batch.calls"), "count");

  report->Add("dgnn.memory_flush_s", SelfSeconds(t, {"dgnn/memory_flush"}),
              "s");
  report->Add("dgnn.memory_commit_s", SelfSeconds(t, {"dgnn/memory_commit"}),
              "s");
  report->Add("dgnn.memory.state_updates",
              Counter("dgnn.memory.state_updates"), "count");

  const double fwd_s = SelfSeconds(t, {"tensor/matmul_fwd"});
  const double bwd_s = SelfSeconds(t, {"tensor/matmul_bwd"});
  report->Add("tensor.matmul_fwd_s", fwd_s, "s");
  report->Add("tensor.matmul_bwd_s", bwd_s, "s");
  report->Add("tensor.matmul.calls", Counter("tensor.matmul.calls"), "count");
  report->Add("tensor.matmul.gflops",
              Ratio((Counter("tensor.matmul.fwd_flops") +
                     Counter("tensor.matmul.bwd_flops")) * 1e-9,
                    fwd_s + bwd_s),
              "GFLOP/s");
  const double pool_hits = Counter("train.arena.pool_hits");
  report->Add("tensor.arena.hit_ratio",
              Ratio(pool_hits, pool_hits + Counter("train.arena.heap_allocs")),
              "ratio");

  report->Add("serve.load_checkpoint_s", setup_load_checkpoint_s, "s");
  report->Add("serve.execute_batch_p50_ms",
              Median(run.DurationsMs("serve/execute_batch")), "ms");
  report->Add("serve.forward_s", InclusiveSeconds(t, "serve/forward"), "s");
  const double executor_s = InclusiveSeconds(t, "serve/execute_batch") +
                            InclusiveSeconds(t, "serve/advance_barrier");
  report->Add("serve.executor_busy_frac",
              Ratio(executor_s, wall_s * static_cast<double>(shards)),
              "ratio");
  report->Add("serve.advance_s", InclusiveSeconds(t, "serve/advance"), "s");
  report->Add("serve.advance_barrier_s",
              InclusiveSeconds(t, "serve/advance_barrier"), "s");
  const double hits = Counter("serve.cache.hits");
  report->Add("serve.cache.hit_ratio",
              Ratio(hits, hits + Counter("serve.cache.misses")), "ratio");
  report->Add("serve.batch.requests_mean",
              HistogramMean("serve.batch.coalesced_requests"), "count");
  report->Add("serve.batch.nodes_computed_mean",
              HistogramMean("serve.batch.nodes_computed"), "count");
  report->Add("serve.cache.invalidations", Counter("serve.cache.invalidations"),
              "count");
  report->Add("trace.dropped_spans", static_cast<double>(run.dropped()),
              "count");
}

}  // namespace perfbench
