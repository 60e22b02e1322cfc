// train_cell: one Table V cell — CPDG pre-training with the TGN backbone,
// EIE-GRU fine-tuning, and link-prediction scoring of the test events — on
// the Amazon-like universe, time+field transfer, Beauty downstream field.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/finetuner.h"
#include "core/pretrainer.h"
#include "data/generators.h"
#include "data/transfer.h"
#include "dgnn/encoder.h"
#include "eval/evaluators.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "train/telemetry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace cpdg;
using Clock = std::chrono::steady_clock;

// Sized so one cell runs for seconds on a few cores: the pre-training and
// downstream event counts of the Amazon-like spec are scaled by
// kEventScale.
constexpr double kEventScale = 2.0;
constexpr int64_t kPretrainEpochs = 2;
constexpr int64_t kFinetuneEpochs = 2;
constexpr int64_t kBatchSize = 200;
constexpr float kLearningRate = 5e-3f;
constexpr int64_t kDim = 32;
// A cell that scores the test events no better than this has a broken
// model; the cells of every seed tried score about 0.8.
constexpr double kMinTestAuc = 0.6;
// Kernel pool threads: on a shared 4-vCPU host, interleaved runs with 4
// threads were no faster than with 2 (median cell 4.31 s vs 4.30 s) and
// varied more from run to run (coefficient of variation 0.12 vs 0.09).
constexpr int kMaxPoolThreads = 2;
// Set-up is short, so it is repeated often enough for a steady median.
constexpr int kSetupRepeats = 15;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The cell's data: the Amazon-like universe of `seed` with events scaled
/// by kEventScale, time+field transfer, Beauty downstream field.
data::TransferDataset BuildTableVDataset(uint64_t seed) {
  data::UniverseSpec spec = data::MakeAmazonLike();
  for (data::FieldSpec& f : spec.fields) {
    f.num_events_early = static_cast<int64_t>(f.num_events_early * kEventScale);
    f.num_events_late = static_cast<int64_t>(f.num_events_late * kEventScale);
  }
  data::TransferBenchmarkBuilder builder(spec, seed);
  return builder.Build(data::TransferSetting::kTimeField,
                       /*downstream_field=*/0);
}

struct CellOutcome {
  double auc = 0.0;
  double ap = 0.0;
  bool losses_finite = true;
  double wall_s = 0.0;
  train::TrainTelemetry pretrain_log;
  train::TrainTelemetry finetune_log;
};

bool AllFinite(const train::TrainTelemetry& log) {
  if (log.epoch_losses.empty()) return false;
  for (double loss : log.epoch_losses) {
    if (!std::isfinite(loss)) return false;
  }
  return log.status.ok();
}

/// One cell through the public training API. `after_call` runs after each
/// of the three public calls (the traced run harvests spans there).
CellOutcome RunCell(const data::TransferDataset& ds, uint64_t seed,
                    const std::function<void()>& after_call) {
  CellOutcome out;
  const Clock::time_point start = Clock::now();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  dgnn::EncoderConfig config =
      dgnn::EncoderConfig::Preset(dgnn::EncoderType::kTgn, ds.num_nodes);
  config.memory_dim = kDim;
  config.embed_dim = kDim;
  config.time_dim = 8;
  config.num_neighbors = 10;
  Rng enc_rng = rng.Split();
  dgnn::DgnnEncoder encoder(config, &ds.pretrain_graph, &enc_rng);

  core::EvolutionCheckpoints checkpoints;
  {
    CPDG_TRACE_SPAN("perfbench/pretrain");
    Rng dec_rng = rng.Split();
    dgnn::LinkPredictor pre_decoder(config.embed_dim, kDim, &dec_rng);
    core::CpdgConfig cpdg;
    cpdg.epochs = kPretrainEpochs;
    cpdg.batch_size = kBatchSize;
    cpdg.learning_rate = kLearningRate;
    cpdg.negative_pool = ds.pretrain_negative_pool;
    core::CpdgPretrainer pretrainer(cpdg, &rng);
    core::PretrainResult result =
        pretrainer.Pretrain(&encoder, &pre_decoder, ds.pretrain_graph);
    out.pretrain_log = std::move(result.log);
    checkpoints = std::move(result.checkpoints);
  }
  after_call();

  std::unique_ptr<core::FineTunedModel> model;
  {
    CPDG_TRACE_SPAN("perfbench/finetune");
    encoder.AttachGraph(&ds.downstream_train_graph);
    core::FineTuneConfig ft;
    ft.train.epochs = kFinetuneEpochs;
    ft.train.batch_size = kBatchSize;
    ft.train.learning_rate = kLearningRate;
    ft.train.negative_pool = ds.downstream_negative_pool;
    ft.use_eie = !checkpoints.empty();
    ft.eie_variant = core::EieVariant::kGru;
    ft.eie_dim = kDim;
    ft.decoder_hidden = kDim;
    model = std::make_unique<core::FineTunedModel>(core::FineTuneLinkPrediction(
        &encoder, ds.downstream_train_graph, ft,
        checkpoints.empty() ? nullptr : &checkpoints, &rng,
        &out.finetune_log));
  }
  after_call();

  {
    CPDG_TRACE_SPAN("perfbench/evaluate");
    eval::ScoreFn score = [&](const std::vector<graph::NodeId>& srcs,
                              const std::vector<graph::NodeId>& dsts,
                              const std::vector<double>& times) {
      return model->ScoreLogits(&encoder, srcs, dsts, times);
    };
    // Validation events only advance memory, as in the paper's protocol.
    eval::EvaluateDynamicLinkPrediction(&encoder, score,
                                        ds.downstream_val_events,
                                        ds.downstream_negative_pool,
                                        kBatchSize, &rng);
    eval::LinkPredictionMetrics m = eval::EvaluateDynamicLinkPrediction(
        &encoder, score, ds.downstream_test_events,
        ds.downstream_negative_pool, kBatchSize, &rng);
    out.auc = m.auc;
    out.ap = m.ap;
  }
  after_call();
  out.wall_s = Seconds(start, Clock::now());
  out.losses_finite =
      AllFinite(out.pretrain_log) && AllFinite(out.finetune_log);
  return out;
}

}  // namespace

void RunTrainCell(const Args& args, Report* report) {
  const int pool = std::min(kMaxPoolThreads, AvailableCpus());
  util::ThreadPool::SetGlobalNumThreads(pool);
  report->threads = {pool, 0, 0, 0};

  // Set-up: generate the universe and build the transfer graphs.
  std::vector<double> setup_s;
  std::unique_ptr<data::TransferDataset> ds;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    const Clock::time_point t0 = Clock::now();
    ds = std::make_unique<data::TransferDataset>(BuildTableVDataset(args.seed));
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  if (ds->downstream_test_events.empty()) {
    report->Fail("dataset has no test events");
    return;
  }

  const auto check_cell = [&](const CellOutcome& cell,
                              const CellOutcome& first, const char* what) {
    if (!cell.losses_finite) {
      report->Fail(std::string(what) + ": non-finite or missing loss");
    }
    if (!(cell.auc > 0.0 && cell.auc <= 1.0 && cell.ap > 0.0 &&
          cell.ap <= 1.0)) {
      report->Fail(std::string(what) + ": AUC/AP out of range");
    }
    if (cell.auc < kMinTestAuc) {
      report->Fail(std::string(what) + ": test AUC " +
                   std::to_string(cell.auc) + " below " +
                   std::to_string(kMinTestAuc));
    }
    if (!SameBits(cell.auc, first.auc) || !SameBits(cell.ap, first.ap)) {
      report->Fail(std::string(what) +
                   ": AUC/AP differ from the first cell of this seed");
    }
  };

  if (!args.trace) {
    // Whole cells until the time budget is spent; the metrics are medians
    // over the cells.
    std::vector<CellOutcome> cells;
    std::vector<double> cell_s;
    const Clock::time_point begin = Clock::now();
    do {
      cells.push_back(RunCell(*ds, args.seed, [] {}));
      cell_s.push_back(cells.back().wall_s);
      check_cell(cells.back(), cells.front(), "cell");
    } while (Seconds(begin, Clock::now()) < args.seconds);
    report->attempted = static_cast<int64_t>(cells.size());
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    report->Add("latency_p50_ms", Median(cell_s) * 1e3, "ms");
    return;
  }

  // Traced run: one untraced cell, then the same cell traced, which must
  // give bitwise-equal results.
  const CellOutcome plain = RunCell(*ds, args.seed, [] {});
  check_cell(plain, plain, "untraced cell");

  obs::MetricsRegistry::Global().ResetValues();
  SpanHarvest harvest;
  harvest.Start();
  const int64_t allocs_before = HeapAllocations();
  double harvest_s = 0.0;  // spent collecting spans, not in the cell
  const CellOutcome traced = RunCell(*ds, args.seed, [&] {
    const Clock::time_point t0 = Clock::now();
    harvest.Harvest();
    harvest_s += Seconds(t0, Clock::now());
  });
  const double traced_s = traced.wall_s - harvest_s;
  const int64_t allocations = HeapAllocations() - allocs_before;
  harvest.Stop();
  check_cell(traced, plain, "traced cell");
  report->attempted = 2;
  if (harvest.dropped() > 0) {
    report->Fail("profiler dropped " + std::to_string(harvest.dropped()) +
                 " spans");
  }

  AddLayerMetrics(harvest, 0.0, traced_s, 0, report);
  int64_t batches = 0;
  double sample_s = 0.0;
  double compute_s = 0.0;
  for (const train::TrainTelemetry* log :
       {&traced.pretrain_log, &traced.finetune_log}) {
    for (const train::EpochTelemetry& e : log->epochs) {
      batches += e.num_batches;
      sample_s += e.sample_seconds;
      compute_s += e.compute_seconds;
    }
  }
  report->Add("train.batches", static_cast<double>(batches), "count");
  report->Add("train.sample_s", sample_s, "s");
  report->Add("train.compute_s", compute_s, "s");
  report->Add("tensor.allocs_per_batch",
              batches > 0 ? static_cast<double>(allocations) /
                                static_cast<double>(batches)
                          : 0.0,
              "count");
  for (const char* idle :
       {"serve.queue.peak_depth", "serve.rejected", "serve.shed",
        "serve.expired", "serve.stale"}) {
    report->Add(idle, 0.0, "count");
  }
  report->Add("test_auc", traced.auc, "ratio");
  report->Add("test_ap", traced.ap, "ratio");
  report->Add("load.gen_late_p99_ms", 0.0, "ms");
  report->Add("query_p99_ms", 0.0, "ms");
  report->Add("advance_p50_ms", 0.0, "ms");
  report->Add("advance_p95_ms", 0.0, "ms");
  report->Add("serve.engine_latency_p99_ms", 0.0, "ms");
  report->Add("failed_frac", 0.0, "ratio");
  report->Add("stale_frac", 0.0, "ratio");

  // Main-thread time no library span explains: the benchmark's own call
  // spans are not layers, so their self time counts as unattributed.
  std::map<std::string, SpanTime> main_thread =
      harvest.TotalsOfThreadsWith("perfbench/pretrain");
  double attributed = 0.0;
  for (const auto& [name, t] : main_thread) {
    if (name.rfind("perfbench/", 0) != 0) attributed += t.self_s;
  }
  report->Add("train_cell.unattributed_s", traced_s - attributed, "s");
  report->Add("trace.overhead_frac", traced_s / plain.wall_s - 1.0, "ratio");
}

}  // namespace perfbench
