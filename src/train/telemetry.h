#ifndef CPDG_TRAIN_TELEMETRY_H_
#define CPDG_TRAIN_TELEMETRY_H_

#include <cstdint>
#include <vector>

#include "dgnn/trainer.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace cpdg::train {

/// \brief Per-epoch diagnostics recorded by the training runtime.
///
/// Gradient norms are only recorded for epochs where gradient clipping is
/// enabled (grad_clip > 0): the pre-clip value is the global L2 norm
/// returned by tensor::ClipGradNorm, the post-clip value is what the
/// optimizer actually stepped with (min(pre_clip, grad_clip)). A rising
/// mean_grad_norm_pre_clip with a flat post-clip norm is the signature of
/// a gradient-explosion regression.
struct EpochTelemetry {
  /// Wall-clock time of the epoch (monotonic, seconds).
  double wall_clock_sec = 0.0;
  /// Wall time spent reading and preparing (sampling + assembling) this
  /// epoch's batches. Prepare and compute run in turn on one thread, so
  /// sample_seconds + compute_seconds never exceeds wall_clock_sec.
  double sample_seconds = 0.0;
  /// Wall time in forward/backward/optimizer/commit.
  double compute_seconds = 0.0;
  /// Batches iterated, including batches that produced no optimizer step.
  int64_t num_batches = 0;
  /// Batches that produced a loss and took an optimizer step.
  int64_t num_steps = 0;
  /// Stepped-loss sum divided by num_batches (matches the historical
  /// epoch-loss bookkeeping of the hand-rolled loops).
  double mean_loss = 0.0;
  /// Mean / max global gradient L2 norm before clipping, over stepped
  /// batches.
  double mean_grad_norm_pre_clip = 0.0;
  double max_grad_norm_pre_clip = 0.0;
  /// Mean global gradient L2 norm after clipping, over stepped batches.
  double mean_grad_norm_post_clip = 0.0;
};

/// \brief Enriched training log produced by train::TrainLoop.
///
/// Extends dgnn::TrainLog so existing consumers of epoch_losses /
/// final_loss() keep working; `epochs` carries the per-epoch wall-clock,
/// batch-count and gradient-norm telemetry.
///
/// The health/checkpoint counters below are backed by the obs metrics
/// registry: the Count*() methods are the only increment path, and each
/// bumps the per-run snapshot field and the process-cumulative registry
/// counter (train.nonfinite_skips / train.rollbacks /
/// train.checkpoint_saves / train.checkpoint_failures) in one call. The
/// snapshot fields stay plain ints so checkpointing can serialize and
/// restore them; the registry counters are monotonic across the process
/// and are deliberately NOT rewound on rollback/resume.
struct TrainTelemetry : public dgnn::TrainLog {
  std::vector<EpochTelemetry> epochs;

  /// \name Health-monitor counters
  /// Batches whose loss or gradient norm was non-finite and were skipped
  /// under NonFinitePolicy::kSkipBatch.
  int64_t nonfinite_skips = 0;
  /// Times the run restored the last checkpoint and replayed under
  /// NonFinitePolicy::kRollbackToCheckpoint.
  int64_t rollbacks = 0;

  /// \name Checkpoint bookkeeping
  /// Successful periodic checkpoint publishes / failed attempts (a failed
  /// save never aborts training; the previous checkpoint stays intact).
  int64_t checkpoint_saves = 0;
  int64_t checkpoint_failures = 0;

  /// True when the run ended before all epochs via TrainLoop::RequestStop
  /// or TrainLoopOptions::max_batches (graceful shutdown, still OK).
  bool stopped_early = false;

  /// OK unless the run halted: non-finite loss under kHalt, a failed
  /// resume, or an exhausted rollback budget (Status::Internal).
  Status status;

  void CountNonFiniteSkip() {
    ++nonfinite_skips;
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("train.nonfinite_skips");
    counter.Add();
  }
  void CountRollback() {
    ++rollbacks;
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("train.rollbacks");
    counter.Add();
  }
  void CountCheckpointSave() {
    ++checkpoint_saves;
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("train.checkpoint_saves");
    counter.Add();
  }
  void CountCheckpointFailure() {
    ++checkpoint_failures;
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("train.checkpoint_failures");
    counter.Add();
  }

  const EpochTelemetry& final_epoch() const { return epochs.back(); }

  /// Total wall-clock across all epochs (seconds).
  double total_wall_clock_sec() const {
    double total = 0.0;
    for (const EpochTelemetry& e : epochs) total += e.wall_clock_sec;
    return total;
  }
};

}  // namespace cpdg::train

#endif  // CPDG_TRAIN_TELEMETRY_H_
