#include "train/train_loop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/arena.h"
#include "tensor/serialization.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cpdg::train {

namespace ts = cpdg::tensor;

namespace {

/// Global L2 gradient norm in double, used for non-finite detection when
/// clipping is off (ClipGradNorm already reports it when clipping is on).
double GradNorm(const std::vector<ts::Tensor>& params) {
  double total = 0.0;
  for (const ts::Tensor& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad();
    for (int64_t j = 0; j < p.size(); ++j) {
      total += static_cast<double>(g[j]) * g[j];
    }
  }
  return std::sqrt(total);
}

/// Rolls the consumer thread's per-batch arena counters into the metrics
/// registry after each completed batch.
void RollArenaStats() {
  ts::ArenaStats stats = ts::ArenaResetBatch();
  static obs::Counter& pool_hits =
      obs::MetricsRegistry::Global().counter("train.arena.pool_hits");
  static obs::Counter& heap_allocs =
      obs::MetricsRegistry::Global().counter("train.arena.heap_allocs");
  pool_hits.Add(stats.pool_hits);
  heap_allocs.Add(stats.heap_allocs);
}

}  // namespace

TrainLoop::TrainLoop(std::vector<tensor::Tensor> params,
                     const TrainLoopOptions& options)
    : params_(std::move(params)),
      options_(options),
      optimizer_(params_, options.learning_rate) {
  CPDG_CHECK_GE(options.epochs, 1);
  CPDG_CHECK_GE(options.checkpoint_every_batches, 0);
  CPDG_CHECK_GE(options.max_rollbacks, 0);
  CPDG_CHECK_GE(options.max_batches, 0);
}

void TrainLoop::RegisterCheckpointSection(std::string name,
                                          CheckpointClientSection section) {
  CPDG_CHECK(!name.empty());
  CPDG_CHECK(section.save != nullptr);
  CPDG_CHECK(section.restore != nullptr);
  for (const auto& [existing, unused] : checkpoint_sections_) {
    CPDG_CHECK(existing != name)
        << "duplicate checkpoint section '" << name << "'";
  }
  checkpoint_sections_.emplace_back(std::move(name), std::move(section));
}

Status TrainLoop::ResumeFrom(const std::string& path) {
  CPDG_ASSIGN_OR_RETURN(tensor::SectionReader reader,
                        tensor::SectionReader::Open(path));
  staged_resume_ =
      std::make_unique<tensor::SectionReader>(std::move(reader));
  return Status::OK();
}

TrainLoop::BatchOutcome TrainLoop::StepOnLoss(tensor::Tensor* loss,
                                              PartialEpoch* partial,
                                              TrainTelemetry* telemetry) {
  const float loss_value = loss->item();
  bool nonfinite = !std::isfinite(loss_value);
  double norm = 0.0;
  bool have_clip_norm = false;
  if (!nonfinite) {
    CPDG_TRACE_SPAN("train/backward");
    optimizer_.ZeroGrad();
    loss->Backward();
    if (options_.grad_clip > 0.0f) {
      norm = static_cast<double>(
          ts::ClipGradNorm(params_, options_.grad_clip));
      have_clip_norm = true;
    } else {
      norm = GradNorm(params_);
    }
    nonfinite = !std::isfinite(norm);
  }
  if (nonfinite) {
    switch (options_.non_finite_policy) {
      case NonFinitePolicy::kHalt:
        return BatchOutcome::kHalt;
      case NonFinitePolicy::kSkipBatch:
        telemetry->CountNonFiniteSkip();
        CPDG_LOG(Warning) << options_.log_label
                          << " non-finite loss/grad, skipping batch ("
                          << telemetry->nonfinite_skips << " skipped)";
        return BatchOutcome::kSkippedNonFinite;
      case NonFinitePolicy::kRollbackToCheckpoint:
        return BatchOutcome::kRollback;
    }
  }
  if (have_clip_norm) {
    double clipped =
        std::min(norm, static_cast<double>(options_.grad_clip));
    partial->epoch.mean_grad_norm_pre_clip += norm;
    partial->epoch.max_grad_norm_pre_clip =
        std::max(partial->epoch.max_grad_norm_pre_clip, norm);
    partial->epoch.mean_grad_norm_post_clip += clipped;
  }
  {
    CPDG_TRACE_SPAN("train/optimizer_step");
    optimizer_.Step();
  }
  partial->loss_sum += static_cast<double>(loss_value);
  ++partial->epoch.num_steps;
  return BatchOutcome::kStepped;
}

void TrainLoop::FinishEpoch(int64_t epoch_index, double loss_sum,
                            EpochTelemetry epoch,
                            TrainTelemetry* telemetry) {
  // Historical convention of the hand-rolled loops: the epoch loss is the
  // stepped-loss sum divided by the *total* batch count (batches that
  // found no anchors contribute zero).
  if (epoch.num_batches > 0) {
    epoch.mean_loss = loss_sum / static_cast<double>(epoch.num_batches);
  }
  if (epoch.num_steps > 0) {
    epoch.mean_grad_norm_pre_clip /= static_cast<double>(epoch.num_steps);
    epoch.mean_grad_norm_post_clip /= static_cast<double>(epoch.num_steps);
  }
  // Registry mirror of the per-epoch timing/throughput telemetry; the
  // EpochTelemetry snapshot above stays the per-run record.
  {
    static obs::Histogram& wall = obs::MetricsRegistry::Global().histogram(
        "train.epoch_wall_seconds");
    static obs::Histogram& sample = obs::MetricsRegistry::Global().histogram(
        "train.epoch_sample_seconds");
    static obs::Histogram& compute = obs::MetricsRegistry::Global().histogram(
        "train.epoch_compute_seconds");
    static obs::Counter& batches =
        obs::MetricsRegistry::Global().counter("train.batches");
    static obs::Counter& steps =
        obs::MetricsRegistry::Global().counter("train.steps");
    wall.Observe(epoch.wall_clock_sec);
    if (epoch.sample_seconds > 0.0) sample.Observe(epoch.sample_seconds);
    if (epoch.compute_seconds > 0.0) compute.Observe(epoch.compute_seconds);
    batches.Add(epoch.num_batches);
    steps.Add(epoch.num_steps);
  }
  telemetry->epoch_losses.push_back(epoch.mean_loss);
  CPDG_LOG(Debug) << options_.log_label << " epoch " << epoch_index
                  << " loss=" << epoch.mean_loss
                  << " grad_norm=" << epoch.mean_grad_norm_pre_clip
                  << " batches=" << epoch.num_batches
                  << " wall_ms=" << epoch.wall_clock_sec * 1e3;
  telemetry->epochs.push_back(epoch);
}

void TrainLoop::SaveCheckpoint(uint32_t mode, int64_t num_batches,
                               int64_t epoch, int64_t batches_done,
                               dgnn::DgnnEncoder* encoder,
                               TrainTelemetry* telemetry,
                               const PartialEpoch& partial) {
  CPDG_TRACE_SPAN("train/checkpoint_save");
  tensor::SectionWriter writer;
  RunProgress progress;
  progress.mode = mode;
  progress.num_epochs = options_.epochs;
  progress.num_batches = num_batches;
  progress.next_epoch = epoch;
  progress.next_batch = batches_done;
  writer.Add(kProgressSection, EncodeProgress(progress));
  writer.Add(kTelemetrySection, EncodeTelemetryState(*telemetry, partial));
  Result<std::string> params_payload = tensor::EncodeTensorList(params_);
  CPDG_CHECK(params_payload.ok()) << params_payload.status().ToString();
  writer.Add(tensor::kParamsSection, params_payload.TakeValue());
  std::string optimizer_state;
  optimizer_.SaveState(&optimizer_state);
  writer.Add(kOptimizerSection, std::move(optimizer_state));
  if (encoder != nullptr) {
    std::string memory_state;
    encoder->memory().SerializeTo(&memory_state);
    writer.Add(kMemorySection, std::move(memory_state));
  }
  for (const auto& [name, section] : checkpoint_sections_) {
    std::string payload;
    section.save(&payload);
    writer.Add(name, std::move(payload));
  }
  Status status = writer.WriteAtomic(options_.checkpoint_path);
  if (status.ok()) {
    telemetry->CountCheckpointSave();
    CPDG_LOG(Debug) << options_.log_label << " checkpoint -> "
                    << options_.checkpoint_path << " (epoch " << epoch
                    << ", batch " << batches_done << ")";
  } else {
    // A failed publish never aborts training and, thanks to the atomic
    // temp-file path, never corrupts the previous checkpoint either.
    telemetry->CountCheckpointFailure();
    CPDG_LOG(Warning) << options_.log_label
                      << " checkpoint save failed: " << status.ToString();
  }
}

void TrainLoop::MaybeCheckpoint(uint32_t mode, int64_t num_batches,
                                int64_t epoch, int64_t batches_done,
                                dgnn::DgnnEncoder* encoder,
                                TrainTelemetry* telemetry,
                                const PartialEpoch& partial) {
  if (!checkpointing_enabled()) return;
  if (++batches_since_checkpoint_ < options_.checkpoint_every_batches) {
    return;
  }
  batches_since_checkpoint_ = 0;
  SaveCheckpoint(mode, num_batches, epoch, batches_done, encoder, telemetry,
                 partial);
}

Status TrainLoop::ApplyStagedResume(uint32_t mode, int64_t num_batches,
                                    dgnn::DgnnEncoder* encoder,
                                    TrainTelemetry* telemetry,
                                    PartialEpoch* partial,
                                    int64_t* next_epoch,
                                    int64_t* next_batch) {
  CPDG_CHECK(staged_resume_ != nullptr);
  // Consume the staged reader regardless of outcome: a failed resume must
  // not silently leak into a later Run call.
  std::unique_ptr<tensor::SectionReader> reader = std::move(staged_resume_);

  // Parse and validate everything before mutating any state.
  RunProgress progress;
  CPDG_ASSIGN_OR_RETURN(std::string_view progress_bytes,
                        reader->Find(kProgressSection));
  CPDG_RETURN_NOT_OK(DecodeProgress(progress_bytes, &progress));
  if (progress.mode != mode) {
    return Status::FailedPrecondition(
        "checkpoint was written by a different run mode");
  }
  if (progress.num_epochs != options_.epochs ||
      progress.num_batches != num_batches) {
    return Status::FailedPrecondition(
        "checkpoint run shape (" + std::to_string(progress.num_epochs) +
        " epochs x " + std::to_string(progress.num_batches) +
        " batches) does not match this run (" +
        std::to_string(options_.epochs) + " x " +
        std::to_string(num_batches) + ")");
  }

  TrainTelemetry restored_telemetry;
  PartialEpoch restored_partial;
  CPDG_ASSIGN_OR_RETURN(std::string_view telemetry_bytes,
                        reader->Find(kTelemetrySection));
  CPDG_RETURN_NOT_OK(DecodeTelemetryState(telemetry_bytes,
                                          &restored_telemetry,
                                          &restored_partial));

  CPDG_ASSIGN_OR_RETURN(std::string_view params_bytes,
                        reader->Find(tensor::kParamsSection));
  CPDG_ASSIGN_OR_RETURN(std::vector<tensor::Tensor> loaded_params,
                        tensor::DecodeTensorList(params_bytes));

  CPDG_ASSIGN_OR_RETURN(std::string_view optimizer_bytes,
                        reader->Find(kOptimizerSection));
  if (encoder != nullptr && !reader->Has(kMemorySection)) {
    return Status::FailedPrecondition(
        "checkpoint has no memory section but this run has an encoder");
  }
  for (const auto& [name, unused] : checkpoint_sections_) {
    if (!reader->Has(name)) {
      return Status::FailedPrecondition(
          "checkpoint is missing client section '" + name + "'");
    }
  }

  // Commit phase. Each restore below validates its own payload fully
  // before mutating (all-or-nothing per section).
  CPDG_RETURN_NOT_OK(tensor::RestoreTensorData(params_, loaded_params));
  CPDG_RETURN_NOT_OK(optimizer_.LoadState(optimizer_bytes));
  if (encoder != nullptr) {
    CPDG_ASSIGN_OR_RETURN(std::string_view memory_bytes,
                          reader->Find(kMemorySection));
    CPDG_RETURN_NOT_OK(encoder->memory().DeserializeFrom(memory_bytes));
  }
  for (const auto& [name, section] : checkpoint_sections_) {
    CPDG_ASSIGN_OR_RETURN(std::string_view bytes, reader->Find(name));
    Status status = section.restore(bytes);
    if (!status.ok()) {
      return Status(status.code(), "restoring checkpoint section '" + name +
                                       "': " + status.message());
    }
  }

  *telemetry = std::move(restored_telemetry);
  *partial = restored_partial;
  *next_epoch = progress.next_epoch;
  *next_batch = progress.next_batch;
  CPDG_LOG(Info) << options_.log_label << " resumed at epoch "
                 << progress.next_epoch << ", batch " << progress.next_batch
                 << " (" << telemetry->epochs.size()
                 << " completed epochs restored)";
  return Status::OK();
}

Status TrainLoop::Rollback(uint32_t mode, int64_t num_batches,
                           dgnn::DgnnEncoder* encoder,
                           TrainTelemetry* telemetry, PartialEpoch* partial,
                           int64_t* next_epoch, int64_t* next_batch) {
  if (!checkpointing_enabled()) {
    return Status::Internal(
        "non-finite loss under kRollbackToCheckpoint, but periodic "
        "checkpointing is off (set checkpoint_path/checkpoint_every_"
        "batches)");
  }
  if (rollbacks_this_run_ >= options_.max_rollbacks) {
    return Status::Internal(
        "non-finite loss persisted after " +
        std::to_string(rollbacks_this_run_) +
        " rollbacks; giving up (max_rollbacks)");
  }
  Status staged = ResumeFrom(options_.checkpoint_path);
  if (!staged.ok()) {
    return Status::Internal("rollback failed to read checkpoint: " +
                            staged.message());
  }
  // The restore rewinds telemetry to the checkpoint's snapshot, but the
  // health counters describe what happened in *this* process — rolling
  // back must not erase the record of skips, saves and prior rollbacks.
  const int64_t prior_skips = telemetry->nonfinite_skips;
  const int64_t prior_rollbacks = telemetry->rollbacks;
  const int64_t prior_saves = telemetry->checkpoint_saves;
  const int64_t prior_failures = telemetry->checkpoint_failures;
  CPDG_RETURN_NOT_OK(ApplyStagedResume(mode, num_batches, encoder, telemetry,
                                       partial, next_epoch, next_batch));
  telemetry->nonfinite_skips = prior_skips;
  telemetry->rollbacks = prior_rollbacks;
  telemetry->checkpoint_saves = prior_saves;
  telemetry->checkpoint_failures = prior_failures;
  ++rollbacks_this_run_;
  telemetry->CountRollback();
  CPDG_LOG(Warning) << options_.log_label
                    << " non-finite loss: rolled back to checkpoint (epoch "
                    << *next_epoch << ", batch " << *next_batch << ")";
  return Status::OK();
}

TrainTelemetry TrainLoop::RunChronological(dgnn::DgnnEncoder* encoder,
                                           const graph::GraphStore& graph,
                                           int64_t batch_size,
                                           const ChronoPrepareFn& prepare_fn,
                                           const ChronoBatchFn& batch_fn) {
  CPDG_CHECK(batch_fn != nullptr);
  CPDG_CHECK_GT(batch_size, 0);
  TrainTelemetry telemetry;
  const int64_t num_events = graph.num_events();
  const int64_t num_batches = (num_events + batch_size - 1) / batch_size;

  // Intra-batch tensor temporaries recycle through the batch arena for the
  // whole run (see tensor/arena.h).
  tensor::ArenaScope arena_scope;

  stop_requested_ = false;
  batches_run_ = 0;
  batches_since_checkpoint_ = 0;
  rollbacks_this_run_ = 0;

  PartialEpoch partial;
  int64_t start_epoch = 0;
  int64_t start_batch = 0;
  if (staged_resume_ != nullptr) {
    Status status =
        ApplyStagedResume(kRunModeChronological, num_batches, encoder,
                          &telemetry, &partial, &start_epoch, &start_batch);
    if (!status.ok()) {
      telemetry.status = std::move(status);
      return telemetry;
    }
  }

  BatchContext ctx;
  ctx.num_epochs = options_.epochs;
  ctx.num_batches = num_batches;
  int64_t epoch = start_epoch;
  while (epoch < options_.epochs) {
    ctx.epoch = epoch;
    ctx.final_epoch = (epoch == options_.epochs - 1);
    // A mid-epoch (re-)entry keeps the restored memory and partial
    // telemetry and starts at the saved cursor; a fresh epoch resets both,
    // exactly as an uninterrupted run would.
    const bool mid_epoch = (epoch == start_epoch && start_batch > 0);
    if (!mid_epoch) {
      if (encoder != nullptr) encoder->memory().Reset();
      partial = PartialEpoch();
    }

    util::Timer timer;
    bool rolled_back = false;
    for (int64_t index = mid_epoch ? start_batch : 0; index < num_batches;
         ++index) {
      ctx.batch_index = index;
      // Prepare stage: a pure function of (epoch, index). All randomness
      // comes from the coordinate-derived stream, so batch content does
      // not depend on how the run got here (fresh, resumed, rolled back).
      util::Timer sample_timer;
      graph::EventBatch batch;
      batch.first_event_index = index * batch_size;
      graph.ReadEvents(batch.first_event_index,
                       std::min(batch.first_event_index + batch_size,
                                num_events),
                       &batch.events);
      std::any prepared;
      if (prepare_fn != nullptr) {
        CPDG_TRACE_SPAN("train/prepare");
        Rng rng = Rng::ForSubstream(options_.prepare_stream_seed,
                                    static_cast<uint64_t>(epoch),
                                    static_cast<uint64_t>(index));
        prepared = prepare_fn(ctx, batch, &rng);
      }
      const double sample_seconds = sample_timer.ElapsedSeconds();

      util::Timer compute_timer;
      if (encoder != nullptr) encoder->BeginBatch();
      std::optional<tensor::Tensor> loss;
      {
        CPDG_TRACE_SPAN("train/forward");
        loss = batch_fn(ctx, batch, prepared);
      }
      BatchOutcome outcome = BatchOutcome::kNoLoss;
      if (loss.has_value()) {
        outcome = StepOnLoss(&*loss, &partial, &telemetry);
      }
      if (outcome == BatchOutcome::kHalt) {
        partial.epoch.wall_clock_sec += timer.ElapsedSeconds();
        telemetry.status = Status::Internal(
            "non-finite loss at epoch " + std::to_string(epoch) +
            ", batch " + std::to_string(ctx.batch_index));
        return telemetry;
      }
      if (outcome == BatchOutcome::kRollback) {
        Status status = Rollback(kRunModeChronological, num_batches, encoder,
                                 &telemetry, &partial, &epoch, &start_batch);
        if (!status.ok()) {
          telemetry.status = std::move(status);
          return telemetry;
        }
        start_epoch = epoch;
        rolled_back = true;
        break;
      }
      if (encoder != nullptr) encoder->CommitBatch(batch.events);
      ++partial.epoch.num_batches;
      partial.epoch.sample_seconds += sample_seconds;
      partial.epoch.compute_seconds += compute_timer.ElapsedSeconds();
      RollArenaStats();
      if (batch_end_hook_) batch_end_hook_(ctx);
      MaybeCheckpoint(kRunModeChronological, num_batches, epoch,
                      partial.epoch.num_batches, encoder, &telemetry,
                      partial);
      ++batches_run_;
      if (stop_requested_ ||
          (options_.max_batches > 0 && batches_run_ >= options_.max_batches)) {
        partial.epoch.wall_clock_sec += timer.ElapsedSeconds();
        telemetry.stopped_early = true;
        return telemetry;
      }
    }
    if (rolled_back) continue;
    partial.epoch.wall_clock_sec += timer.ElapsedSeconds();
    FinishEpoch(epoch, partial.loss_sum, partial.epoch, &telemetry);
    ++epoch;
    start_batch = 0;
  }
  return telemetry;
}

TrainTelemetry TrainLoop::RunSteps(int64_t steps_per_epoch,
                                   const StepFn& step_fn) {
  CPDG_CHECK(step_fn != nullptr);
  CPDG_CHECK_GE(steps_per_epoch, 0);
  TrainTelemetry telemetry;
  tensor::ArenaScope arena_scope;

  stop_requested_ = false;
  batches_run_ = 0;
  batches_since_checkpoint_ = 0;
  rollbacks_this_run_ = 0;

  PartialEpoch partial;
  int64_t start_epoch = 0;
  int64_t start_batch = 0;
  if (staged_resume_ != nullptr) {
    Status status = ApplyStagedResume(kRunModeSteps, steps_per_epoch,
                                      /*encoder=*/nullptr, &telemetry,
                                      &partial, &start_epoch, &start_batch);
    if (!status.ok()) {
      telemetry.status = std::move(status);
      return telemetry;
    }
  }

  BatchContext ctx;
  ctx.num_epochs = options_.epochs;
  ctx.num_batches = steps_per_epoch;
  int64_t epoch = start_epoch;
  while (epoch < options_.epochs) {
    ctx.epoch = epoch;
    ctx.final_epoch = (epoch == options_.epochs - 1);
    const bool mid_epoch = (epoch == start_epoch && start_batch > 0);
    if (!mid_epoch) partial = PartialEpoch();

    util::Timer timer;
    bool rolled_back = false;
    for (int64_t step = mid_epoch ? start_batch : 0; step < steps_per_epoch;
         ++step) {
      ctx.batch_index = step;
      std::optional<tensor::Tensor> loss;
      {
        CPDG_TRACE_SPAN("train/forward");
        loss = step_fn(ctx);
      }
      BatchOutcome outcome = BatchOutcome::kNoLoss;
      if (loss.has_value()) {
        outcome = StepOnLoss(&*loss, &partial, &telemetry);
      }
      if (outcome == BatchOutcome::kHalt) {
        partial.epoch.wall_clock_sec += timer.ElapsedSeconds();
        telemetry.status = Status::Internal(
            "non-finite loss at epoch " + std::to_string(epoch) + ", step " +
            std::to_string(step));
        return telemetry;
      }
      if (outcome == BatchOutcome::kRollback) {
        Status status =
            Rollback(kRunModeSteps, steps_per_epoch, /*encoder=*/nullptr,
                     &telemetry, &partial, &epoch, &start_batch);
        if (!status.ok()) {
          telemetry.status = std::move(status);
          return telemetry;
        }
        start_epoch = epoch;
        rolled_back = true;
        break;
      }
      ++partial.epoch.num_batches;
      RollArenaStats();
      if (batch_end_hook_) batch_end_hook_(ctx);
      MaybeCheckpoint(kRunModeSteps, steps_per_epoch, epoch,
                      partial.epoch.num_batches, /*encoder=*/nullptr,
                      &telemetry, partial);
      ++batches_run_;
      if (stop_requested_ ||
          (options_.max_batches > 0 && batches_run_ >= options_.max_batches)) {
        partial.epoch.wall_clock_sec += timer.ElapsedSeconds();
        telemetry.stopped_early = true;
        return telemetry;
      }
    }
    if (rolled_back) continue;
    partial.epoch.wall_clock_sec += timer.ElapsedSeconds();
    FinishEpoch(epoch, partial.loss_sum, partial.epoch, &telemetry);
    ++epoch;
    start_batch = 0;
  }
  return telemetry;
}

}  // namespace cpdg::train
