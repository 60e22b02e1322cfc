#ifndef CPDG_TRAIN_TRAIN_LOOP_H_
#define CPDG_TRAIN_TRAIN_LOOP_H_

#include <any>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dgnn/encoder.h"
#include "graph/batching.h"
#include "graph/graph_store.h"
#include "tensor/checkpoint_container.h"
#include "tensor/optim.h"
#include "train/checkpoint.h"
#include "train/telemetry.h"
#include "util/rng.h"
#include "util/status.h"

namespace cpdg::train {

/// \brief What the health monitor does when a batch produces a non-finite
/// loss or gradient norm.
enum class NonFinitePolicy {
  /// Stop the run; TrainTelemetry::status carries Status::Internal.
  kHalt,
  /// Drop the batch without stepping (the batch still advances encoder
  /// memory and counts toward telemetry) and keep going; counted in
  /// TrainTelemetry::nonfinite_skips.
  kSkipBatch,
  /// Restore the last checkpoint written to checkpoint_path and replay
  /// from its cursor; counted in TrainTelemetry::rollbacks. Requires
  /// periodic checkpointing to be on; halts once max_rollbacks is spent
  /// (a deterministic blow-up would otherwise loop forever).
  kRollbackToCheckpoint,
};

/// \brief Knobs of the shared training runtime.
struct TrainLoopOptions {
  int64_t epochs = 1;
  float learning_rate = 1e-3f;
  /// Global gradient-norm clip applied after every backward pass;
  /// <= 0 disables clipping (and gradient-norm telemetry).
  float grad_clip = 0.0f;
  /// Prefix of the per-epoch debug log line.
  std::string log_label = "train";

  /// \name Crash safety
  /// When non-empty and checkpoint_every_batches > 0, full training state
  /// (params, optimizer moments, encoder memory, telemetry, batch cursor
  /// and registered client sections) is published atomically to this path
  /// every checkpoint_every_batches completed batches. A failed save is
  /// logged and counted but never aborts training.
  std::string checkpoint_path;
  int64_t checkpoint_every_batches = 0;

  /// \name Health monitor
  NonFinitePolicy non_finite_policy = NonFinitePolicy::kHalt;
  /// Rollback budget per Run call under kRollbackToCheckpoint.
  int64_t max_rollbacks = 3;

  /// Graceful stop after this many batches executed by this Run call
  /// (restored batches do not count); 0 disables. The run returns with
  /// stopped_early = true and an OK status — combined with
  /// checkpoint_path this simulates a mid-run crash in tests.
  int64_t max_batches = 0;

  /// Base seed of the per-(epoch, batch_index) prepare RNG streams
  /// (Rng::ForSubstream). Clients whose prepare stage draws randomness
  /// (negative sampling, subgraph draws) set this once per run from their
  /// own RNG so the streams are reproducible yet run-specific.
  uint64_t prepare_stream_seed = 0;
};

/// \brief Position of the current batch within the run, handed to batch
/// callbacks and hooks.
struct BatchContext {
  int64_t epoch = 0;
  int64_t num_epochs = 1;
  /// 0-based batch index within the current epoch.
  int64_t batch_index = 0;
  /// Batches per epoch (ceil(num_events / batch_size) for chronological
  /// runs, steps_per_epoch for step runs).
  int64_t num_batches = 0;
  bool final_epoch = false;
};

/// \brief Prepare stage of a chronological batch: the sampling and
/// assembly work that needs only const graph reads plus the per-batch RNG
/// stream (negative draws, anchor subsampling, subgraph draws). It must
/// not touch encoder memory or parameters; everything it computes travels
/// to the batch callback in the returned payload.
using ChronoPrepareFn = std::function<std::any(
    const BatchContext& ctx, const graph::EventBatch& batch, Rng* rng)>;

/// \brief Compute stage of a chronological batch: consumes the prepare
/// payload and returns the loss. Returning nullopt skips the optimizer
/// step for this batch (the batch still advances encoder memory and counts
/// toward telemetry) — used by objectives that can find no anchors in a
/// batch.
using ChronoBatchFn = std::function<std::optional<tensor::Tensor>(
    const BatchContext& ctx, const graph::EventBatch& batch,
    std::any& prepared)>;

/// \brief Computes the loss of one step of a data-free (non-streaming)
/// loop, e.g. static-GNN sampled batches or a full-batch head epoch.
using StepFn =
    std::function<std::optional<tensor::Tensor>(const BatchContext& ctx)>;

/// \brief Observer invoked after each batch completes (optimizer stepped
/// and, for chronological runs, the batch committed to encoder memory).
/// CPDG's uniform memory checkpointing is implemented as this hook.
using BatchHook = std::function<void(const BatchContext& ctx)>;

/// \brief State contributed to (and restored from) training checkpoints by
/// a TrainLoop client — state the loop cannot know about, e.g. the
/// pre-trainer's RNG stream and evolution snapshots. `save` appends the
/// payload to its argument; `restore` must validate before mutating.
struct CheckpointClientSection {
  std::function<void(std::string* out)> save;
  std::function<Status(std::string_view bytes)> restore;
};

/// \brief The shared epoch/batch driver every training entry point in the
/// repo runs on: CPDG pre-training and fine-tuning, the supervised
/// TGN-family trainer, the SSL baselines, the static-GNN loops and the
/// node-classification head.
///
/// The loop owns the Adam optimizer over `params`, the
/// ZeroGrad -> Backward -> ClipGradNorm -> Step sequence, the per-epoch
/// encoder-memory reset and per-batch BeginBatch/CommitBatch lifecycle
/// (chronological runs), and telemetry (per-epoch wall-clock, batch
/// counts, mean loss, gradient norms). Call sites supply only the
/// objective as a batch callback.
///
/// \par Crash safety
/// With checkpoint_path set, the loop periodically publishes its complete
/// state through the atomic temp-file-plus-rename path, and ResumeFrom()
/// stages a previously written checkpoint: the next Run call restores all
/// state and continues from the saved batch cursor, producing results
/// bit-identical to an uninterrupted run.
class TrainLoop {
 public:
  TrainLoop(std::vector<tensor::Tensor> params,
            const TrainLoopOptions& options);

  /// Registers a hook run after every completed batch.
  void set_batch_end_hook(BatchHook hook) {
    batch_end_hook_ = std::move(hook);
  }

  /// \brief Registers client state saved into every checkpoint under
  /// `name` and restored from it on resume. Must be registered (same
  /// names) before both the saving and the resuming Run call.
  void RegisterCheckpointSection(std::string name,
                                 CheckpointClientSection section);

  /// \brief Stages the checkpoint at `path` for the next Run call, which
  /// restores every section and continues from the saved batch cursor.
  /// Fails fast on unreadable/corrupt containers; cross-checks against
  /// the run shape (mode, epochs, batches) happen inside Run and surface
  /// through TrainTelemetry::status.
  Status ResumeFrom(const std::string& path);

  /// Requests a graceful stop after the current batch; the run returns
  /// with stopped_early = true. Safe to call from batch callbacks/hooks.
  void RequestStop() { stop_requested_ = true; }

  /// \brief Chronological event-stream training over `graph`. Batch i of
  /// every epoch covers events [i*batch_size, min((i+1)*batch_size,
  /// num_events)). Each batch reads its events, runs `prepare_fn` (may be
  /// null) with the RNG stream Rng::ForSubstream(prepare_stream_seed,
  /// epoch, i), then runs `batch_fn` on the payload. When `encoder` is
  /// non-null its memory is reset at each epoch start and every compute
  /// stage is wrapped in BeginBatch / CommitBatch (the TGN within-batch
  /// protocol).
  TrainTelemetry RunChronological(dgnn::DgnnEncoder* encoder,
                                  const graph::GraphStore& graph,
                                  int64_t batch_size,
                                  const ChronoPrepareFn& prepare_fn,
                                  const ChronoBatchFn& batch_fn);

  /// \brief Step-based training: `steps_per_epoch` invocations of
  /// `step_fn` per epoch with no event stream or encoder lifecycle.
  TrainTelemetry RunSteps(int64_t steps_per_epoch, const StepFn& step_fn);

  const TrainLoopOptions& options() const { return options_; }
  const std::vector<tensor::Tensor>& params() const { return params_; }
  tensor::Adam& optimizer() { return optimizer_; }

 private:
  enum class BatchOutcome { kStepped, kNoLoss, kSkippedNonFinite, kHalt,
                            kRollback };

  /// Health-checked backward + clip + step for one produced loss;
  /// accumulates epoch telemetry on a successful step.
  BatchOutcome StepOnLoss(tensor::Tensor* loss, PartialEpoch* partial,
                          TrainTelemetry* telemetry);

  /// Finalizes one epoch's telemetry and emits the debug log line.
  void FinishEpoch(int64_t epoch_index, double loss_sum,
                   EpochTelemetry epoch, TrainTelemetry* telemetry);

  bool checkpointing_enabled() const {
    return !options_.checkpoint_path.empty() &&
           options_.checkpoint_every_batches > 0;
  }

  /// Publishes full state with the cursor after `batches_done` completed
  /// batches of `epoch`. Failures are logged and counted, not fatal.
  void SaveCheckpoint(uint32_t mode, int64_t num_batches, int64_t epoch,
                      int64_t batches_done, dgnn::DgnnEncoder* encoder,
                      TrainTelemetry* telemetry, const PartialEpoch& partial);

  /// Called after every completed batch; saves when the cadence is due.
  void MaybeCheckpoint(uint32_t mode, int64_t num_batches, int64_t epoch,
                       int64_t batches_done, dgnn::DgnnEncoder* encoder,
                       TrainTelemetry* telemetry,
                       const PartialEpoch& partial);

  /// Validates the staged checkpoint against the run shape, then restores
  /// every section (params, optimizer, memory, telemetry, clients) and
  /// outputs the batch cursor. All-or-nothing up to the per-section
  /// restore contracts. Consumes staged_resume_.
  Status ApplyStagedResume(uint32_t mode, int64_t num_batches,
                           dgnn::DgnnEncoder* encoder,
                           TrainTelemetry* telemetry, PartialEpoch* partial,
                           int64_t* next_epoch, int64_t* next_batch);

  /// kRollbackToCheckpoint: re-stages checkpoint_path and applies it.
  Status Rollback(uint32_t mode, int64_t num_batches,
                  dgnn::DgnnEncoder* encoder, TrainTelemetry* telemetry,
                  PartialEpoch* partial, int64_t* next_epoch,
                  int64_t* next_batch);

  std::vector<tensor::Tensor> params_;
  TrainLoopOptions options_;
  tensor::Adam optimizer_;
  BatchHook batch_end_hook_;
  std::vector<std::pair<std::string, CheckpointClientSection>>
      checkpoint_sections_;
  std::unique_ptr<tensor::SectionReader> staged_resume_;
  bool stop_requested_ = false;
  /// Batches executed by the current Run call (max_batches budget).
  int64_t batches_run_ = 0;
  int64_t batches_since_checkpoint_ = 0;
  int64_t rollbacks_this_run_ = 0;
};

}  // namespace cpdg::train

#endif  // CPDG_TRAIN_TRAIN_LOOP_H_
