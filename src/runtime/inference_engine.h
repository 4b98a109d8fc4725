// Batched inference runtime: one hybrid network on one executor.
//
// Wraps a FirstLayerEngine with an Executor: image batches are split into
// fixed-size chunks, each worker evaluates its chunks against a private
// scratch buffer, and results land in pre-assigned slices of the output
// tensor — so features are bit-identical to the serial path at every thread
// count. Each batch reports latency, throughput, the first-layer/tail stage
// split, SC cycles and a first-layer energy estimate from the calibrated
// 65nm hardware model (per-frame costs resolved once, at construction).
//
// With a tail network attached (set_tail), the engine is a full Servable:
// classify() runs the first layer and the vectorized tail plan, both
// executor-parallel and allocation-free when warm (a tail the plan cannot
// run falls back to Network::forward), and reports softmax-margin
// Predictions. It is the fixed-precision backend, and each
// rung of an AdaptivePipeline is one of these engines.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hybrid/first_layer.h"
#include "nn/inference_plan.h"
#include "nn/network.h"
#include "runtime/executor.h"
#include "runtime/servable.h"

namespace scbnn::runtime {

struct RuntimeConfig {
  unsigned threads = 0;  ///< worker threads; 0 = hardware concurrency
  int chunk_images = 8;  ///< images per work item handed to a worker
  /// Shared executor to compute on. When set, the engine/pipeline joins
  /// this pool instead of spawning a private one (`threads` is then
  /// ignored — the pool is already sized), so any number of models can
  /// serve from one fixed set of workers without oversubscription. When
  /// null (the default), a private WorkStealingExecutor of `threads`
  /// workers is built. Any Executor implementation is accepted.
  std::shared_ptr<Executor> executor;

  /// Reject nonsense before any pool or scratch is built: chunk_images must
  /// be >= 1 and threads must not exceed Executor::kMaxThreads (0 stays
  /// the documented "auto" setting). Throws std::invalid_argument naming
  /// the offending field; returns *this so constructors can validate in
  /// their initializer lists.
  const RuntimeConfig& validate() const;

  /// The executor this config resolves to: the shared executor if set,
  /// otherwise a fresh private WorkStealingExecutor of `threads` workers.
  [[nodiscard]] std::shared_ptr<Executor> resolve_executor() const;
};

/// Per-batch serving statistics, refreshed by every features()/predict().
/// Alias of the shared ServeStats — the engine's stats are the serving
/// layer's stats, one struct, one set of field names.
using BatchStats = ServeStats;

class InferenceEngine : public Servable {
 public:
  explicit InferenceEngine(std::unique_ptr<hybrid::FirstLayerEngine> engine,
                           RuntimeConfig config = {});

  /// Resolve `backend` through the BackendRegistry.
  InferenceEngine(const std::string& backend,
                  const nn::QuantizedConvWeights& weights,
                  const hybrid::FirstLayerConfig& first_layer_config,
                  RuntimeConfig config = {});

  /// [N,1,28,28] -> [N, kernels, 28, 28] ternary features, chunked across
  /// the pool. Updates last_stats().
  [[nodiscard]] nn::Tensor features(const nn::Tensor& images);

  /// Full pipeline: threaded first layer, then the binary tail's argmax.
  /// last_stats() covers the first-layer stage only (the near-sensor part).
  /// This is the REFERENCE path — the external tail runs through
  /// Network::forward on the calling thread; benches referee the fast
  /// attached-tail paths against it.
  [[nodiscard]] std::vector<int> predict(const nn::Tensor& images,
                                         nn::Network& tail);

  /// Same pipeline on the attached tail via the vectorized InferencePlan
  /// (executor-parallel, allocation-free tail): bit-identical labels to
  /// predict(images, tail()) — plan logits match Network::forward exactly
  /// and the argmax rule is Network::predict's. Requires set_tail();
  /// throws std::logic_error otherwise. Updates last_stats() with the
  /// first-layer/tail stage split.
  [[nodiscard]] std::vector<int> predict(const nn::Tensor& images);

  /// Attach the binary tail that completes the network, making classify()
  /// available. The engine owns the tail from here on. Builds the
  /// vectorized InferencePlan when every layer is plan-compatible
  /// (Conv2D/Dense/MaxPool2/ReLU/Dropout); otherwise classify() falls back
  /// to Network::forward on the calling thread.
  void set_tail(nn::Network tail);
  [[nodiscard]] bool has_tail() const noexcept { return has_tail_; }
  /// True when classify()/predict() run the vectorized zero-allocation
  /// tail plan instead of the Network::forward fallback.
  [[nodiscard]] bool has_fast_tail() const noexcept {
    return plan_ != nullptr;
  }
  /// Mutable access to the attached tail (retraining happens in place).
  /// Throws std::logic_error when no tail is attached. Marks the plan's
  /// packed parameters stale — the next classify()/predict() re-packs them
  /// from the (possibly retrained) tail before running.
  [[nodiscard]] nn::Network& tail();

  // ------------------------------------------------------------- Servable
  /// Threaded first layer + attached tail + softmax margins. Requires
  /// set_tail() first (throws std::logic_error otherwise). With a fast
  /// tail both stages run executor-parallel with zero heap allocation on
  /// the warm path (grow-only feature/logit buffers, per-worker arenas);
  /// margins are bit-identical to the Network::forward + softmax_margins
  /// reference at every thread count and dispatch level. Updates
  /// last_stats() with whole-call timing plus the first_layer_ms/tail_ms
  /// stage split.
  ServeStats classify(const float* images, int n, Prediction* out) override;
  using Servable::classify;
  /// The first-layer backend's registry name (e.g. "sc-proposed").
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned threads() const noexcept override {
    return pool_->size();
  }
  /// Live counters of the executor this engine computes on (shared
  /// executors report fleet-wide totals).
  [[nodiscard]] ExecutorStats executor_stats() const override {
    return pool_->stats();
  }

  [[nodiscard]] const BatchStats& last_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const hybrid::FirstLayerEngine& engine() const noexcept {
    return *engine_;
  }
  /// SC cycles one frame costs on this backend (0 without an SC notion,
  /// e.g. "binary-quantized"); last_stats().sc_cycles is n times this.
  [[nodiscard]] double sc_cycles_per_frame() const noexcept {
    return sc_cycles_per_frame_;
  }
  [[nodiscard]] Executor& pool() noexcept { return *pool_; }
  /// The executor this engine computes on — pass it to further engines to
  /// share one pool across models.
  [[nodiscard]] const std::shared_ptr<Executor>& executor() const noexcept {
    return pool_;
  }
  [[nodiscard]] const RuntimeConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Chunk `n` contiguous frames across the pool into `out` (caller-sized
  /// [n, kernels, 28, 28] storage). The shared core of features() and
  /// classify().
  void compute_features(const float* images, int n, float* out);

  /// Reset stats_ for an `n`-image call that took `elapsed_ms`, including
  /// the hardware-model energy and SC-cycle estimates.
  void refresh_stats(int n, double elapsed_ms);

  /// Run the tail plan over `n` feature images into `logits` ([n, classes]
  /// row-major), chunked across the executor with the same deterministic
  /// chunk homes as compute_features. Re-packs stale plan parameters
  /// first. No heap allocation.
  void run_tail_plan(const float* feats, int n, float* logits);

  std::unique_ptr<hybrid::FirstLayerEngine> engine_;
  /// Hardware-model per-frame costs, resolved once at construction (the
  /// engine's backend/bits/kernels are frozen) so refresh_stats() does no
  /// string lookups — and no allocations — per batch.
  double energy_per_frame_j_ = 0.0;
  double sc_cycles_per_frame_ = 0.0;
  RuntimeConfig config_;
  std::shared_ptr<Executor> pool_;  ///< private or shared (config.executor)
  std::vector<std::unique_ptr<hybrid::FirstLayerEngine::Scratch>> scratch_;
  nn::Network tail_;
  bool has_tail_ = false;
  std::unique_ptr<nn::InferencePlan> plan_;  ///< null => forward() fallback
  std::vector<nn::InferencePlan::Arena> arenas_;  ///< one per pool worker
  bool plan_params_dirty_ = false;  ///< tail() handed out mutable access
  /// Grow-only warm-path buffers for classify()/predict(): features and
  /// logits live here so a steady-state batch allocates nothing.
  std::vector<float> feats_, logits_;
  BatchStats stats_;
};

}  // namespace scbnn::runtime
