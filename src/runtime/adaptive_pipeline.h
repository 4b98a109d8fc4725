// Batched adaptive-precision serving pipeline.
//
// The paper's dynamic energy-accuracy trade-off (run the stochastic first
// layer at few bits, escalate to high precision only for uncertain inputs)
// as a first-class serving construct. Each precision is a complete hybrid
// network — an SC first layer at b bits plus the binary tail retrained for
// b bits — so each rung is exactly one InferenceEngine with its tail
// attached, and the pipeline is an ordered ladder of those engines on one
// shared executor. A batch enters the cheapest engine straight into the
// caller's Predictions; only the frames whose softmax top1-top2 margin
// falls below the confidence threshold are gathered into a dense sub-batch
// and classified by the next engine. Chunking, tail plans, energy and
// cycle pricing all live in the engine; the ladder adds the gather, the
// scatter and the per-rung bookkeeping. A warm batch allocates nothing.
//
// Determinism contract: escalation decisions depend only on per-image
// arithmetic (each engine's Predictions are bit-identical at any chunking
// and thread count), so predictions, margins, and cycle totals are
// bit-identical across thread counts and match a serial rung-by-rung
// escalation of each image.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "hybrid/first_layer.h"
#include "nn/network.h"
#include "runtime/executor.h"
#include "runtime/inference_engine.h"
#include "runtime/servable.h"

namespace scbnn::runtime {

/// One precision rung: a frozen first-layer engine and the binary tail
/// retrained for that precision. Rungs are ordered cheapest first and the
/// engines must run at strictly increasing bits.
struct AdaptiveRung {
  std::unique_ptr<hybrid::FirstLayerEngine> engine;
  nn::Network tail;
};

/// Per-rung serving statistics for one classify() batch, read off the
/// rung engine's last_stats().
struct RungStats {
  unsigned bits = 0;
  int images_in = 0;      ///< images entering this rung
  int images_exited = 0;  ///< images accepted (confident or last rung)
  double latency_ms = 0.0;
  double sc_cycles = 0.0;  ///< SC cycles spent (0 for non-SC backends)
  double energy_j = 0.0;   ///< first-layer energy from the 65nm model
};

/// Whole-pipeline statistics for one classify() batch: the shared serving
/// totals (sc_cycles, energy_j, first_layer_ms, tail_ms summed over rungs
/// in rung order) plus the per-rung breakdown.
struct PipelineStats : ServeStats {
  std::vector<RungStats> rungs;
  /// Escalation ceiling this batch ran under (== the ladder top when
  /// uncapped).
  int rung_cap = 0;

  [[nodiscard]] double mean_cycles_per_image() const noexcept {
    return images > 0 ? sc_cycles / images : 0.0;
  }
};

/// Per-image result of an adaptive classification.
struct AdaptiveOutcome {
  int predicted = -1;
  int rung = 0;            ///< index of the accepting rung
  unsigned bits_used = 0;  ///< precision of the accepting rung
  double margin = 0.0;     ///< softmax margin at acceptance
  double cycles = 0.0;     ///< total SC cycles spent (all rungs tried)
};

class AdaptivePipeline : public Servable {
 public:
  /// `rungs` must be non-empty, engines non-null and at strictly
  /// increasing bits; `confidence_margin` in [0, 1] is the minimum softmax
  /// top1-top2 gap to accept a rung's verdict without escalating. Every
  /// rung becomes an InferenceEngine on the executor `config` resolves to.
  /// Throws std::invalid_argument on any violation (config included).
  AdaptivePipeline(std::vector<AdaptiveRung> rungs, double confidence_margin,
                   RuntimeConfig config = {});

  /// Serve one [N,1,28,28] batch through the ladder, returning the full
  /// per-image escalation record. Updates last_stats(). Named distinctly
  /// from classify() so the same expression never silently changes return
  /// type between AdaptivePipeline and Servable& call sites.
  [[nodiscard]] std::vector<AdaptiveOutcome> classify_outcomes(
      const nn::Tensor& images);

  /// classify_outcomes() reduced to the predicted class indices.
  [[nodiscard]] std::vector<int> predict(const nn::Tensor& images);

  // ------------------------------------------------------------- Servable
  /// Ladder escalation over `n` contiguous frames; Predictions carry the
  /// accepting rung, its precision, and the margin. Updates last_stats().
  ServeStats classify(const float* images, int n, Prediction* out) override;
  using Servable::classify;
  /// "adaptive(<bits>/<bits>/...-bit <backend>)".
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned threads() const noexcept override {
    return executor()->size();
  }
  /// Escalation cap for precision-degrading load shedding: subsequent
  /// batches stop escalating past rung `cap` (clamped to the ladder; the
  /// last allowed rung accepts every survivor). The cap is sampled once
  /// per classify() call, so a batch is internally consistent, and with
  /// the cap at the ladder top predictions are bit-identical to the
  /// uncapped pipeline. Safe to call from a supervisor thread while the
  /// batch former classifies.
  void set_max_rung(int cap) noexcept override {
    max_rung_.store(cap, std::memory_order_relaxed);
  }
  /// Current escalation ceiling, clamped to [0, rung_count() - 1].
  [[nodiscard]] int max_rung() const noexcept override;
  /// The executor every rung computes on — pass it to further models to
  /// share one pool.
  [[nodiscard]] const std::shared_ptr<Executor>& executor() const noexcept {
    return engines_.front()->executor();
  }
  /// Live counters of that executor (fleet-wide totals when shared).
  [[nodiscard]] ExecutorStats executor_stats() const override {
    return executor()->stats();
  }

  [[nodiscard]] const PipelineStats& last_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t rung_count() const noexcept {
    return engines_.size();
  }
  /// The engine serving rung `i` (its tail attached).
  [[nodiscard]] const InferenceEngine& rung(std::size_t i) const {
    return *engines_.at(i);
  }
  [[nodiscard]] double confidence_margin() const noexcept {
    return confidence_margin_;
  }
  [[nodiscard]] const RuntimeConfig& config() const noexcept {
    return config_;
  }

  /// SC cycles one image costs at rung `i`, as the rung's engine prices it
  /// (kernels taken from the engine, not assumed to be 32; 0 for backends
  /// without an SC notion).
  [[nodiscard]] double rung_cycles_per_image(std::size_t i) const {
    return rung(i).sc_cycles_per_frame();
  }

 private:
  std::vector<std::unique_ptr<InferenceEngine>> engines_;
  std::atomic<int> max_rung_{kUncappedRung};
  double confidence_margin_;
  RuntimeConfig config_;
  // Grow-only escalation buffers: survivors' frame indices (this rung's
  // and the next's), their gathered pixels, and their Predictions.
  std::vector<int> active_, next_;
  std::vector<float> survivors_;
  std::vector<Prediction> survivor_out_;
  PipelineStats stats_;
};

}  // namespace scbnn::runtime
