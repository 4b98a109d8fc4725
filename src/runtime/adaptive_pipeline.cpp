#include "runtime/adaptive_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace scbnn::runtime {

namespace {

void validate_rungs(const std::vector<AdaptiveRung>& rungs) {
  if (rungs.empty()) {
    throw std::invalid_argument("AdaptivePipeline: no rungs");
  }
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rungs[i].engine) {
      throw std::invalid_argument("AdaptivePipeline: null engine in rung " +
                                  std::to_string(i));
    }
    if (i > 0 && rungs[i].engine->bits() <= rungs[i - 1].engine->bits()) {
      throw std::invalid_argument(
          "AdaptivePipeline: rungs must have strictly increasing bits");
    }
  }
}

}  // namespace

AdaptivePipeline::AdaptivePipeline(std::vector<AdaptiveRung> rungs,
                                   double confidence_margin,
                                   RuntimeConfig config)
    : confidence_margin_(confidence_margin), config_(config.validate()) {
  validate_rungs(rungs);
  if (confidence_margin < 0.0 || confidence_margin > 1.0) {
    throw std::invalid_argument("AdaptivePipeline: margin must be in [0,1]");
  }
  RuntimeConfig engine_config = config_;
  engine_config.executor = config_.resolve_executor();
  engines_.reserve(rungs.size());
  stats_.rungs.resize(rungs.size());
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    stats_.rungs[r].bits = rungs[r].engine->bits();
    engines_.push_back(std::make_unique<InferenceEngine>(
        std::move(rungs[r].engine), engine_config));
    engines_.back()->set_tail(std::move(rungs[r].tail));
  }
}

int AdaptivePipeline::max_rung() const noexcept {
  const int top = static_cast<int>(engines_.size()) - 1;
  return std::clamp(max_rung_.load(std::memory_order_relaxed), 0, top);
}

ServeStats AdaptivePipeline::classify(const float* images, int n,
                                      Prediction* out) {
  constexpr std::size_t kPixels =
      static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;
  const auto batch_start = ServeClock::now();

  static_cast<ServeStats&>(stats_) = ServeStats{};
  for (RungStats& rs : stats_.rungs) rs = RungStats{rs.bits};
  // Sampled once per batch: every frame of this batch climbs the same
  // (possibly supervisor-shortened) ladder, and the last allowed rung
  // accepts all of its survivors.
  const int last_rung = max_rung();
  stats_.rung_cap = last_rung;
  active_.reserve(static_cast<std::size_t>(n));
  next_.reserve(static_cast<std::size_t>(n));

  int m = n;  // frames entering rung r
  for (int r = 0; r <= last_rung && m > 0; ++r) {
    InferenceEngine& engine = *engines_[static_cast<std::size_t>(r)];
    // Rung 0 classifies the whole batch straight into `out`; later rungs
    // gather the survivors into a dense sub-batch and scatter back.
    const float* batch = images;
    Prediction* preds = out;
    if (r > 0) {
      survivors_.resize(static_cast<std::size_t>(m) * kPixels);
      for (int j = 0; j < m; ++j) {
        const float* src =
            images +
            static_cast<std::size_t>(active_[static_cast<std::size_t>(j)]) *
                kPixels;
        std::copy(src, src + kPixels,
                  survivors_.data() + static_cast<std::size_t>(j) * kPixels);
      }
      survivor_out_.resize(static_cast<std::size_t>(m));
      batch = survivors_.data();
      preds = survivor_out_.data();
    }
    {
      obs::SpanScope rung_span(obs::SpanName::kPipelineRung,
                               obs::ambient_trace_id(),
                               static_cast<std::uint64_t>(r),
                               static_cast<std::uint64_t>(m),
                               engine.engine().bits());
      engine.classify(batch, m, preds);
    }

    next_.clear();
    for (int j = 0; j < m; ++j) {
      const int idx = r == 0 ? j : active_[static_cast<std::size_t>(j)];
      Prediction& p = out[idx];
      if (r > 0) p = preds[j];
      p.rung = r;
      p.rung_cap = last_rung;
      if (p.margin < confidence_margin_ && r != last_rung) {
        next_.push_back(idx);
      }
    }

    const ServeStats& es = engine.last_stats();
    RungStats& rs = stats_.rungs[static_cast<std::size_t>(r)];
    rs.images_in = m;
    rs.images_exited = m - static_cast<int>(next_.size());
    rs.latency_ms = es.latency_ms;
    rs.sc_cycles = es.sc_cycles;
    rs.energy_j = es.energy_j;
    stats_.sc_cycles += es.sc_cycles;
    stats_.energy_j += es.energy_j;
    stats_.first_layer_ms += es.first_layer_ms;
    stats_.tail_ms += es.tail_ms;
    active_.swap(next_);
    m = static_cast<int>(active_.size());
  }

  stats_.set_timing(n, threads(), ms_between(batch_start, ServeClock::now()));
  return stats_;
}

std::vector<AdaptiveOutcome> AdaptivePipeline::classify_outcomes(
    const nn::Tensor& images) {
  const std::vector<Prediction> preds = classify(images);
  // A frame accepted at rung r paid every rung up to r: prefix sums, added
  // in rung order like the per-rung totals.
  std::vector<double> cycles_through(engines_.size());
  double cycles = 0.0;
  for (std::size_t r = 0; r < engines_.size(); ++r) {
    cycles += rung_cycles_per_image(r);
    cycles_through[r] = cycles;
  }
  std::vector<AdaptiveOutcome> outcomes(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const Prediction& p = preds[i];
    outcomes[i] = {p.label, p.rung, p.bits_used, p.margin,
                   cycles_through[static_cast<std::size_t>(p.rung)]};
  }
  return outcomes;
}

std::vector<int> AdaptivePipeline::predict(const nn::Tensor& images) {
  const std::vector<Prediction> preds = classify(images);
  std::vector<int> labels(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) labels[i] = preds[i].label;
  return labels;
}

std::string AdaptivePipeline::name() const {
  std::string bits;
  for (const auto& engine : engines_) {
    if (!bits.empty()) bits += "/";
    bits += std::to_string(engine->engine().bits());
  }
  return "adaptive(" + bits + "-bit " + engines_.front()->name() + ")";
}

}  // namespace scbnn::runtime
