#include "hybrid/sc_first_layer_fast.h"

#include <stdexcept>

namespace scbnn::hybrid {

namespace {

/// The reference engine's output rule, v = diff * 32/N compared in double
/// precision against +-threshold, as integer cutoffs on diff in [-N, N]:
/// +1 iff diff >= hi, else -1 iff diff <= lo. Rounded multiplication by a
/// positive constant is monotone, so each comparison holds on a contiguous
/// run of diffs; evaluating the exact expression at every diff finds its
/// ends (none for a NaN threshold).
void threshold_cutoffs(long n, double threshold, int& hi, int& lo) {
  const double count_to_value = 32.0 / static_cast<double>(n);
  hi = static_cast<int>(n + 1);
  lo = static_cast<int>(-n - 1);
  for (long diff = -n; diff <= n; ++diff) {
    const double v = static_cast<double>(diff) * count_to_value;
    if (v > threshold && hi > n) hi = static_cast<int>(diff);
    if (v < -threshold) lo = static_cast<int>(diff);
  }
}

}  // namespace

FastStochasticFirstLayer::FastStochasticFirstLayer(
    Style style, const nn::QuantizedConvWeights& weights,
    const FirstLayerConfig& config)
    : style_(style),
      bits_(config.bits),
      n_(std::size_t{1} << config.bits),
      words_((n_ + 63) / 64),
      block_words_(2 * words_ * kRow),
      kernels_(static_cast<int>(weights.kernels.size())),
      level_(sc::simd::active_level()) {
  if (weights.bits != config.bits) {
    throw std::invalid_argument("FastStochasticFirstLayer: bits mismatch");
  }
  if (weights.kernel_size != kKernelSize || weights.in_channels != 1) {
    throw std::invalid_argument(
        "FastStochasticFirstLayer: unsupported geometry");
  }
  threshold_cutoffs(static_cast<long>(n_), config.soft_threshold, cut_hi_,
                    cut_lo_);

  // Same stream tables as the reference engine — bit-identity starts here.
  const std::vector<std::uint64_t> input_table =
      detail::sc_input_level_table(style_, bits_, config.seed, n_, words_);
  const std::vector<std::uint64_t> wtable =
      detail::sc_weight_level_table(style_, bits_, config.seed, n_, words_);

  // Dense indices for the distinct weight levels actually used (both
  // signs), then the product LUT: every (input level, distinct weight
  // level) AND is taken exactly once, here, instead of per frame.
  const auto level_count = n_ + 1;
  std::vector<std::int32_t> dense_of_level(level_count, -1);
  std::vector<std::uint32_t> dense_levels;
  const std::size_t ntaps = static_cast<std::size_t>(kernels_) * kFanIn;
  std::vector<std::uint32_t> tap_pos(ntaps), tap_neg(ntaps);
  for (int k = 0; k < kernels_; ++k) {
    const auto& lv = weights.kernels[static_cast<std::size_t>(k)].levels;
    for (int t = 0; t < kFanIn; ++t) {
      const int w = lv[static_cast<std::size_t>(t)];
      const std::uint32_t pos = w > 0 ? static_cast<std::uint32_t>(w) : 0;
      const std::uint32_t neg = w < 0 ? static_cast<std::uint32_t>(-w) : 0;
      for (const std::uint32_t level : {pos, neg}) {
        if (dense_of_level[level] < 0) {
          dense_of_level[level] =
              static_cast<std::int32_t>(dense_levels.size());
          dense_levels.push_back(level);
        }
      }
      const std::size_t kt = static_cast<std::size_t>(k) * kFanIn + t;
      tap_pos[kt] = static_cast<std::uint32_t>(dense_of_level[pos]);
      tap_neg[kt] = static_cast<std::uint32_t>(dense_of_level[neg]);
    }
  }
  const std::size_t lut_stride = level_count * words_;
  std::vector<std::uint64_t> prod(dense_levels.size() * lut_stride, 0u);
  for (std::size_t d = 0; d < dense_levels.size(); ++d) {
    const std::uint64_t* wrow =
        wtable.data() + static_cast<std::size_t>(dense_levels[d]) * words_;
    std::uint64_t* row = prod.data() + d * lut_stride;
    for (std::size_t xlev = 0; xlev < level_count; ++xlev) {
      const std::uint64_t* xrow = input_table.data() + xlev * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        row[xlev * words_ + w] = xrow[w] & wrow[w];
      }
    }
  }
  std::vector<std::uint64_t> selects;
  if (style_ == Style::kConventional) {
    selects =
        detail::sc_mux_select_table(bits_, config.seed, n_, words_, kSlots - 1);
  }

  if (n_ <= 64) {
    // One word per stream: the LUT rows and selects are exactly what the
    // strip kernel consumes.
    sc::simd::FieldConvSpec spec;
    spec.bits = bits_;
    spec.mux = style_ == Style::kConventional;
    spec.kernels = kernels_;
    spec.products = std::move(prod);
    spec.tap_pos = std::move(tap_pos);
    spec.tap_neg = std::move(tap_neg);
    spec.selects = std::move(selects);
    spec.cut_hi = cut_hi_;
    spec.cut_lo = cut_lo_;
    strip_.emplace(std::move(spec), level_);
    return;
  }
  lut_stride_ = lut_stride;
  prod_ = std::move(prod);
  tap_dense_pos_ = std::move(tap_pos);
  tap_dense_neg_ = std::move(tap_neg);
  selects_ = std::move(selects);
  zero_block_.assign(block_words_, 0u);
}

std::unique_ptr<FirstLayerEngine::Scratch>
FastStochasticFirstLayer::make_scratch() const {
  if (strip_) return FirstLayerEngine::make_scratch();
  return std::make_unique<ColumnScratch>(
      static_cast<std::size_t>(kFanIn) * block_words_, 16 * block_words_);
}

void FastStochasticFirstLayer::compute_batch(const float* images, int n,
                                             float* out,
                                             Scratch& scratch) const {
  const std::size_t in_stride = kImageSize * kImageSize;
  const std::size_t out_stride =
      static_cast<std::size_t>(kernels_) * kOutputsPerKernel;
  if (strip_) {
    std::uint8_t levels[kImageSize * kImageSize];
    for (int i = 0; i < n; ++i) {
      const float* image = images + static_cast<std::size_t>(i) * in_stride;
      for (std::size_t p = 0; p < in_stride; ++p) {
        levels[p] = static_cast<std::uint8_t>(quantize_pixel(image[p], bits_));
      }
      strip_->run(levels, out + static_cast<std::size_t>(i) * out_stride);
    }
    return;
  }
  auto& s = dynamic_cast<ColumnScratch&>(scratch);
  for (int i = 0; i < n; ++i) {
    compute_columns(images + static_cast<std::size_t>(i) * in_stride,
                    out + static_cast<std::size_t>(i) * out_stride, s);
  }
}

void FastStochasticFirstLayer::reduce_columns(
    const std::uint64_t* src[kSlots], std::uint64_t* slots,
    long* counts) const {
  const std::uint64_t* zeros = zero_block_.data();
  std::size_t count = kSlots;
  std::size_t node = 0;
  while (count > 2) {
    for (std::size_t i = 0; i + 1 < count; i += 2, ++node) {
      const std::uint64_t* a = src[i];
      const std::uint64_t* b = src[i + 1];
      if (a == zeros && b == zeros) {
        // Zero in, zero out, for TFF and MUX alike; the node still exists
        // (numbering drives TFF initial states and select streams), its
        // output just never needs materializing.
        src[i / 2] = zeros;
        continue;
      }
      std::uint64_t* z = slots + (i / 2) * block_words_;
      if (style_ == Style::kProposed) {
        sc::simd::tff_add_columns(a, b, z, words_, kStripCols,
                                  (node % 2) != 0, level_);
      } else {
        sc::simd::mux_select_columns(selects_.data() + node * words_, a, b,
                                     z, words_, kStripCols, level_);
      }
      src[i / 2] = z;
    }
    count /= 2;
  }
  // Root (node 30), fused with the output counters.
  if (style_ == Style::kProposed) {
    sc::simd::tff_add_popcount_columns(src[0], src[1], words_, kStripCols,
                                       (node % 2) != 0, counts, level_);
  } else {
    sc::simd::mux_select_popcount_columns(selects_.data() + node * words_,
                                          src[0], src[1], words_, kStripCols,
                                          counts, level_);
  }
}

void FastStochasticFirstLayer::compute_columns(const float* image, float* out,
                                               ColumnScratch& s) const {
  for (int i = 0; i < kImageSize * kImageSize; ++i) {
    s.levels[i] = quantize_pixel(image[i], bits_);
  }
  const std::uint64_t* zeros = zero_block_.data();
  const std::uint64_t* src[kSlots];

  // Leaf gathering: taps become freshly-filled column strips; the 7 pad
  // leaves and out-of-image rows point at the shared zero block.
  const auto gather = [&](const std::uint32_t* dpos, const std::uint32_t* dneg,
                          int oy) {
    for (int t = 0; t < kFanIn; ++t) {
      const int iy = oy + t / kKernelSize - kPad;
      if (iy < 0 || iy >= kImageSize) {
        src[t] = zeros;
        continue;
      }
      const int dx = t % kKernelSize - kPad;
      const std::uint32_t* lev = s.levels + iy * kImageSize;
      const std::uint64_t* lut_pos = prod_.data() + dpos[t] * lut_stride_;
      const std::uint64_t* lut_neg = prod_.data() + dneg[t] * lut_stride_;
      std::uint64_t* block =
          s.leaves.data() + static_cast<std::size_t>(t) * block_words_;
      for (int ox = 0; ox < kRow; ++ox) {
        const int ix = ox + dx;
        if (ix >= 0 && ix < kImageSize) {
          const std::uint64_t* sp = lut_pos + lev[ix] * words_;
          const std::uint64_t* sn = lut_neg + lev[ix] * words_;
          for (std::size_t w = 0; w < words_; ++w) {
            block[w * kStripCols + ox] = sp[w];
            block[w * kStripCols + kRow + ox] = sn[w];
          }
        } else {
          for (std::size_t w = 0; w < words_; ++w) {
            block[w * kStripCols + ox] = 0;
            block[w * kStripCols + kRow + ox] = 0;
          }
        }
      }
      src[t] = block;
    }
    for (int t = kFanIn; t < kSlots; ++t) src[t] = zeros;
  };

  for (int k = 0; k < kernels_; ++k) {
    const std::size_t koff = static_cast<std::size_t>(k) * kFanIn;
    float* feat = out + static_cast<std::size_t>(k) * kOutputsPerKernel;
    for (int oy = 0; oy < kImageSize; ++oy) {
      gather(tap_dense_pos_.data() + koff, tap_dense_neg_.data() + koff, oy);
      reduce_columns(src, s.slots.data(), s.counts);
      for (int ox = 0; ox < kRow; ++ox) {
        const long diff = s.counts[ox] - s.counts[kRow + ox];
        feat[oy * kImageSize + ox] =
            diff >= cut_hi_ ? 1.0f : (diff <= cut_lo_ ? -1.0f : 0.0f);
      }
    }
  }
}

}  // namespace scbnn::hybrid
