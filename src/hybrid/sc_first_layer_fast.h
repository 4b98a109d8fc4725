// SIMD bit-packed fast path for the stochastic first layer.
//
// Bit-identical to StochasticFirstLayer (it is built from the same stream
// tables — hybrid::detail builders in sc_first_layer.h — and evaluates the
// same gate network in the same node order), but restructured around:
//
//  1. Product LUTs. The AND multiplier's output depends only on (input
//     level, weight level), so the input level table is ANDed against every
//     *distinct* weight level once at construction. No AND gates are
//     evaluated per frame at all.
//
//  2. Whole output rows per sweep. A strip of 28 output positions of BOTH
//     trees — the w_pos and w_neg dot products share node numbering, TFF
//     initial states and select streams — goes through the adder tree
//     together:
//       - short streams (N = 2^bits <= 64, i.e. bits <= 6) run the
//         register-resident strip kernel sc::simd::FieldConv: every stream
//         owns one 16-, 32- or 64-bit lane, a leaf is a product-table
//         lookup indexed by a row of quantized pixels (one VPERMW per half
//         strip at the paper's 4-bit point), the TFF parity scan is
//         lane-local, and the root counts are compared against integer
//         cutoffs, all without a round trip through memory;
//       - long streams (bits 7..8) are *column-batched*: the 2x28
//         positions are word-major columns of a leaf strip filled from the
//         LUTs, and the TFF carry chain runs per lane
//         (sc::simd::tff_add_columns).
//
//  3. Zero-subtree elision. The 32-leaf tree has 7 structurally-zero pad
//     leaves; nodes whose inputs are both pads are never evaluated. Node
//     numbering is unaffected, so TFF initial states and MUX select
//     streams line up exactly with the reference engine.
//
// The soft threshold becomes a pair of integer cutoffs on the count
// difference, derived at construction by evaluating the reference's own
// double-precision comparison at every possible difference.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hybrid/sc_first_layer.h"
#include "sc/simd.h"

namespace scbnn::hybrid {

class FastStochasticFirstLayer final : public FirstLayerEngine {
 public:
  using Style = ScStyle;

  FastStochasticFirstLayer(Style style,
                           const nn::QuantizedConvWeights& weights,
                           const FirstLayerConfig& config);

  using FirstLayerEngine::compute_batch;
  void compute_batch(const float* images, int n, float* out,
                     Scratch& scratch) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;

  [[nodiscard]] std::string name() const override {
    return style_ == Style::kProposed ? "sc-proposed-fast"
                                      : "sc-conventional-fast";
  }
  [[nodiscard]] int kernels() const noexcept override { return kernels_; }
  [[nodiscard]] unsigned bits() const noexcept override { return bits_; }

  /// Stream length N = 2^bits (cycles per dot product).
  [[nodiscard]] std::size_t stream_length() const noexcept { return n_; }
  /// True when the register-resident strip kernel runs this engine
  /// (N <= 64); false for the column-batched long-stream layout.
  [[nodiscard]] bool register_resident() const noexcept {
    return strip_.has_value();
  }

 private:
  static constexpr int kSlots = 32;   // adder-tree leaves (25 taps + 7 zero)
  static constexpr int kRow = kImageSize;  // strip width: one output row
  static constexpr int kStripCols = 2 * kRow;  // fused [pos | neg] strip

  // Column-batched layout only: the strip kernel needs no workspace.
  struct ColumnScratch final : Scratch {
    ColumnScratch(std::size_t leaves_words, std::size_t slots_words)
        : leaves(leaves_words), slots(slots_words) {}
    std::uint32_t levels[kImageSize * kImageSize];  // quantized pixels
    std::vector<std::uint64_t> leaves;  // leaf strip (25 blocks)
    std::vector<std::uint64_t> slots;   // tree node strip (16 blocks)
    long counts[kStripCols];            // root popcounts: pos then neg
  };

  void compute_columns(const float* image, float* out,
                       ColumnScratch& s) const;
  /// Reduce one 32-leaf column strip; leaf blocks via `src`.
  void reduce_columns(const std::uint64_t* src[kSlots], std::uint64_t* slots,
                      long* counts) const;

  Style style_;
  unsigned bits_;
  std::size_t n_;      // stream length
  std::size_t words_;  // 64-bit words per stream
  std::size_t block_words_;  // words per fused column strip block
  int kernels_;
  int cut_hi_, cut_lo_;      // integer form of the soft threshold
  sc::simd::Level level_;    // SIMD dispatch level, resolved once

  // Short streams: the whole frame runs in the strip kernel.
  std::optional<sc::simd::FieldConv> strip_;

  // Long streams. Product LUT: prod_[d * lut_stride_ + xlev * words_ + w]
  // is word w of (input stream for level xlev) & (weight stream for
  // distinct level d); per (kernel, tap) the d of each sign.
  std::size_t lut_stride_ = 0;
  std::vector<std::uint64_t> prod_;
  std::vector<std::uint32_t> tap_dense_pos_, tap_dense_neg_;
  std::vector<std::uint64_t> selects_;     // MUX select streams (node-major)
  std::vector<std::uint64_t> zero_block_;  // shared all-zero strip block
};

}  // namespace scbnn::hybrid
