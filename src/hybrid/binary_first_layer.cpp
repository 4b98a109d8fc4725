#include "hybrid/binary_first_layer.h"

#include <stdexcept>

namespace scbnn::hybrid {

BinaryFirstLayer::BinaryFirstLayer(const nn::QuantizedConvWeights& weights,
                                   const FirstLayerConfig& config)
    : bits_(config.bits), soft_threshold_(config.soft_threshold) {
  if (weights.bits != config.bits) {
    throw std::invalid_argument("BinaryFirstLayer: bits mismatch");
  }
  if (weights.kernel_size != kKernelSize || weights.in_channels != 1) {
    throw std::invalid_argument("BinaryFirstLayer: unsupported geometry");
  }
  levels_.reserve(weights.kernels.size());
  for (const auto& k : weights.kernels) levels_.push_back(k.levels);
}

void BinaryFirstLayer::compute_batch(const float* images, int n, float* out,
                                     Scratch& /*scratch*/) const {
  // The integer path needs no workspace beyond the stack; any scratch works.
  const std::size_t in_stride = kImageSize * kImageSize;
  const std::size_t out_stride = levels_.size() * kOutputsPerKernel;
  for (int i = 0; i < n; ++i) {
    compute_one(images + static_cast<std::size_t>(i) * in_stride,
                out + static_cast<std::size_t>(i) * out_stride);
  }
}

void BinaryFirstLayer::compute_one(const float* image, float* out) const {
  const auto full = static_cast<long>(std::uint32_t{1} << bits_);
  // Quantize the image once: levels in [0, 2^bits].
  long x[kImageSize * kImageSize];
  for (int i = 0; i < kImageSize * kImageSize; ++i) {
    x[i] = static_cast<long>(quantize_pixel(image[i], bits_));
  }
  // The threshold compares against the normalized value dot / 2^(2 bits).
  const double norm = static_cast<double>(full) * static_cast<double>(full);

  for (std::size_t k = 0; k < levels_.size(); ++k) {
    const int* w = levels_[k].data();
    float* feat = out + k * kOutputsPerKernel;
    for (int oy = 0; oy < kImageSize; ++oy) {
      for (int ox = 0; ox < kImageSize; ++ox) {
        long dot = 0;
        for (int ki = 0; ki < kKernelSize; ++ki) {
          const int iy = oy + ki - kPad;
          if (iy < 0 || iy >= kImageSize) continue;
          for (int kj = 0; kj < kKernelSize; ++kj) {
            const int ix = ox + kj - kPad;
            if (ix < 0 || ix >= kImageSize) continue;
            dot += x[iy * kImageSize + ix] *
                   static_cast<long>(w[ki * kKernelSize + kj]);
          }
        }
        const double v = static_cast<double>(dot) / norm;
        feat[oy * kImageSize + ox] =
            v > soft_threshold_ ? 1.0f : (v < -soft_threshold_ ? -1.0f : 0.0f);
      }
    }
  }
}

}  // namespace scbnn::hybrid
