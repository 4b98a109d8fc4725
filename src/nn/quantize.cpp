#include "nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scbnn::nn {

QuantizedConvWeights quantize_conv_weights(const Tensor& w, unsigned bits) {
  if (w.rank() != 4) {
    throw std::invalid_argument("quantize_conv_weights: expected 4-D weights");
  }
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("quantize_conv_weights: bits must be in [2,16]");
  }
  const int out_c = w.dim(0), in_c = w.dim(1), k = w.dim(2);
  const int taps = in_c * k * k;
  const auto full = static_cast<float>(std::uint32_t{1} << bits);

  QuantizedConvWeights q;
  q.bits = bits;
  q.kernel_size = k;
  q.in_channels = in_c;
  q.kernels.reserve(static_cast<std::size_t>(out_c));

  for (int oc = 0; oc < out_c; ++oc) {
    const float* kw = w.data() + static_cast<std::size_t>(oc) * taps;
    float maxabs = 0.0f;
    for (int i = 0; i < taps; ++i) maxabs = std::max(maxabs, std::abs(kw[i]));
    QuantizedKernel qk;
    qk.scale = maxabs > 0.0f ? maxabs : 1.0f;
    qk.levels.resize(static_cast<std::size_t>(taps));
    for (int i = 0; i < taps; ++i) {
      const float normalized = kw[i] / qk.scale;  // in [-1, 1]
      const long level = std::lround(normalized * full);
      qk.levels[static_cast<std::size_t>(i)] = static_cast<int>(
          std::clamp<long>(level, -static_cast<long>(full),
                           static_cast<long>(full)));
    }
    q.kernels.push_back(std::move(qk));
  }
  return q;
}

Tensor dequantize_conv_weights(const QuantizedConvWeights& q) {
  const int out_c = static_cast<int>(q.kernels.size());
  const int k = q.kernel_size;
  const int in_c = q.in_channels;
  const int taps = in_c * k * k;
  const auto full = static_cast<float>(std::uint32_t{1} << q.bits);
  Tensor w({out_c, in_c, k, k});
  for (int oc = 0; oc < out_c; ++oc) {
    const auto& qk = q.kernels[static_cast<std::size_t>(oc)];
    for (int i = 0; i < taps; ++i) {
      w.data()[static_cast<std::size_t>(oc) * taps + i] =
          static_cast<float>(qk.levels[static_cast<std::size_t>(i)]) / full *
          qk.scale;
    }
  }
  return w;
}

}  // namespace scbnn::nn
