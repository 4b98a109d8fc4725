// Fixed-point quantization of first-layer weights and inputs.
//
// The paper quantizes the first convolution layer to n-bit precision and
// applies *weight scaling* (Kim et al. [16]): each kernel is normalized to
// use the full [-1, 1] dynamic range before quantization. Because the
// activation is sign(), a positive per-kernel scale cannot change any
// output — scaling is exact, not approximate, in this design (tested).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace scbnn::nn {

/// One quantized convolution kernel: signed integer levels in
/// [-2^bits, 2^bits] whose real value is level / 2^bits * scale.
struct QuantizedKernel {
  std::vector<int> levels;  ///< length inC*K*K, signed
  float scale = 1.0f;       ///< per-kernel max|w| before normalization
};

struct QuantizedConvWeights {
  std::vector<QuantizedKernel> kernels;  ///< one per output channel
  unsigned bits = 8;
  int kernel_size = 5;
  int in_channels = 1;
};

/// Quantize conv weights [outC, inC, K, K] to n bits with per-kernel weight
/// scaling. Levels use a unipolar magnitude grid of 2^bits steps so they map
/// 1:1 onto stochastic streams of length 2^bits.
[[nodiscard]] QuantizedConvWeights quantize_conv_weights(const Tensor& w,
                                                         unsigned bits);

/// Dequantize back to float [outC, inC, K, K] (levels * scale / 2^bits) —
/// used to run the quantized-binary baseline inside the float substrate.
[[nodiscard]] Tensor dequantize_conv_weights(const QuantizedConvWeights& q);

}  // namespace scbnn::nn
