#include "nn/quantize.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv2d.h"
#include "nn/init.h"

namespace scbnn::nn {
namespace {

Tensor sample_weights(int out_c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w({out_c, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  return w;
}

TEST(Quantize, LevelsWithinRange) {
  const Tensor w = sample_weights(4, 1);
  const auto q = quantize_conv_weights(w, 8);
  EXPECT_EQ(q.kernels.size(), 4u);
  for (const auto& k : q.kernels) {
    EXPECT_EQ(k.levels.size(), 25u);
    for (int lv : k.levels) {
      EXPECT_GE(lv, -256);
      EXPECT_LE(lv, 256);
    }
  }
}

TEST(Quantize, PerKernelScaleIsMaxAbs) {
  Tensor w({1, 1, 2, 2});
  w[0] = 0.1f; w[1] = -0.8f; w[2] = 0.3f; w[3] = 0.0f;
  const auto q = quantize_conv_weights(w, 8);
  EXPECT_NEAR(q.kernels[0].scale, 0.8f, 1e-6f);
  // The max-magnitude weight maps to the full level.
  EXPECT_EQ(q.kernels[0].levels[1], -256);
}

TEST(Quantize, WeightScalingUsesFullDynamicRange) {
  // Tiny weights still quantize to meaningful levels thanks to per-kernel
  // scaling (Kim et al. [16]) — without it they would all collapse to 0.
  Tensor w({1, 1, 2, 2});
  w[0] = 1e-3f; w[1] = -5e-4f; w[2] = 2.5e-4f; w[3] = 0.0f;
  const auto q = quantize_conv_weights(w, 4);
  EXPECT_EQ(q.kernels[0].levels[0], 16);   // full positive level
  EXPECT_EQ(q.kernels[0].levels[1], -8);
  EXPECT_EQ(q.kernels[0].levels[2], 4);
}

TEST(Quantize, RoundTripErrorBounded) {
  const Tensor w = sample_weights(8, 2);
  for (unsigned bits : {4u, 8u}) {
    const auto q = quantize_conv_weights(w, bits);
    const Tensor back = dequantize_conv_weights(q);
    ASSERT_EQ(back.shape(), w.shape());
    const double full = static_cast<double>(1u << bits);
    for (int oc = 0; oc < w.dim(0); ++oc) {
      const float scale = q.kernels[static_cast<std::size_t>(oc)].scale;
      for (int i = 0; i < 25; ++i) {
        const std::size_t idx = static_cast<std::size_t>(oc) * 25 + i;
        // Quantization step is scale / 2^bits; round-off <= half a step.
        EXPECT_NEAR(back[idx], w[idx], 0.5 * scale / full + 1e-6)
            << "bits=" << bits;
      }
    }
  }
}

TEST(Quantize, MoreBitsMeansLessError) {
  const Tensor w = sample_weights(8, 3);
  auto total_err = [&w](unsigned bits) {
    const Tensor back = dequantize_conv_weights(quantize_conv_weights(w, bits));
    double e = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      e += std::abs(static_cast<double>(back[i]) - w[i]);
    }
    return e;
  };
  EXPECT_LT(total_err(8), total_err(4));
  EXPECT_LT(total_err(4), total_err(2));
}

TEST(Quantize, SignInvarianceUnderKernelScaling) {
  // Positive per-kernel scaling cannot change the sign of any dot product —
  // the property that makes weight scaling exact for this design.
  Rng rng(4);
  const Tensor w = sample_weights(1, 5);
  const auto q = quantize_conv_weights(w, 12);  // high precision
  const Tensor back = dequantize_conv_weights(q);
  for (int trial = 0; trial < 50; ++trial) {
    double dot_orig = 0.0, dot_deq = 0.0;
    for (int i = 0; i < 25; ++i) {
      const float x = rng.uniform(0.0f, 1.0f);
      dot_orig += static_cast<double>(x) * w[static_cast<std::size_t>(i)];
      dot_deq += static_cast<double>(x) * back[static_cast<std::size_t>(i)];
    }
    if (std::abs(dot_orig) > 1e-2) {  // away from the rounding boundary
      EXPECT_EQ(dot_orig > 0, dot_deq > 0) << "trial " << trial;
    }
  }
}

TEST(Quantize, ZeroKernelHandled) {
  Tensor w({1, 1, 2, 2});  // all zeros
  const auto q = quantize_conv_weights(w, 8);
  EXPECT_EQ(q.kernels[0].scale, 1.0f);
  for (int lv : q.kernels[0].levels) EXPECT_EQ(lv, 0);
}

TEST(Quantize, Validation) {
  Tensor bad({2, 3});
  EXPECT_THROW((void)quantize_conv_weights(bad, 8), std::invalid_argument);
  Tensor w({1, 1, 2, 2});
  EXPECT_THROW((void)quantize_conv_weights(w, 1), std::invalid_argument);
  EXPECT_THROW((void)quantize_conv_weights(w, 17), std::invalid_argument);
}

class QuantizeBitsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantizeBitsSweep, LevelMagnitudeNeverExceedsFullScale) {
  const unsigned bits = GetParam();
  const Tensor w = sample_weights(4, 100 + bits);
  const auto q = quantize_conv_weights(w, bits);
  const int full = 1 << bits;
  for (const auto& k : q.kernels) {
    int max_abs = 0;
    for (int lv : k.levels) max_abs = std::max(max_abs, std::abs(lv));
    EXPECT_LE(max_abs, full);
    EXPECT_EQ(max_abs, full);  // scaling guarantees the extremum hits full
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizeBitsSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace scbnn::nn
