// Fully-stochastic MLP baseline: correctness of the reference path, error
// compounding across layers, the stream-length dependence that motivates
// the paper's hybrid design, and the APC-vs-MUX-tree accumulator ablation.
#include "hybrid/fully_stochastic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/synthetic_mnist.h"
#include "nn/init.h"

namespace scbnn::hybrid {
namespace {

struct TinyMlp {
  nn::Tensor w1{std::vector<int>{8, 784}};
  nn::Tensor b1{std::vector<int>{8}};
  nn::Tensor w2{std::vector<int>{10, 8}};
  nn::Tensor b2{std::vector<int>{10}};
};

TinyMlp make_weights(std::uint64_t seed) {
  TinyMlp m;
  nn::Rng rng(seed);
  for (std::size_t i = 0; i < m.w1.size(); ++i) {
    m.w1[i] = rng.normal(0.0f, 0.05f);
  }
  for (std::size_t i = 0; i < m.w2.size(); ++i) {
    m.w2[i] = rng.normal(0.0f, 0.25f);
  }
  for (std::size_t i = 0; i < 8; ++i) m.b1[i] = rng.normal(0.0f, 0.05f);
  for (std::size_t i = 0; i < 10; ++i) m.b2[i] = rng.normal(0.0f, 0.05f);
  return m;
}

TEST(FullyStochastic, Validation) {
  TinyMlp m = make_weights(1);
  FullyStochasticConfig cfg;
  cfg.log2_n = 2;  // too short
  EXPECT_THROW(FullyStochasticMlp(m.w1, m.b1, m.w2, m.b2, cfg),
               std::invalid_argument);
  cfg.log2_n = 8;
  nn::Tensor bad_w1({8, 100});
  EXPECT_THROW(FullyStochasticMlp(bad_w1, m.b1, m.w2, m.b2, cfg),
               std::invalid_argument);
}

TEST(FullyStochastic, ReferenceMatchesManualMlp) {
  TinyMlp m = make_weights(2);
  FullyStochasticConfig cfg;
  cfg.log2_n = 8;
  FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
  const nn::Tensor img = data::render_digit(4, 3);
  const auto ref = net.reference(img.data());

  for (int h = 0; h < 8; ++h) {
    double acc = m.b1[static_cast<std::size_t>(h)];
    for (int i = 0; i < 784; ++i) {
      acc += static_cast<double>(img[static_cast<std::size_t>(i)]) *
             m.w1[static_cast<std::size_t>(h) * 784 + i];
    }
    EXPECT_NEAR(ref.hidden[static_cast<std::size_t>(h)], std::tanh(acc),
                1e-6);
  }
  EXPECT_GE(ref.predicted, 0);
  EXPECT_LT(ref.predicted, 10);
}

TEST(FullyStochastic, ApcTracksReferenceAtLongStreams) {
  TinyMlp m = make_weights(3);
  FullyStochasticConfig cfg;
  cfg.log2_n = 12;  // N = 4096
  cfg.accumulator = ScAccumulator::kApc;
  FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
  const nn::Tensor img = data::render_digit(7, 5);
  const auto sc = net.infer(img.data());
  const auto ref = net.reference(img.data());
  EXPECT_LT(FullyStochasticMlp::hidden_rms_error(sc, ref), 0.35);
}

TEST(FullyStochastic, ErrorGrowsAsStreamsShorten) {
  // The Section II.B claim: fully stochastic networks need long streams.
  TinyMlp m = make_weights(4);
  const nn::Tensor img = data::render_digit(2, 9);
  std::vector<double> errs;
  for (unsigned log2_n : {12u, 8u, 5u}) {
    FullyStochasticConfig cfg;
    cfg.log2_n = log2_n;
    FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
    const auto sc = net.infer(img.data());
    const auto ref = net.reference(img.data());
    errs.push_back(FullyStochasticMlp::hidden_rms_error(sc, ref));
  }
  EXPECT_LT(errs[0], errs[2]);           // N=4096 clearly beats N=32
  EXPECT_LT(errs[0], 0.2);
  EXPECT_GT(errs[2], 0.15);              // 32-cycle streams: degraded
}

TEST(FullyStochastic, ApcBeatsMuxTreeAccumulation) {
  // Why prior fully-stochastic work [6][16] abandoned scaled MUX trees:
  // the 1/fan-in scale factor plus FSM re-amplification destroys wide
  // layers (Section II.A's "severe loss of precision").
  TinyMlp m = make_weights(5);
  const nn::Tensor img = data::render_digit(8, 2);
  FullyStochasticConfig apc_cfg;
  apc_cfg.log2_n = 10;
  apc_cfg.accumulator = ScAccumulator::kApc;
  FullyStochasticConfig mux_cfg = apc_cfg;
  mux_cfg.accumulator = ScAccumulator::kMuxTree;

  FullyStochasticMlp apc(m.w1, m.b1, m.w2, m.b2, apc_cfg);
  FullyStochasticMlp mux(m.w1, m.b1, m.w2, m.b2, mux_cfg);
  const auto ref = apc.reference(img.data());
  const double apc_err =
      FullyStochasticMlp::hidden_rms_error(apc.infer(img.data()), ref);
  const double mux_err =
      FullyStochasticMlp::hidden_rms_error(mux.infer(img.data()), ref);
  EXPECT_LT(apc_err, mux_err);
  EXPECT_GT(mux_err, 0.3);  // the MUX tree is unusable at this width
}

TEST(FullyStochastic, LogitErrorReflectsCompounding) {
  // Layer 2 consumes layer 1's noisy outputs: logit error does not vanish
  // even though layer 2 is small.
  TinyMlp m = make_weights(5);
  const nn::Tensor img = data::render_digit(8, 2);
  FullyStochasticConfig cfg;
  cfg.log2_n = 7;
  FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
  const auto sc = net.infer(img.data());
  const auto ref = net.reference(img.data());
  EXPECT_GT(FullyStochasticMlp::logit_rms_error(sc, ref), 0.05);
  EXPECT_GT(FullyStochasticMlp::hidden_rms_error(sc, ref), 0.05);
}

TEST(FullyStochastic, DeterministicForFixedSeed) {
  TinyMlp m = make_weights(6);
  const nn::Tensor img = data::render_digit(1, 4);
  FullyStochasticConfig cfg;
  cfg.log2_n = 6;
  FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
  const auto a = net.infer(img.data());
  const auto b = net.infer(img.data());
  EXPECT_EQ(a.predicted, b.predicted);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a.logits[i], b.logits[i]);
}

TEST(FullyStochastic, WeightsAreClampedToBipolarRange) {
  TinyMlp m = make_weights(7);
  m.w2[0] = 5.0f;  // out of range
  FullyStochasticConfig cfg;
  cfg.log2_n = 8;
  FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
  const nn::Tensor img = data::render_digit(0, 0);
  const auto ref = net.reference(img.data());
  for (double l : ref.logits) EXPECT_TRUE(std::isfinite(l));
}

void expect_same_result(const FullyStochasticMlp::Result& a,
                        const FullyStochasticMlp::Result& b) {
  EXPECT_EQ(a.predicted, b.predicted);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.logits[i], b.logits[i]) << "logit " << i;
  }
}

// Non-finite inputs have one defined encoding: NaN takes SNG level 0 like
// -1, and +-Inf clamp to +-1, for either accumulator.
TEST(FullyStochastic, NonFiniteInputsEncodeLikeTheirClampedValues) {
  TinyMlp m = make_weights(8);
  nn::Tensor hostile = data::render_digit(3, 1);
  nn::Tensor clamped = hostile;
  const float inf = std::numeric_limits<float>::infinity();
  const float cases[][2] = {{std::numeric_limits<float>::quiet_NaN(), -1.0f},
                            {inf, 1.0f},
                            {-inf, -1.0f},
                            {2.5f, 1.0f}};
  for (std::size_t i = 0; i < 4; ++i) {
    hostile[100 + 37 * i] = cases[i][0];
    clamped[100 + 37 * i] = cases[i][1];
  }
  for (const ScAccumulator acc : {ScAccumulator::kApc, ScAccumulator::kMuxTree}) {
    FullyStochasticConfig cfg;
    cfg.log2_n = 6;
    cfg.accumulator = acc;
    FullyStochasticMlp net(m.w1, m.b1, m.w2, m.b2, cfg);
    expect_same_result(net.infer(hostile.data()), net.infer(clamped.data()));
  }
}

// A NaN hidden activation (here from a NaN bias) is re-encoded for layer 2
// at level 0, exactly like a saturated -1 hidden unit.
TEST(FullyStochastic, NanHiddenValueEncodesLikeMinusOne) {
  constexpr int kUnit = 5;
  TinyMlp nan_unit = make_weights(9);
  nan_unit.b1[kUnit] = std::numeric_limits<float>::quiet_NaN();
  // Same network with unit kUnit driven to tanh(-785) == -1 exactly: every
  // weight and the bias at -1 against an all-ones image.
  TinyMlp saturated = make_weights(9);
  saturated.b1[kUnit] = -1.0f;
  for (int i = 0; i < 784; ++i) saturated.w1[kUnit * 784 + i] = -1.0f;
  nn::Tensor ones({784});
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0f;

  FullyStochasticConfig cfg;
  cfg.log2_n = 6;
  const auto a = FullyStochasticMlp(nan_unit.w1, nan_unit.b1, nan_unit.w2,
                                    nan_unit.b2, cfg)
                     .infer(ones.data());
  const auto b = FullyStochasticMlp(saturated.w1, saturated.b1, saturated.w2,
                                    saturated.b2, cfg)
                     .infer(ones.data());
  ASSERT_TRUE(std::isnan(a.hidden[kUnit]));
  ASSERT_EQ(b.hidden[kUnit], -1.0);
  expect_same_result(a, b);
}

}  // namespace
}  // namespace scbnn::hybrid
