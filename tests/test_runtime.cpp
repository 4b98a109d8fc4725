// Serving-runtime tests: the backend registry, the determinism contract of
// the batched inference engine (same seed => bit-identical features at any
// thread count), and the vectorized zero-allocation tail fast path
// (bit-identity vs the Network::forward reference, warm-path allocation
// counts for the engine and the adaptive ladder built from engines,
// InferencePlan error paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hybrid/binary_first_layer.h"
#include "hybrid/first_layer.h"
#include "hybrid/hybrid_network.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/inference_plan.h"
#include "nn/maxpool.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/quantize.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/backend_registry.h"
#include "runtime/inference_engine.h"
#include "sc/simd.h"

// Every heap allocation in the binary is counted (zero-allocation
// regressions below).
#include "counting_allocator.h"

namespace scbnn::runtime {
namespace {

nn::QuantizedConvWeights sample_qweights(int kernels, unsigned bits,
                                         std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor w({kernels, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  return nn::quantize_conv_weights(w, bits);
}

// -------------------------------------------------------- BackendRegistry

TEST(BackendRegistry, BuiltinsRegistered) {
  auto& reg = BackendRegistry::instance();
  EXPECT_TRUE(reg.contains("binary-quantized"));
  EXPECT_TRUE(reg.contains("sc-proposed"));
  EXPECT_TRUE(reg.contains("sc-conventional"));
  EXPECT_FALSE(reg.contains("tpu-offload"));
}

TEST(BackendRegistry, CreateBuiltinsMatchesEngineNames) {
  const auto qw = sample_qweights(2, 4, 1);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  auto& reg = BackendRegistry::instance();
  for (const char* name :
       {"binary-quantized", "sc-proposed", "sc-conventional"}) {
    const auto engine = reg.create(name, qw, cfg);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
    EXPECT_EQ(engine->bits(), 4u);
  }
}

TEST(BackendRegistry, UnknownBackendThrowsListingKnownNames) {
  const auto qw = sample_qweights(2, 4, 2);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  try {
    (void)BackendRegistry::instance().create("no-such-backend", qw, cfg);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    EXPECT_NE(what.find("sc-proposed"), std::string::npos);
  }
}

TEST(BackendRegistry, CustomBackendPlugsInWithoutTouchingFactories) {
  auto& reg = BackendRegistry::instance();
  const std::string name = "test-binary-alias";
  if (!reg.contains(name)) {
    reg.register_backend(name, [](const nn::QuantizedConvWeights& w,
                                  const hybrid::FirstLayerConfig& c) {
      return std::make_unique<hybrid::BinaryFirstLayer>(w, c);
    });
  }
  EXPECT_TRUE(reg.contains(name));
  const auto qw = sample_qweights(2, 4, 3);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const auto engine = reg.create(name, qw, cfg);
  EXPECT_EQ(engine->kernels(), 2);
  // Duplicate registration is rejected.
  EXPECT_THROW(reg.register_backend(
                   name, [](const nn::QuantizedConvWeights& w,
                            const hybrid::FirstLayerConfig& c) {
                     return std::make_unique<hybrid::BinaryFirstLayer>(w, c);
                   }),
               std::invalid_argument);
}

TEST(BackendRegistry, InvalidRegistrationsRejected) {
  auto& reg = BackendRegistry::instance();
  EXPECT_THROW(reg.register_backend("", [](const nn::QuantizedConvWeights& w,
                                           const hybrid::FirstLayerConfig& c) {
                 return std::make_unique<hybrid::BinaryFirstLayer>(w, c);
               }),
               std::invalid_argument);
  EXPECT_THROW(reg.register_backend("null-factory", BackendFactory{}),
               std::invalid_argument);
}

// -------------------------------------------------------- InferenceEngine

TEST(InferenceEngine, RejectsNullEngineAndBadConfig) {
  EXPECT_THROW(InferenceEngine(nullptr), std::invalid_argument);
  const auto qw = sample_qweights(2, 4, 4);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  RuntimeConfig rc;
  rc.chunk_images = 0;
  EXPECT_THROW(InferenceEngine("sc-proposed", qw, cfg, rc),
               std::invalid_argument);
  rc.chunk_images = 8;
  rc.threads = Executor::kMaxThreads + 1;  // absurd, not silently clamped
  EXPECT_THROW(InferenceEngine("sc-proposed", qw, cfg, rc),
               std::invalid_argument);
}

TEST(RuntimeConfig, ValidateAcceptsDefaultsAndRejectsNonsense) {
  EXPECT_NO_THROW(RuntimeConfig{}.validate());
  RuntimeConfig rc;
  rc.threads = Executor::kMaxThreads;  // at the cap is still fine
  EXPECT_NO_THROW(rc.validate());
  rc.threads = Executor::kMaxThreads + 1;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc.threads = 0;
  rc.chunk_images = -3;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  // Exact edge cases: zero chunks is as invalid as negative, and the error
  // message names the offending field and value.
  rc.chunk_images = 0;
  try {
    (void)rc.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chunk_images"), std::string::npos);
  }
  rc.chunk_images = 1;  // minimum legal chunk
  EXPECT_NO_THROW(rc.validate());
}

TEST(InferenceEngine, FeaturesMatchSerialReference) {
  const auto qw = sample_qweights(3, 4, 5);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(17, 1, 23);

  const auto serial =
      hybrid::make_first_layer_engine(hybrid::FirstLayerDesign::kScProposed,
                                      qw, cfg);
  const nn::Tensor expect = serial->compute_batch(split.train.images);

  RuntimeConfig rc;
  rc.threads = 3;
  rc.chunk_images = 4;  // 17 images -> 5 uneven chunks
  InferenceEngine engine("sc-proposed", qw, cfg, rc);
  const nn::Tensor got = engine.features(split.train.images);

  ASSERT_EQ(got.shape(), expect.shape());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "feature " << i;
  }
}

TEST(InferenceEngine, DeterministicAcrossThreadCounts) {
  // The acceptance contract: fixed seed => identical predictions whether
  // the batch is served by 1 thread or many.
  const unsigned kSeed = 11;
  const auto qw = sample_qweights(4, 4, kSeed);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  cfg.seed = kSeed;
  const data::DataSplit split = data::generate_synthetic_mnist(24, 1, kSeed);

  std::vector<nn::Tensor> features;
  for (unsigned threads : {1u, 2u, 5u}) {
    RuntimeConfig rc;
    rc.threads = threads;
    rc.chunk_images = 3;
    InferenceEngine engine("sc-conventional", qw, cfg, rc);
    features.push_back(engine.features(split.train.images));
    EXPECT_EQ(engine.last_stats().threads, threads);
  }
  for (std::size_t v = 1; v < features.size(); ++v) {
    ASSERT_EQ(features[v].size(), features[0].size());
    for (std::size_t i = 0; i < features[0].size(); ++i) {
      ASSERT_EQ(features[v][i], features[0][i])
          << "thread variant " << v << " diverged at " << i;
    }
  }
}

TEST(InferenceEngine, PredictionsIdenticalAt1VsNThreads) {
  const auto qw = sample_qweights(4, 4, 6);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(16, 1, 29);

  hybrid::LeNetConfig lenet{4, 4, 16, 0.0f};
  auto predictions_with = [&](unsigned threads) {
    RuntimeConfig rc;
    rc.threads = threads;
    rc.chunk_images = 2;
    nn::Rng rng(99);  // same seed => same tail weights
    hybrid::HybridNetwork net(
        hybrid::make_first_layer_engine(hybrid::FirstLayerDesign::kScProposed,
                                        qw, cfg),
        hybrid::build_tail(lenet, rng), rc);
    return net.predict(split.train.images);
  };
  EXPECT_EQ(predictions_with(1), predictions_with(4));
}

TEST(InferenceEngine, StatsReportBatchAndEnergy) {
  const auto qw = sample_qweights(4, 4, 7);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(10, 1, 31);

  RuntimeConfig rc;
  rc.threads = 2;
  InferenceEngine engine("sc-proposed", qw, cfg, rc);
  (void)engine.features(split.train.images);
  const BatchStats& stats = engine.last_stats();
  EXPECT_EQ(stats.images, 10);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GE(stats.latency_ms, 0.0);
  EXPECT_GT(stats.images_per_sec, 0.0);
  // 4-bit proposed SC has a calibrated hardware model -> non-zero energy.
  EXPECT_GT(stats.energy_j, 0.0);
  // ... and an SC backend reports its cycle spend.
  EXPECT_GT(stats.sc_cycles, 0.0);
}

// ---------------------------------------------------- vectorized fast tail

constexpr hybrid::LeNetConfig kTestLeNet{4, 3, 16, 0.0f};

// One engine + attached tail, plus an identically-seeded standalone tail
// to serve as the Network::forward reference.
struct FastTailRig {
  InferenceEngine engine;
  nn::Network ref_tail;

  explicit FastTailRig(unsigned threads, int chunk_images = 4,
                       const std::string& backend = "sc-proposed")
      : engine(backend, sample_qweights(kTestLeNet.conv1_kernels, 4, 9),
               [] {
                 hybrid::FirstLayerConfig c;
                 c.bits = 4;
                 return c;
               }(),
               [&] {
                 RuntimeConfig rc;
                 rc.threads = threads;
                 rc.chunk_images = chunk_images;
                 return rc;
               }()),
        ref_tail([] {
          nn::Rng rng(77);
          return hybrid::build_tail(kTestLeNet, rng);
        }()) {
    nn::Rng rng(77);  // same seed => same weights as ref_tail
    engine.set_tail(hybrid::build_tail(kTestLeNet, rng));
  }
};

TEST(FastTail, BuildsPlanForTheLeNetTail) {
  FastTailRig rig(2);
  EXPECT_TRUE(rig.engine.has_fast_tail());
}

// The acceptance gate: classify()'s labels AND margins are bit-identical
// to the Network::forward + softmax_margins reference, across thread
// counts and odd batch sizes (1, 7, max) at the ambient dispatch level
// (CI reruns this suite with SCBNN_SIMD=scalar).
TEST(FastTail, ClassifyBitIdenticalToReferenceAcrossThreadsAndBatches) {
  const data::DataSplit split = data::generate_synthetic_mnist(16, 1, 41);
  for (const unsigned threads : {1u, 3u}) {
    FastTailRig rig(threads, 3);
    ASSERT_TRUE(rig.engine.has_fast_tail());
    for (const int n : {1, 7, 16}) {
      nn::Tensor batch({n, 1, 28, 28});
      std::copy(split.train.images.data(),
                split.train.images.data() + batch.size(), batch.data());

      const nn::Tensor feats = rig.engine.features(batch);
      const nn::Tensor ref_logits = rig.ref_tail.forward(feats, false);
      const auto ref_margins = nn::softmax_margins(ref_logits);

      std::vector<Prediction> preds(static_cast<std::size_t>(n));
      (void)rig.engine.classify(batch.data(), n, preds.data());
      for (int i = 0; i < n; ++i) {
        const auto& rm = ref_margins[static_cast<std::size_t>(i)];
        ASSERT_EQ(preds[static_cast<std::size_t>(i)].label, rm.best)
            << "threads=" << threads << " n=" << n << " image " << i;
        ASSERT_EQ(
            std::bit_cast<std::uint64_t>(
                preds[static_cast<std::size_t>(i)].margin),
            std::bit_cast<std::uint64_t>(rm.margin))
            << "threads=" << threads << " n=" << n << " image " << i;
      }
    }
  }
}

TEST(FastTail, PredictMatchesExternalTailReference) {
  const data::DataSplit split = data::generate_synthetic_mnist(11, 1, 43);
  FastTailRig rig(2);
  const std::vector<int> fast = rig.engine.predict(split.train.images);
  const std::vector<int> ref =
      rig.engine.predict(split.train.images, rig.ref_tail);
  EXPECT_EQ(fast, ref);
}

TEST(FastTail, ReportsStageSplit) {
  const data::DataSplit split = data::generate_synthetic_mnist(8, 1, 47);
  FastTailRig rig(2);
  const auto preds = rig.engine.Servable::classify(split.train.images);
  ASSERT_EQ(preds.size(), 8u);
  const BatchStats& stats = rig.engine.last_stats();
  EXPECT_GE(stats.first_layer_ms, 0.0);
  EXPECT_GT(stats.tail_ms, 0.0);
  EXPECT_LE(stats.first_layer_ms + stats.tail_ms, stats.latency_ms + 1e-6);
}

// Mutating the tail through the engine's accessor must reach the next
// classify() — the plan's packed Dense weights are re-packed, not stale.
TEST(FastTail, RetrainedTailParametersAreNotStale) {
  const data::DataSplit split = data::generate_synthetic_mnist(9, 1, 53);
  FastTailRig rig(2);
  auto nudge = [](nn::Network& net) {
    for (const nn::Param& p : net.params()) {
      for (std::size_t i = 0; i < p.value->size(); ++i) {
        (*p.value)[i] += 0.25f * static_cast<float>(i % 3);
      }
    }
  };
  nudge(rig.engine.tail());
  nudge(rig.ref_tail);

  const nn::Tensor feats = rig.engine.features(split.train.images);
  const nn::Tensor ref_logits = rig.ref_tail.forward(feats, false);
  const auto ref_margins = nn::softmax_margins(ref_logits);

  std::vector<Prediction> preds(9);
  (void)rig.engine.classify(split.train.images.data(), 9, preds.data());
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(preds[static_cast<std::size_t>(i)].label,
              ref_margins[static_cast<std::size_t>(i)].best)
        << "image " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                  preds[static_cast<std::size_t>(i)].margin),
              std::bit_cast<std::uint64_t>(
                  ref_margins[static_cast<std::size_t>(i)].margin))
        << "image " << i;
  }
}

// The tentpole's warm-path contract: after one warm-up batch, classify()
// performs ZERO heap allocations — features/logits live in grow-only
// buffers, the plan runs out of per-worker arenas, margins are computed on
// the stack, and the executor's parallel_for frames are pooled.
TEST(FastTail, ClassifyWarmPathIsAllocationFree) {
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 59);
  FastTailRig rig(3);
  ASSERT_TRUE(rig.engine.has_fast_tail());
  std::vector<Prediction> preds(12);
  // Warm up: buffers grow, executor pools its loop frames.
  (void)rig.engine.classify(split.train.images.data(), 12, preds.data());
  (void)rig.engine.classify(split.train.images.data(), 12, preds.data());

  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  (void)rig.engine.classify(split.train.images.data(), 12, preds.data());
  // A smaller batch reuses the grown buffers too.
  (void)rig.engine.classify(split.train.images.data(), 5, preds.data());
  const long long after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "warm classify() allocated " << (after - before) << " times";
}

// The serving configuration of the paper's 4-bit point: the SIMD strip
// kernel runs on the stack, so the first layer adds no heap traffic to the
// warm path either, on one worker or several.
TEST(FastTail, FastFirstLayerWarmPathIsAllocationFree) {
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 61);
  for (const unsigned threads : {1u, 2u}) {
    FastTailRig rig(threads, 4, "sc-proposed-fast");
    ASSERT_TRUE(rig.engine.has_fast_tail());
    std::vector<Prediction> preds(12);
    (void)rig.engine.classify(split.train.images.data(), 12, preds.data());
    (void)rig.engine.classify(split.train.images.data(), 12, preds.data());

    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    (void)rig.engine.classify(split.train.images.data(), 12, preds.data());
    (void)rig.engine.classify(split.train.images.data(), 5, preds.data());
    const long long after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0) << "threads=" << threads << ": warm classify() allocated "
                                 << (after - before) << " times";
  }
}

// The ladder is engines plus a gather and a scatter: a warm 4/8-bit
// sc-proposed-fast ladder that escalates part of its batch to the 8-bit
// rung allocates nothing either, on one worker or several.
TEST(FastTail, AdaptiveLadderWarmPathIsAllocationFree) {
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 67);
  auto ladder_at = [](double margin, std::initializer_list<unsigned> bits,
                      unsigned threads) {
    std::vector<AdaptiveRung> rungs;
    for (const unsigned b : bits) {
      AdaptiveRung rung;
      hybrid::FirstLayerConfig c;
      c.bits = b;
      rung.engine = BackendRegistry::instance().create(
          "sc-proposed-fast", sample_qweights(kTestLeNet.conv1_kernels, b, 9),
          c);
      nn::Rng rng(77);
      rung.tail = hybrid::build_tail(kTestLeNet, rng);
      rungs.push_back(std::move(rung));
    }
    RuntimeConfig rc;
    rc.threads = threads;
    rc.chunk_images = 4;
    return std::make_unique<AdaptivePipeline>(std::move(rungs), margin, rc);
  };
  // The median 4-bit margin: strict < escalates the frames below it.
  std::vector<double> margins;
  for (const AdaptiveOutcome& o :
       ladder_at(0.0, {4u}, 1)->classify_outcomes(split.train.images)) {
    margins.push_back(o.margin);
  }
  std::sort(margins.begin(), margins.end());
  const double margin = margins[margins.size() / 2];

  for (const unsigned threads : {1u, 2u}) {
    const auto ladder = ladder_at(margin, {4u, 8u}, threads);
    std::vector<Prediction> preds(12);
    (void)ladder->classify(split.train.images.data(), 12, preds.data());
    (void)ladder->classify(split.train.images.data(), 12, preds.data());

    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    (void)ladder->classify(split.train.images.data(), 12, preds.data());
    const int escalated = ladder->last_stats().rungs[1].images_in;
    (void)ladder->classify(split.train.images.data(), 5, preds.data());
    const long long after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_GT(escalated, 0) << "threads=" << threads;
    EXPECT_LT(escalated, 12) << "threads=" << threads;
    EXPECT_EQ(after - before, 0) << "threads=" << threads
                                 << ": warm ladder classify() allocated "
                                 << (after - before) << " times";
  }
}

// ------------------------------------------------------------ InferencePlan

TEST(InferencePlan, MatchesNetworkForwardBitExactAtEveryLevel) {
  nn::Rng rng(123);
  nn::Network net = hybrid::build_tail(kTestLeNet, rng);
  nn::InferencePlan plan(net, kTestLeNet.conv1_kernels, 28, 28);
  ASSERT_EQ(plan.classes(), 10);

  const int kBatch = 5;
  nn::Tensor x({kBatch, kTestLeNet.conv1_kernels, 28, 28});
  nn::Rng data_rng(7);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Ternary feature-like inputs plus signed zeros.
    const float r = data_rng.normal(0.0f, 1.0f);
    x[i] = r > 0.5f ? 1.0f : (r < -0.5f ? -1.0f : (r > 0.0f ? 0.0f : -0.0f));
  }
  const nn::Tensor want = net.forward(x, false);

  for (const sc::simd::Level level : sc::simd::available_levels()) {
    // Whole batch in one run, and image-by-image (chunk boundaries must
    // not change a bit).
    auto arena = plan.make_arena(kBatch);
    std::vector<float> got(static_cast<std::size_t>(kBatch) * 10);
    plan.run(x.data(), kBatch, got.data(), arena, level);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << "level " << sc::simd::to_string(level) << " logit " << i;
    }
    auto arena1 = plan.make_arena(1);
    for (int b = 0; b < kBatch; ++b) {
      std::vector<float> row(10);
      plan.run(x.data() + static_cast<std::size_t>(b) * plan.input_size(), 1,
               row.data(), arena1, level);
      for (int c = 0; c < 10; ++c) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(row[static_cast<std::size_t>(c)]),
                  std::bit_cast<std::uint32_t>(want.at2(b, c)))
            << "level " << sc::simd::to_string(level) << " image " << b;
      }
    }
  }
}

TEST(InferencePlan, RejectsUnsupportedLayersAndBadShapes) {
  nn::Rng rng(5);
  {
    nn::Network net;
    net.add<nn::Tanh>();
    EXPECT_THROW(nn::InferencePlan(net, 1, 28, 28), std::invalid_argument);
  }
  {
    nn::Network net;  // Conv2D channel mismatch: expects 3, input has 4
    net.add<nn::Conv2D>(3, 2, 5, 2, rng);
    EXPECT_THROW(nn::InferencePlan(net, 4, 28, 28), std::invalid_argument);
  }
  {
    nn::Network net;  // Dense feature mismatch
    net.add<nn::Dense>(100, 10, rng);
    EXPECT_THROW(nn::InferencePlan(net, 1, 28, 28), std::invalid_argument);
  }
  {
    nn::Network net;  // MaxPool2 on odd spatial dims
    net.add<nn::MaxPool2>();
    EXPECT_THROW(nn::InferencePlan(net, 1, 7, 7), std::invalid_argument);
  }
  {
    nn::Network net;  // Conv2D eats the whole image -> empty output
    net.add<nn::Conv2D>(1, 2, 5, 0, rng);
    EXPECT_THROW(nn::InferencePlan(net, 1, 4, 4), std::invalid_argument);
  }
  EXPECT_THROW(
      {
        nn::Network net;
        net.add<nn::Dense>(784, 10, rng);
        nn::InferencePlan plan(net, 1, 28, 28);
        (void)plan.make_arena(0);
      },
      std::invalid_argument);
}

TEST(InferencePlan, RunRejectsBatchBeyondArenaCapacity) {
  nn::Rng rng(6);
  nn::Network net;
  net.add<nn::Dense>(784, 10, rng);
  nn::InferencePlan plan(net, 1, 28, 28);
  auto arena = plan.make_arena(2);
  std::vector<float> x(static_cast<std::size_t>(3) * 784, 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(3) * 10);
  EXPECT_THROW(plan.run(x.data(), 3, logits.data(), arena,
                        sc::simd::Level::kScalar),
               std::invalid_argument);
}

}  // namespace
}  // namespace scbnn::runtime
