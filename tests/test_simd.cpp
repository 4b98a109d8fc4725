// Bit-identity gates for the vectorized SC kernels (sc/simd.h): every
// implementation level runnable on this host must match the scalar
// reference circuits (sc/tff.h, plain word ops) bit for bit, across random
// streams, odd word counts, awkward column counts, and both TFF initial
// states. These tests are what lets the fast first-layer engines claim
// bit-identity with the reference engines by construction.
#include "sc/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sc/packed.h"
#include "sc/tff.h"

namespace scbnn::sc::simd {
namespace {

using u64 = std::uint64_t;

std::vector<u64> random_words(std::size_t n, std::mt19937_64& rng) {
  std::vector<u64> v(n);
  for (auto& w : v) w = rng();
  return v;
}

// Scenarios shared by all kernel tests: (nwords, ncols) shapes that cover
// single-column, non-multiple-of-4 columns (SIMD tails), the engine's real
// strip shapes (28 and 56 columns), and multi-word streams.
struct Shape {
  std::size_t nwords, ncols;
};
const Shape kShapes[] = {{1, 1},  {1, 3},  {2, 4},  {3, 5},
                         {1, 28}, {2, 31}, {4, 56}, {7, 2}};

class SimdLevels : public ::testing::TestWithParam<Level> {};

TEST_P(SimdLevels, AndWordsMatchesScalarAnd) {
  const Level level = GetParam();
  std::mt19937_64 rng(101);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}, std::size_t{64}, std::size_t{129}}) {
    const auto x = random_words(n, rng);
    const auto y = random_words(n, rng);
    std::vector<u64> z(n, 0xDEADBEEFu);
    and_words(x.data(), y.data(), z.data(), n, level);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(z[i], x[i] & y[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdLevels, TffAddColumnsMatchesStridedScalarReference) {
  const Level level = GetParam();
  std::mt19937_64 rng(202);
  for (const Shape& sh : kShapes) {
    for (bool s0 : {false, true}) {
      const auto x = random_words(sh.nwords * sh.ncols, rng);
      const auto y = random_words(sh.nwords * sh.ncols, rng);
      std::vector<u64> z(sh.nwords * sh.ncols, 0);
      tff_add_columns(x.data(), y.data(), z.data(), sh.nwords, sh.ncols, s0,
                      level);
      std::vector<u64> ref(sh.nwords * sh.ncols, 0);
      for (std::size_t c = 0; c < sh.ncols; ++c) {
        tff_add_words_strided(x.data() + c, y.data() + c, ref.data() + c,
                              sh.nwords, sh.ncols, s0);
      }
      EXPECT_EQ(z, ref) << "nwords=" << sh.nwords << " ncols=" << sh.ncols
                        << " s0=" << s0;
    }
  }
}

TEST_P(SimdLevels, TffAddColumnsInPlaceAliasing) {
  // The engine reduces its tree in place (node output overwrites an input
  // slot); z == x must behave exactly like the out-of-place call.
  const Level level = GetParam();
  std::mt19937_64 rng(203);
  const std::size_t nwords = 3, ncols = 28;
  const auto x = random_words(nwords * ncols, rng);
  const auto y = random_words(nwords * ncols, rng);
  std::vector<u64> ref(nwords * ncols, 0);
  tff_add_columns(x.data(), y.data(), ref.data(), nwords, ncols, true, level);
  std::vector<u64> z = x;
  tff_add_columns(z.data(), y.data(), z.data(), nwords, ncols, true, level);
  EXPECT_EQ(z, ref);
}

TEST_P(SimdLevels, MuxSelectColumnsMatchesScalarMux) {
  const Level level = GetParam();
  std::mt19937_64 rng(303);
  for (const Shape& sh : kShapes) {
    const auto sel = random_words(sh.nwords, rng);
    const auto x = random_words(sh.nwords * sh.ncols, rng);
    const auto y = random_words(sh.nwords * sh.ncols, rng);
    std::vector<u64> z(sh.nwords * sh.ncols, 0);
    mux_select_columns(sel.data(), x.data(), y.data(), z.data(), sh.nwords,
                       sh.ncols, level);
    for (std::size_t w = 0; w < sh.nwords; ++w) {
      for (std::size_t c = 0; c < sh.ncols; ++c) {
        const std::size_t i = w * sh.ncols + c;
        EXPECT_EQ(z[i], (sel[w] & y[i]) | (~sel[w] & x[i]))
            << "nwords=" << sh.nwords << " ncols=" << sh.ncols << " i=" << i;
      }
    }
  }
}

TEST_P(SimdLevels, PopcountColumnsMatchesScalarPopcount) {
  const Level level = GetParam();
  std::mt19937_64 rng(505);
  for (const Shape& sh : kShapes) {
    const auto x = random_words(sh.nwords * sh.ncols, rng);
    std::vector<long> counts(sh.ncols, -1);
    popcount_columns(x.data(), sh.nwords, sh.ncols, counts.data(), level);
    for (std::size_t c = 0; c < sh.ncols; ++c) {
      long ref = 0;
      for (std::size_t w = 0; w < sh.nwords; ++w) {
        ref += __builtin_popcountll(x[w * sh.ncols + c]);
      }
      EXPECT_EQ(counts[c], ref)
          << "nwords=" << sh.nwords << " ncols=" << sh.ncols << " c=" << c;
    }
  }
}

TEST_P(SimdLevels, FusedTffAddPopcountMatchesUnfused) {
  const Level level = GetParam();
  std::mt19937_64 rng(606);
  for (const Shape& sh : kShapes) {
    for (bool s0 : {false, true}) {
      const auto x = random_words(sh.nwords * sh.ncols, rng);
      const auto y = random_words(sh.nwords * sh.ncols, rng);
      std::vector<u64> z(sh.nwords * sh.ncols, 0);
      tff_add_columns(x.data(), y.data(), z.data(), sh.nwords, sh.ncols, s0,
                      level);
      std::vector<long> ref(sh.ncols, 0);
      popcount_columns(z.data(), sh.nwords, sh.ncols, ref.data(), level);
      std::vector<long> counts(sh.ncols, -1);
      tff_add_popcount_columns(x.data(), y.data(), sh.nwords, sh.ncols, s0,
                               counts.data(), level);
      EXPECT_EQ(counts, ref) << "nwords=" << sh.nwords
                             << " ncols=" << sh.ncols << " s0=" << s0;
    }
  }
}

TEST_P(SimdLevels, FusedMuxSelectPopcountMatchesUnfused) {
  const Level level = GetParam();
  std::mt19937_64 rng(707);
  for (const Shape& sh : kShapes) {
    const auto sel = random_words(sh.nwords, rng);
    const auto x = random_words(sh.nwords * sh.ncols, rng);
    const auto y = random_words(sh.nwords * sh.ncols, rng);
    std::vector<u64> z(sh.nwords * sh.ncols, 0);
    mux_select_columns(sel.data(), x.data(), y.data(), z.data(), sh.nwords,
                       sh.ncols, level);
    std::vector<long> ref(sh.ncols, 0);
    popcount_columns(z.data(), sh.nwords, sh.ncols, ref.data(), level);
    std::vector<long> counts(sh.ncols, -1);
    mux_select_popcount_columns(sel.data(), x.data(), y.data(), sh.nwords,
                                sh.ncols, counts.data(), level);
    EXPECT_EQ(counts, ref) << "nwords=" << sh.nwords << " ncols=" << sh.ncols;
  }
}

// Straight-line model of a FieldConvSpec: one output position at a time,
// one stream per word, every tree node evaluated (pads included) with the
// scalar TFF adder or a word MUX; returns count(pos root) - count(neg
// root) per output.
std::vector<long> field_conv_reference(const FieldConvSpec& spec,
                                       const std::vector<std::uint8_t>& lv) {
  const unsigned n = 1u << spec.bits;
  std::vector<long> diffs(static_cast<std::size_t>(spec.kernels) * 784);
  for (int k = 0; k < spec.kernels; ++k) {
    for (int oy = 0; oy < 28; ++oy) {
      for (int ox = 0; ox < 28; ++ox) {
        long counts[2];
        for (int half = 0; half < 2; ++half) {
          u64 slots[32] = {};
          for (int t = 0; t < 25; ++t) {
            const int iy = oy + t / 5 - 2, ix = ox + t % 5 - 2;
            if (iy < 0 || iy >= 28 || ix < 0 || ix >= 28) continue;
            const auto& taps = half == 0 ? spec.tap_pos : spec.tap_neg;
            const std::size_t d = taps[static_cast<std::size_t>(k * 25 + t)];
            slots[t] = spec.products[d * (n + 1) + lv[iy * 28 + ix]];
          }
          int node = 0;
          for (int count = 32; count > 1; count /= 2) {
            for (int i = 0; i < count; i += 2, ++node) {
              u64 z = 0;
              if (spec.mux) {
                const u64 sel = spec.selects[static_cast<std::size_t>(node)];
                z = (sel & slots[i + 1]) | (~sel & slots[i]);
              } else {
                tff_add_words(&slots[i], &slots[i + 1], &z, 1, node % 2 != 0);
              }
              slots[i / 2] = z;
            }
          }
          counts[half] = __builtin_popcountll(slots[0]);
        }
        diffs[static_cast<std::size_t>(k) * 784 + oy * 28 + ox] =
            counts[0] - counts[1];
      }
    }
  }
  return diffs;
}

TEST_P(SimdLevels, FieldConvMatchesStreamLevelReference) {
  // Random product tables (level 0 included: out-of-image taps must read
  // zero, not level 0) and selects, every stream length the strip kernel
  // serves, and pixel maps that are random, all-zero and all-full. The
  // cutoff pair (c, c - 1) turns every output into the comparison
  // diff >= c, so sweeping c over [-N, N + 1] pins every root count
  // difference exactly; a dead zone and an inverted pair (both
  // comparisons true near zero, +1 wins) cover the three-way rule, and
  // cutoffs far outside [-N, N] must not wrap in 16-bit lanes.
  const Level level = GetParam();
  std::mt19937_64 rng(808);
  for (unsigned bits = 1; bits <= 6; ++bits) {
    const int n = 1 << bits;
    const u64 mask = low_mask(static_cast<unsigned>(n));
    for (bool mux : {false, true}) {
      FieldConvSpec spec;
      spec.bits = bits;
      spec.mux = mux;
      spec.kernels = 3;
      const std::size_t dense = 1 + rng() % static_cast<std::size_t>(n + 1);
      spec.products.resize(dense * static_cast<std::size_t>(n + 1));
      for (auto& p : spec.products) p = rng() & mask;
      for (int i = 0; i < spec.kernels * 25; ++i) {
        spec.tap_pos.push_back(static_cast<std::uint32_t>(rng() % dense));
        spec.tap_neg.push_back(static_cast<std::uint32_t>(rng() % dense));
      }
      if (mux) {
        for (int i = 0; i < 31; ++i) spec.selects.push_back(rng() & mask);
      }
      std::vector<std::vector<std::uint8_t>> images(3);
      for (int p = 0; p < 784; ++p) {
        images[0].push_back(static_cast<std::uint8_t>(rng() % (n + 1)));
      }
      images[1].assign(784, 0);
      images[2].assign(784, static_cast<std::uint8_t>(n));
      std::vector<std::vector<long>> diffs;
      for (const auto& image : images) {
        diffs.push_back(field_conv_reference(spec, image));
      }
      std::vector<std::pair<int, int>> cuts = {
          {2, -2}, {-1, 1}, {100000, -100000}, {-100000, 100000}};
      for (int c = -n; c <= n + 1; ++c) cuts.emplace_back(c, c - 1);
      for (const auto& [hi, lo] : cuts) {
        spec.cut_hi = hi;
        spec.cut_lo = lo;
        const FieldConv conv(spec, level);
        for (std::size_t i = 0; i < images.size(); ++i) {
          std::vector<float> want;
          for (const long d : diffs[i]) {
            want.push_back(d >= hi ? 1.0f : (d <= lo ? -1.0f : 0.0f));
          }
          std::vector<float> got(want.size(), 7.0f);
          conv.run(images[i].data(), got.data());
          ASSERT_EQ(got, want) << "bits=" << bits << " mux=" << mux
                               << " image=" << i << " cuts=" << hi << ","
                               << lo;
        }
      }
    }
  }
}

TEST(FieldConv, RejectsInconsistentSpecs) {
  FieldConvSpec spec;
  spec.bits = 7;
  EXPECT_THROW(FieldConv(spec, Level::kScalar), std::invalid_argument);
  spec.bits = 4;
  spec.kernels = 1;
  spec.products.assign(17, 0);
  spec.tap_pos.assign(25, 0);
  spec.tap_neg.assign(24, 0);
  EXPECT_THROW(FieldConv(spec, Level::kScalar), std::invalid_argument);
  spec.tap_neg.assign(25, 1);  // only one distinct level exists
  EXPECT_THROW(FieldConv(spec, Level::kScalar), std::invalid_argument);
  spec.tap_neg.assign(25, 0);
  spec.mux = true;  // no select streams
  EXPECT_THROW(FieldConv(spec, Level::kScalar), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AvailableLevels, SimdLevels,
                         ::testing::ValuesIn(available_levels()),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           return to_string(info.param);
                         });

TEST(SimdDispatch, ScalarAlwaysAvailableAndFirst) {
  const auto levels = available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
}

TEST(SimdDispatch, AvailableLevelsEndWithTheBest) {
  const auto levels = available_levels();
  EXPECT_EQ(resolve_level(nullptr), levels.back());
  EXPECT_EQ(resolve_level("auto"), levels.back());
  for (const Level level : levels) {
    EXPECT_EQ(resolve_level(to_string(level)), level) << to_string(level);
  }
}

TEST(SimdDispatch, Avx512ParsesAndFallsBackWithAWarning) {
  const auto levels = available_levels();
  const bool runnable =
      std::find(levels.begin(), levels.end(), Level::kAvx512) != levels.end();
  ::testing::internal::CaptureStderr();
  const Level got = resolve_level("avx512");
  const std::string err = ::testing::internal::GetCapturedStderr();
  if (runnable) {
    EXPECT_EQ(got, Level::kAvx512);
    EXPECT_TRUE(err.empty()) << err;
  } else {
    EXPECT_EQ(got, levels.back());
    EXPECT_NE(err.find("SCBNN_SIMD=avx512 unavailable"), std::string::npos)
        << err;
  }
  // A host with AVX-512 still runs the AVX2 kernels when asked to.
  if (runnable) {
    EXPECT_EQ(resolve_level("avx2"), Level::kAvx2);
  }
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(resolve_level("avx1024"), levels.back());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("unavailable"),
            std::string::npos);
}

}  // namespace
}  // namespace scbnn::sc::simd
