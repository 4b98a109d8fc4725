// Shared structure of the register-resident strip kernel (sc::simd::FieldConv).
//
// Each implementation-level translation unit (simd.cpp, simd_avx2.cpp,
// simd_avx512.cpp) includes this header and instantiates conv_frame with
// its own lane policy V. Everything here has internal linkage, so the
// per-TU instantiations, compiled with different -m flags, never merge.
//
// A lane policy provides:
//   Reg, Index      register group type; pixel-map entry type
//   kGroups         register groups per strip (a strip = 28 output
//                   positions of both halves, each half padded to 32)
//   kMaps           pixel maps build_map writes (stacked kMapSize apart)
//   build_map(t, levels, map)
//   leaf(t, g, dpos, dneg, at)  group g of a tap's product strip; `at`
//                   points at the map entry of the strip's first position
//   zero(), tff<s0>(x, y), mux(x, y, sel)
//   emit(t, roots, out)         thresholded outputs of one strip
#pragma once

#include <cstdint>

#include "sc/simd.h"

namespace scbnn::sc::simd::detail {
namespace {

constexpr int kImg = 28;   // image side = output row length
constexpr int kKer = 5;    // kernel side
constexpr int kTaps = kKer * kKer;
constexpr int kHalf = 32;  // lanes per strip half (28 positions + pad)

// Pixel map: the quantized image with 2 zero-index rows above and below
// and 2 zero-index columns on the left, and enough on the right that a
// full 32-lane half read at the largest tap offset stays inside the row.
constexpr int kMapRows = kImg + kKer - 1;
constexpr int kMapStride = 40;
constexpr int kMapSize = kMapRows * kMapStride;
static_assert(kMapStride >= kHalf + kKer - 1);

/// Fill `map` with `zero`, then the image's levels through `index`.
template <class Index, class F>
inline void fill_map(const std::uint8_t* levels, Index* map, Index zero,
                     F index) {
  for (int i = 0; i < kMapSize; ++i) map[i] = zero;
  for (int iy = 0; iy < kImg; ++iy) {
    Index* row = map + (iy + kKer / 2) * kMapStride + kKer / 2;
    for (int ix = 0; ix < kImg; ++ix) row[ix] = index(levels[iy * kImg + ix]);
  }
}

/// Output of tree node (kLevel, kPos); level 0 are the leaves. Subtrees
/// whose leaves are all zero pads are never evaluated; their parent reads
/// V::zero() instead, which is what the pads reduce to for TFF and MUX
/// alike.
template <class V, bool kMux, int kLevel, int kPos, class Leaf>
inline typename V::Reg subtree(const FieldTables& t, const Leaf& leaf) {
  if constexpr (kLevel == 0) {
    return leaf(kPos);
  } else {
    constexpr int kNode = 32 - (64 >> kLevel) + kPos;
    constexpr int kRightFirstLeaf = (2 * kPos + 1) << (kLevel - 1);
    const typename V::Reg a = subtree<V, kMux, kLevel - 1, 2 * kPos>(t, leaf);
    typename V::Reg b;
    if constexpr (kRightFirstLeaf >= kTaps) {
      b = V::zero();
    } else {
      b = subtree<V, kMux, kLevel - 1, 2 * kPos + 1>(t, leaf);
    }
    if constexpr (kMux) {
      return V::mux(a, b, t.selects[kNode]);
    } else {
      // Alternating initial states cancel the TFF rounding bias.
      return V::template tff<(kNode % 2) != 0>(a, b);
    }
  }
}

template <class V, bool kMux>
void conv_frame(const FieldTables& t, const std::uint8_t* levels,
                float* out) {
  alignas(64) typename V::Index map[V::kMaps * kMapSize];
  V::build_map(t, levels, map);
  for (int k = 0; k < t.kernels; ++k) {
    const std::uint32_t* dpos = t.tap_pos.data() + k * kTaps;
    const std::uint32_t* dneg = t.tap_neg.data() + k * kTaps;
    float* feat = out + k * kImg * kImg;
    for (int oy = 0; oy < kImg; ++oy) {
      typename V::Reg roots[V::kGroups];
      for (int g = 0; g < V::kGroups; ++g) {
        const auto leaf = [&](int tap) {
          return V::leaf(t, g, dpos[tap], dneg[tap],
                         map + (oy + tap / kKer) * kMapStride + tap % kKer);
        };
        roots[g] = subtree<V, kMux, 5, 0>(t, leaf);
      }
      V::emit(t, roots, feat + oy * kImg);
    }
  }
}

template <class V>
void conv(const FieldTables& t, const std::uint8_t* levels, float* out) {
  if (t.mux) {
    conv_frame<V, true>(t, levels, out);
  } else {
    conv_frame<V, false>(t, levels, out);
  }
}

/// Thresholds one strip from per-position root counts (pos and neg halves).
inline void emit_counts(const FieldTables& t, const int* pos, const int* neg,
                        float* out) {
  for (int ox = 0; ox < kImg; ++ox) {
    const int diff = pos[ox] - neg[ox];
    out[ox] = diff >= t.cut_hi ? 1.0f : (diff <= t.cut_lo ? -1.0f : 0.0f);
  }
}

}  // namespace
}  // namespace scbnn::sc::simd::detail
