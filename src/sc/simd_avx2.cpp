// AVX2 implementations of the SC kernels (sc/simd.h).
//
// This translation unit is compiled with -mavx2 when the toolchain supports
// it (see CMakeLists.txt); the rest of the library stays at the baseline
// ISA and dispatches here only after a runtime cpuid check. Column kernels:
// four 64-bit streams ride in one ymm register, the TFF parity scan runs
// as lane-local shift/xor chains (each lane is an independent stream), the
// per-stream carry (TFF state) lives in a lane mask updated from the
// scan's top bit, and popcounts use the nibble-shuffle + psadbw reduction
// (Harley-Seal's byte-counting core, folded to per-lane sums each word).
// The strip kernel (FieldConv) uses the same pieces on 16-, 32- or 64-bit
// lanes, one short stream per lane.
#include "sc/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

#include "sc/packed.h"
#include "sc/simd_strip.h"
#include "sc/tff.h"

namespace scbnn::sc::simd::detail {

namespace {

// Lane-parallel Kogge-Stone parity scan: sc::prefix_xor per 64-bit lane.
inline __m256i prefix_xor_x4(__m256i v) {
  v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 1));
  v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 2));
  v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 4));
  v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 8));
  v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 16));
  v = _mm256_xor_si256(v, _mm256_slli_epi64(v, 32));
  return v;
}

// All-ones lanes where bit 63 is set. Bit 63 of the inclusive prefix parity
// is the whole-word parity, so this doubles as the TFF state update mask.
inline __m256i sign_mask_x4(__m256i v) {
  return _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
}

// popcount per byte: nibble lookup (PSHUFB).
inline __m256i popcount_bytes(__m256i v) {
  const __m256i nibble_counts = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibbles = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_nibbles);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi64(v, 4), low_nibbles);
  return _mm256_add_epi8(_mm256_shuffle_epi8(nibble_counts, lo),
                         _mm256_shuffle_epi8(nibble_counts, hi));
}

// popcount per 64-bit lane: byte counts summed by PSADBW.
inline __m256i popcount_x4(__m256i v) {
  return _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256());
}

// popcount per 16-bit lane: adjacent byte counts summed by PMADDUBSW.
inline __m256i popcount_x16(__m256i v) {
  return _mm256_maddubs_epi16(popcount_bytes(v), _mm256_set1_epi8(1));
}

// Lane-local inclusive parity scan over kLane-bit lanes: shifts within a
// lane never carry into the next one.
template <unsigned kLane>
inline __m256i lane_scan(__m256i m) {
  if constexpr (kLane == 16) {
    m = _mm256_xor_si256(m, _mm256_slli_epi16(m, 1));
    m = _mm256_xor_si256(m, _mm256_slli_epi16(m, 2));
    m = _mm256_xor_si256(m, _mm256_slli_epi16(m, 4));
    return _mm256_xor_si256(m, _mm256_slli_epi16(m, 8));
  } else if constexpr (kLane == 32) {
    m = _mm256_xor_si256(m, _mm256_slli_epi32(m, 1));
    m = _mm256_xor_si256(m, _mm256_slli_epi32(m, 2));
    m = _mm256_xor_si256(m, _mm256_slli_epi32(m, 4));
    m = _mm256_xor_si256(m, _mm256_slli_epi32(m, 8));
    return _mm256_xor_si256(m, _mm256_slli_epi32(m, 16));
  } else {
    return prefix_xor_x4(m);
  }
}

// TFF node on independent kLane-bit streams: z = maj(x, y, s0 ? p : ~p)
// with p the lane-local prefix parity of x ^ y.
template <unsigned kLane, bool kS0>
inline __m256i tff_lanes(__m256i x, __m256i y) {
  const __m256i m = _mm256_xor_si256(x, y);
  const __m256i p = lane_scan<kLane>(m);
  const __m256i sel = kS0 ? _mm256_and_si256(m, p) : _mm256_andnot_si256(p, m);
  return _mm256_or_si256(_mm256_and_si256(x, y), sel);
}

inline __m256i mux_lanes(__m256i s, __m256i x, __m256i y) {
  return _mm256_or_si256(_mm256_and_si256(s, y), _mm256_andnot_si256(s, x));
}

// Strip lane policy (sc/simd_strip.h) for bits <= 4: 16-bit lanes, a half
// strip in two ymm. Leaves are two PSHUFB lookups (low and high bytes of
// the 16-bit product stream) from two pixel maps whose other byte is 0x80,
// so each lookup zeroes the byte it does not own; level 16, which the
// 16-entry PSHUFB tables cannot hold, is blended in by compare.
struct U16Lanes {
  struct Reg {
    __m256i a, b;  // lanes 0..15, 16..31 of one half
  };
  using Index = std::uint16_t;
  static constexpr int kGroups = 2;  // pos half, neg half
  static constexpr int kMaps = 2;
  static constexpr Index kZero = 0x8080;
  static constexpr Index kLevel16 = 0x8010;

  static void build_map(const FieldTables&, const std::uint8_t* levels,
                        Index* map) {
    fill_map(levels, map, kZero, [](std::uint8_t l) {
      return static_cast<Index>(0x8000 | l);
    });
    fill_map(levels, map + kMapSize, kZero, [](std::uint8_t l) {
      return static_cast<Index>(0x0080 | (l << 8));
    });
  }

  static Reg leaf(const FieldTables& t, int g, std::uint32_t dpos,
                  std::uint32_t dneg, const Index* at) {
    const std::uint32_t d = g == 0 ? dpos : dneg;
    const std::uint8_t* bytes = t.t16_bytes.data() + std::size_t{d} * 32;
    const __m256i lo_tab = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)));
    const __m256i hi_tab = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16)));
    const __m256i top = _mm256_set1_epi16(
        static_cast<short>(t.t16[std::size_t{d} * t.table_size + 16]));
    const __m256i level16 = _mm256_set1_epi16(static_cast<short>(kLevel16));
    const auto lookup = [&](const Index* p) {
      const __m256i ia = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i ib =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + kMapSize));
      const __m256i v = _mm256_or_si256(_mm256_shuffle_epi8(lo_tab, ia),
                                        _mm256_shuffle_epi8(hi_tab, ib));
      return _mm256_blendv_epi8(v, top, _mm256_cmpeq_epi16(ia, level16));
    };
    return {lookup(at), lookup(at + 16)};
  }

  static Reg zero() { return {_mm256_setzero_si256(), _mm256_setzero_si256()}; }

  template <bool kS0>
  static Reg tff(const Reg& x, const Reg& y) {
    return {tff_lanes<16, kS0>(x.a, y.a), tff_lanes<16, kS0>(x.b, y.b)};
  }

  static Reg mux(const Reg& x, const Reg& y, std::uint64_t sel) {
    const __m256i s = _mm256_set1_epi16(static_cast<short>(sel));
    return {mux_lanes(s, x.a, y.a), mux_lanes(s, x.b, y.b)};
  }

  static void emit(const FieldTables& t, const Reg* roots, float* out) {
    const __m256i hi_cut = _mm256_set1_epi16(static_cast<short>(t.cut_hi - 1));
    const __m256i lo_cut = _mm256_set1_epi16(static_cast<short>(t.cut_lo + 1));
    const __m256i one = _mm256_set1_epi16(1);
    // -1 where diff <= cut_lo, overridden by +1 where diff >= cut_hi.
    const auto ternary = [&](__m256i pos, __m256i neg) {
      const __m256i diff =
          _mm256_sub_epi16(popcount_x16(pos), popcount_x16(neg));
      return _mm256_blendv_epi8(_mm256_cmpgt_epi16(lo_cut, diff), one,
                                _mm256_cmpgt_epi16(diff, hi_cut));
    };
    const auto to_ps = [](__m128i v) {
      return _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(v));
    };
    const __m256i a = ternary(roots[0].a, roots[1].a);
    const __m256i b = ternary(roots[0].b, roots[1].b);
    _mm256_storeu_ps(out, to_ps(_mm256_castsi256_si128(a)));
    _mm256_storeu_ps(out + 8, to_ps(_mm256_extracti128_si256(a, 1)));
    _mm256_storeu_ps(out + 16, to_ps(_mm256_castsi256_si128(b)));
    _mm_storeu_ps(out + 24, _mm256_castps256_ps128(
                                to_ps(_mm256_extracti128_si256(b, 1))));
  }
};

// Strip lane policy for bits 5 and 6: 32- or 64-bit lanes, one ymm per
// group, leaves gathered from the product table.
template <unsigned kLane>
struct WideLanes {
  static constexpr int kLanes = 256 / kLane;
  static constexpr int kPerHalf = kHalf / kLanes;
  using Reg = __m256i;
  using Index = std::int32_t;
  static constexpr int kGroups = 2 * kPerHalf;
  static constexpr int kMaps = 1;

  static void build_map(const FieldTables& t, const std::uint8_t* levels,
                        Index* map) {
    fill_map(levels, map, static_cast<Index>(t.table_size - 1),
             [](std::uint8_t l) { return static_cast<Index>(l); });
  }

  static Reg leaf(const FieldTables& t, int g, std::uint32_t dpos,
                  std::uint32_t dneg, const Index* at) {
    const std::size_t off =
        std::size_t{g < kPerHalf ? dpos : dneg} * t.table_size;
    const Index* idx = at + (g % kPerHalf) * kLanes;
    if constexpr (kLane == 32) {
      return _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(t.t32.data() + off),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), 4);
    } else {
      return _mm256_i32gather_epi64(
          reinterpret_cast<const long long*>(t.t64.data() + off),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)), 8);
    }
  }

  static Reg zero() { return _mm256_setzero_si256(); }

  template <bool kS0>
  static Reg tff(Reg x, Reg y) {
    return tff_lanes<kLane, kS0>(x, y);
  }

  static Reg mux(Reg x, Reg y, std::uint64_t sel) {
    const __m256i s = kLane == 32
                          ? _mm256_set1_epi32(static_cast<int>(sel))
                          : _mm256_set1_epi64x(static_cast<long long>(sel));
    return mux_lanes(s, x, y);
  }

  static void emit(const FieldTables& t, const Reg* roots, float* out) {
    alignas(32) int counts[2][kHalf];
    for (int g = 0; g < kGroups; ++g) {
      int* dst = counts[g / kPerHalf] + (g % kPerHalf) * kLanes;
      if constexpr (kLane == 32) {
        const __m256i c = _mm256_madd_epi16(popcount_x16(roots[g]),
                                            _mm256_set1_epi16(1));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), c);
      } else {
        // Counts sit in the low dword of each qword: compact them.
        const __m256i c = _mm256_permutevar8x32_epi32(
            popcount_x4(roots[g]), _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                         _mm256_castsi256_si128(c));
      }
    }
    emit_counts(t, counts[0], counts[1], out);
  }
};

}  // namespace

bool avx2_compiled() noexcept { return true; }

void and_words_avx2(const std::uint64_t* x, const std::uint64_t* y,
                    std::uint64_t* z, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i yv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + i),
                        _mm256_and_si256(xv, yv));
  }
  for (; i < n; ++i) z[i] = x[i] & y[i];
}

void tff_add_columns_avx2(const std::uint64_t* x, const std::uint64_t* y,
                          std::uint64_t* z, std::size_t nwords,
                          std::size_t ncols, bool s0) {
  const std::size_t vec_cols = ncols - (ncols % 4);
  const __m256i init =
      s0 ? _mm256_setzero_si256() : _mm256_set1_epi64x(-1);
  for (std::size_t c = 0; c < vec_cols; c += 4) {
    // notstate: all-ones lanes while the lane's TFF state is 0, so
    // sel = pm ^ notstate realizes (state ? pm : ~pm).
    __m256i notstate = init;
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::size_t idx = w * ncols + c;
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + idx));
      const __m256i yv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + idx));
      const __m256i m = _mm256_xor_si256(xv, yv);
      const __m256i pm = prefix_xor_x4(m);
      const __m256i sel = _mm256_xor_si256(pm, notstate);
      const __m256i zv = _mm256_or_si256(_mm256_and_si256(xv, yv),
                                         _mm256_and_si256(m, sel));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + idx), zv);
      notstate = _mm256_xor_si256(notstate, sign_mask_x4(pm));
    }
  }
  for (std::size_t c = vec_cols; c < ncols; ++c) {
    (void)tff_add_words_strided(x + c, y + c, z + c, nwords, ncols, s0);
  }
}

void mux_select_columns_avx2(const std::uint64_t* sel, const std::uint64_t* x,
                             const std::uint64_t* y, std::uint64_t* z,
                             std::size_t nwords, std::size_t ncols) {
  for (std::size_t w = 0; w < nwords; ++w) {
    const __m256i sv = _mm256_set1_epi64x(static_cast<long long>(sel[w]));
    const std::uint64_t* xw = x + w * ncols;
    const std::uint64_t* yw = y + w * ncols;
    std::uint64_t* zw = z + w * ncols;
    std::size_t c = 0;
    for (; c + 4 <= ncols; c += 4) {
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xw + c));
      const __m256i yv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yw + c));
      const __m256i zv = _mm256_or_si256(_mm256_and_si256(sv, yv),
                                         _mm256_andnot_si256(sv, xv));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(zw + c), zv);
    }
    for (; c < ncols; ++c) {
      zw[c] = (sel[w] & yw[c]) | (~sel[w] & xw[c]);
    }
  }
}

void popcount_columns_avx2(const std::uint64_t* x, std::size_t nwords,
                           std::size_t ncols, long* counts) {
  std::size_t c = 0;
  for (; c + 4 <= ncols; c += 4) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < nwords; ++w) {
      const __m256i xv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + w * ncols + c));
      acc = _mm256_add_epi64(acc, popcount_x4(xv));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int l = 0; l < 4; ++l) counts[c + l] = static_cast<long>(lanes[l]);
  }
  for (; c < ncols; ++c) {
    long acc = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      acc += std::popcount(x[w * ncols + c]);
    }
    counts[c] = acc;
  }
}

void tff_add_popcount_columns_avx2(const std::uint64_t* x,
                                   const std::uint64_t* y, std::size_t nwords,
                                   std::size_t ncols, bool s0, long* counts) {
  const __m256i init =
      s0 ? _mm256_setzero_si256() : _mm256_set1_epi64x(-1);
  std::size_t c = 0;
  for (; c + 4 <= ncols; c += 4) {
    __m256i notstate = init;
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::size_t idx = w * ncols + c;
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + idx));
      const __m256i yv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + idx));
      const __m256i m = _mm256_xor_si256(xv, yv);
      const __m256i pm = prefix_xor_x4(m);
      const __m256i sel = _mm256_xor_si256(pm, notstate);
      const __m256i zv = _mm256_or_si256(_mm256_and_si256(xv, yv),
                                         _mm256_and_si256(m, sel));
      acc = _mm256_add_epi64(acc, popcount_x4(zv));
      notstate = _mm256_xor_si256(notstate, sign_mask_x4(pm));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int l = 0; l < 4; ++l) counts[c + l] = static_cast<long>(lanes[l]);
  }
  for (; c < ncols; ++c) {
    bool state = s0;
    long acc = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::uint64_t xi = x[w * ncols + c];
      const std::uint64_t yi = y[w * ncols + c];
      const std::uint64_t m = xi ^ yi;
      const std::uint64_t pm = prefix_xor(m);
      acc += std::popcount((xi & yi) | (m & (state ? pm : ~pm)));
      state = state != word_parity(m);
    }
    counts[c] = acc;
  }
}

void mux_select_popcount_columns_avx2(const std::uint64_t* sel,
                                      const std::uint64_t* x,
                                      const std::uint64_t* y,
                                      std::size_t nwords, std::size_t ncols,
                                      long* counts) {
  std::size_t c = 0;
  for (; c + 4 <= ncols; c += 4) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::size_t idx = w * ncols + c;
      const __m256i sv =
          _mm256_set1_epi64x(static_cast<long long>(sel[w]));
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + idx));
      const __m256i yv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + idx));
      const __m256i zv = _mm256_or_si256(_mm256_and_si256(sv, yv),
                                         _mm256_andnot_si256(sv, xv));
      acc = _mm256_add_epi64(acc, popcount_x4(zv));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int l = 0; l < 4; ++l) counts[c + l] = static_cast<long>(lanes[l]);
  }
  for (; c < ncols; ++c) {
    long acc = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      acc += std::popcount((sel[w] & y[w * ncols + c]) |
                           (~sel[w] & x[w * ncols + c]));
    }
    counts[c] = acc;
  }
}

void field_conv_avx2(const FieldTables& t, const std::uint8_t* levels,
                     float* out) {
  switch (t.lane_bits) {
    case 16: conv<U16Lanes>(t, levels, out); return;
    case 32: conv<WideLanes<32>>(t, levels, out); return;
    default: conv<WideLanes<64>>(t, levels, out); return;
  }
}

}  // namespace scbnn::sc::simd::detail

#else  // !__AVX2__: stubs keep the library linkable; never dispatched to.

namespace scbnn::sc::simd::detail {

bool avx2_compiled() noexcept { return false; }

void and_words_avx2(const std::uint64_t*, const std::uint64_t*,
                    std::uint64_t*, std::size_t) {}
void tff_add_columns_avx2(const std::uint64_t*, const std::uint64_t*,
                          std::uint64_t*, std::size_t, std::size_t, bool) {}
void mux_select_columns_avx2(const std::uint64_t*, const std::uint64_t*,
                             const std::uint64_t*, std::uint64_t*,
                             std::size_t, std::size_t) {}
void popcount_columns_avx2(const std::uint64_t*, std::size_t, std::size_t,
                           long*) {}
void tff_add_popcount_columns_avx2(const std::uint64_t*, const std::uint64_t*,
                                   std::size_t, std::size_t, bool, long*) {}
void mux_select_popcount_columns_avx2(const std::uint64_t*,
                                      const std::uint64_t*,
                                      const std::uint64_t*, std::size_t,
                                      std::size_t, long*) {}
void field_conv_avx2(const FieldTables&, const std::uint8_t*, float*) {}

}  // namespace scbnn::sc::simd::detail

#endif  // __AVX2__
