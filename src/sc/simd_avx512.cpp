// AVX-512BW implementation of the register-resident strip kernel
// (sc::simd::FieldConv).
//
// This translation unit is compiled with -mavx512f -mavx512bw when the
// toolchain supports them (see CMakeLists.txt) and is reached only after a
// runtime cpuid check. At bits <= 4 every stream owns a 16-bit lane, so a
// 32-lane half strip (28 positions + pad) fills exactly one zmm:
//   - a leaf is one VPERMW: the index is the pixel-map row shifted by the
//     tap's dx, the table the 32 x u16 product table of the tap's weight
//     level (entries above N are zero, and out-of-image pixels index the
//     last one);
//   - a TFF node is the lane-local parity scan (4 x VPSLLW + XOR) and one
//     VPTERNLOGQ majority, maj(x, y, s0 ? p : ~p); a MUX node is one
//     VPTERNLOGQ bit-select;
//   - root counts come from PSHUFB nibble counts summed by VPMADDUBSW, and
//     pos - neg is compared against the integer cutoffs straight into
//     mask registers that pick the {-1, 0, +1} floats of a masked store.
// Bits 5 and 6 use 32- or 64-bit lanes with gathered leaves.
#include "sc/simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include "sc/simd_strip.h"

// GCC's AVX-512 headers seed the unmasked gather and shift forms with
// _mm512_undefined_*(), which -Wmaybe-uninitialized misreports once inlined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace scbnn::sc::simd::detail {

namespace {

// VPTERNLOGQ truth tables, operand order (a, b, c).
constexpr int kMaj = 0xE8;     // maj(a, b, c)
constexpr int kMajNot = 0xD4;  // maj(a, b, ~c)
constexpr int kSelect = 0xCA;  // a ? b : c

// popcount per byte: nibble lookup (PSHUFB).
inline __m512i popcount_bytes(__m512i v) {
  const __m512i nibble_counts = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_nibbles = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_nibbles);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_nibbles);
  return _mm512_add_epi8(_mm512_shuffle_epi8(nibble_counts, lo),
                         _mm512_shuffle_epi8(nibble_counts, hi));
}

// popcount per 16-bit lane.
inline __m512i popcount_x32(__m512i v) {
  return _mm512_maddubs_epi16(popcount_bytes(v), _mm512_set1_epi8(1));
}

// Lane-local inclusive parity scan over kLane-bit lanes.
template <unsigned kLane>
inline __m512i lane_scan(__m512i m) {
  if constexpr (kLane == 16) {
    m = _mm512_xor_si512(m, _mm512_slli_epi16(m, 1));
    m = _mm512_xor_si512(m, _mm512_slli_epi16(m, 2));
    m = _mm512_xor_si512(m, _mm512_slli_epi16(m, 4));
    return _mm512_xor_si512(m, _mm512_slli_epi16(m, 8));
  } else if constexpr (kLane == 32) {
    m = _mm512_xor_si512(m, _mm512_slli_epi32(m, 1));
    m = _mm512_xor_si512(m, _mm512_slli_epi32(m, 2));
    m = _mm512_xor_si512(m, _mm512_slli_epi32(m, 4));
    m = _mm512_xor_si512(m, _mm512_slli_epi32(m, 8));
    return _mm512_xor_si512(m, _mm512_slli_epi32(m, 16));
  } else {
    m = _mm512_xor_si512(m, _mm512_slli_epi64(m, 1));
    m = _mm512_xor_si512(m, _mm512_slli_epi64(m, 2));
    m = _mm512_xor_si512(m, _mm512_slli_epi64(m, 4));
    m = _mm512_xor_si512(m, _mm512_slli_epi64(m, 8));
    m = _mm512_xor_si512(m, _mm512_slli_epi64(m, 16));
    return _mm512_xor_si512(m, _mm512_slli_epi64(m, 32));
  }
}

template <unsigned kLane, bool kS0>
inline __m512i tff_lanes(__m512i x, __m512i y) {
  const __m512i p = lane_scan<kLane>(_mm512_xor_si512(x, y));
  return kS0 ? _mm512_ternarylogic_epi64(x, y, p, kMaj)
             : _mm512_ternarylogic_epi64(x, y, p, kMajNot);
}

// Strip lane policy (sc/simd_strip.h) for bits <= 4: 16-bit lanes, the pos
// and neg halves of a strip in one zmm each, both in one group.
struct U16Lanes {
  struct Reg {
    __m512i pos, neg;
  };
  using Index = std::uint16_t;
  static constexpr int kGroups = 1;
  static constexpr int kMaps = 1;

  static void build_map(const FieldTables& t, const std::uint8_t* levels,
                        Index* map) {
    fill_map(levels, map, static_cast<Index>(t.table_size - 1),
             [](std::uint8_t l) { return static_cast<Index>(l); });
  }

  static Reg leaf(const FieldTables& t, int, std::uint32_t dpos,
                  std::uint32_t dneg, const Index* at) {
    const __m512i idx = _mm512_loadu_si512(at);
    const std::uint16_t* tab = t.t16.data();
    return {_mm512_permutexvar_epi16(
                idx, _mm512_loadu_si512(tab + std::size_t{dpos} * 32)),
            _mm512_permutexvar_epi16(
                idx, _mm512_loadu_si512(tab + std::size_t{dneg} * 32))};
  }

  static Reg zero() { return {_mm512_setzero_si512(), _mm512_setzero_si512()}; }

  template <bool kS0>
  static Reg tff(const Reg& x, const Reg& y) {
    return {tff_lanes<16, kS0>(x.pos, y.pos), tff_lanes<16, kS0>(x.neg, y.neg)};
  }

  static Reg mux(const Reg& x, const Reg& y, std::uint64_t sel) {
    const __m512i s = _mm512_set1_epi16(static_cast<short>(sel));
    return {_mm512_ternarylogic_epi64(s, y.pos, x.pos, kSelect),
            _mm512_ternarylogic_epi64(s, y.neg, x.neg, kSelect)};
  }

  static void emit(const FieldTables& t, const Reg* roots, float* out) {
    const __m512i diff = _mm512_sub_epi16(popcount_x32(roots[0].pos),
                                          popcount_x32(roots[0].neg));
    const __mmask32 up = _mm512_cmpge_epi16_mask(
        diff, _mm512_set1_epi16(static_cast<short>(t.cut_hi)));
    const __mmask32 down = _mm512_cmple_epi16_mask(
        diff, _mm512_set1_epi16(static_cast<short>(t.cut_lo)));
    const __m512 zero = _mm512_setzero_ps();
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 minus_one = _mm512_set1_ps(-1.0f);
    // -1 where diff <= cut_lo, overridden by +1 where diff >= cut_hi.
    const auto ternary = [&](__mmask16 u, __mmask16 d) {
      return _mm512_mask_mov_ps(_mm512_mask_mov_ps(zero, d, minus_one), u,
                                one);
    };
    _mm512_storeu_ps(out, ternary(static_cast<__mmask16>(up),
                                  static_cast<__mmask16>(down)));
    _mm512_mask_storeu_ps(out + 16, 0x0FFF,
                          ternary(static_cast<__mmask16>(up >> 16),
                                  static_cast<__mmask16>(down >> 16)));
  }
};

// Strip lane policy for bits 5 and 6: 32- or 64-bit lanes, one zmm per
// group, leaves gathered from the product table.
template <unsigned kLane>
struct WideLanes {
  static constexpr int kLanes = 512 / kLane;
  static constexpr int kPerHalf = kHalf / kLanes;
  using Reg = __m512i;
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
      return _mm512_i32gather_epi32(_mm512_loadu_si512(idx),
                                    t.t32.data() + off, 4);
    } else {
      return _mm512_i32gather_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)),
          t.t64.data() + off, 8);
    }
  }

  static Reg zero() { return _mm512_setzero_si512(); }

  template <bool kS0>
  static Reg tff(Reg x, Reg y) {
    return tff_lanes<kLane, kS0>(x, y);
  }

  static Reg mux(Reg x, Reg y, std::uint64_t sel) {
    const __m512i s = kLane == 32
                          ? _mm512_set1_epi32(static_cast<int>(sel))
                          : _mm512_set1_epi64(static_cast<long long>(sel));
    return _mm512_ternarylogic_epi64(s, y, x, kSelect);
  }

  static void emit(const FieldTables& t, const Reg* roots, float* out) {
    alignas(64) int counts[2][kHalf];
    for (int g = 0; g < kGroups; ++g) {
      int* dst = counts[g / kPerHalf] + (g % kPerHalf) * kLanes;
      const __m512i bytes = popcount_bytes(roots[g]);
      if constexpr (kLane == 32) {
        _mm512_storeu_si512(
            dst, _mm512_madd_epi16(
                     _mm512_maddubs_epi16(bytes, _mm512_set1_epi8(1)),
                     _mm512_set1_epi16(1)));
      } else {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst),
            _mm512_cvtepi64_epi32(
                _mm512_sad_epu8(bytes, _mm512_setzero_si512())));
      }
    }
    emit_counts(t, counts[0], counts[1], out);
  }
};

}  // namespace

bool avx512_compiled() noexcept { return true; }

void field_conv_avx512(const FieldTables& t, const std::uint8_t* levels,
                       float* out) {
  switch (t.lane_bits) {
    case 16: conv<U16Lanes>(t, levels, out); return;
    case 32: conv<WideLanes<32>>(t, levels, out); return;
    default: conv<WideLanes<64>>(t, levels, out); return;
  }
}

}  // namespace scbnn::sc::simd::detail

#else  // no AVX-512BW: stubs keep the library linkable; never dispatched to.

namespace scbnn::sc::simd::detail {

bool avx512_compiled() noexcept { return false; }
void field_conv_avx512(const FieldTables&, const std::uint8_t*, float*) {}

}  // namespace scbnn::sc::simd::detail

#endif
