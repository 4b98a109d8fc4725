#include "sc/simd.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "sc/packed.h"
#include "sc/simd_strip.h"
#include "sc/tff.h"

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define SCBNN_SIMD_NEON 1
#endif

namespace scbnn::sc::simd {

namespace {

// ------------------------------------------------------- scalar reference

void and_words_scalar(const std::uint64_t* x, const std::uint64_t* y,
                      std::uint64_t* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] & y[i];
}

void tff_add_columns_scalar(const std::uint64_t* x, const std::uint64_t* y,
                            std::uint64_t* z, std::size_t nwords,
                            std::size_t ncols, bool s0) {
  for (std::size_t c = 0; c < ncols; ++c) {
    (void)tff_add_words_strided(x + c, y + c, z + c, nwords, ncols, s0);
  }
}

void mux_select_columns_scalar(const std::uint64_t* sel,
                               const std::uint64_t* x, const std::uint64_t* y,
                               std::uint64_t* z, std::size_t nwords,
                               std::size_t ncols) {
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t s = sel[w];
    const std::uint64_t* xw = x + w * ncols;
    const std::uint64_t* yw = y + w * ncols;
    std::uint64_t* zw = z + w * ncols;
    for (std::size_t c = 0; c < ncols; ++c) {
      zw[c] = (s & yw[c]) | (~s & xw[c]);
    }
  }
}

void popcount_columns_scalar(const std::uint64_t* x, std::size_t nwords,
                             std::size_t ncols, long* counts) {
  for (std::size_t c = 0; c < ncols; ++c) counts[c] = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t* xw = x + w * ncols;
    for (std::size_t c = 0; c < ncols; ++c) {
      counts[c] += std::popcount(xw[c]);
    }
  }
}

void tff_add_popcount_columns_scalar(const std::uint64_t* x,
                                     const std::uint64_t* y,
                                     std::size_t nwords, std::size_t ncols,
                                     bool s0, long* counts) {
  for (std::size_t c = 0; c < ncols; ++c) {
    bool state = s0;
    long acc = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::uint64_t xi = x[w * ncols + c];
      const std::uint64_t yi = y[w * ncols + c];
      const std::uint64_t m = xi ^ yi;
      const std::uint64_t pm = prefix_xor(m);
      const std::uint64_t sel = state ? pm : ~pm;
      acc += std::popcount((xi & yi) | (m & sel));
      state = state != word_parity(m);
    }
    counts[c] = acc;
  }
}

void mux_select_popcount_columns_scalar(const std::uint64_t* sel,
                                        const std::uint64_t* x,
                                        const std::uint64_t* y,
                                        std::size_t nwords, std::size_t ncols,
                                        long* counts) {
  for (std::size_t c = 0; c < ncols; ++c) counts[c] = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t s = sel[w];
    const std::uint64_t* xw = x + w * ncols;
    const std::uint64_t* yw = y + w * ncols;
    for (std::size_t c = 0; c < ncols; ++c) {
      counts[c] += std::popcount((s & yw[c]) | (~s & xw[c]));
    }
  }
}

// ----------------------------------------------------------------- NEON
#if defined(SCBNN_SIMD_NEON)

// Lane-parallel Kogge-Stone parity scan (sc::prefix_xor per 64-bit lane).
inline uint64x2_t prefix_xor_u64x2(uint64x2_t v) {
  v = veorq_u64(v, vshlq_n_u64(v, 1));
  v = veorq_u64(v, vshlq_n_u64(v, 2));
  v = veorq_u64(v, vshlq_n_u64(v, 4));
  v = veorq_u64(v, vshlq_n_u64(v, 8));
  v = veorq_u64(v, vshlq_n_u64(v, 16));
  v = veorq_u64(v, vshlq_n_u64(v, 32));
  return v;
}

// popcount per 64-bit lane.
inline uint64x2_t popcount_u64x2(uint64x2_t v) {
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
}

// All-ones lanes where the top bit (stream parity) is set.
inline uint64x2_t parity_mask_u64x2(uint64x2_t pm) {
  return vreinterpretq_u64_s64(
      vshrq_n_s64(vreinterpretq_s64_u64(pm), 63));
}

void tff_add_columns_neon(const std::uint64_t* x, const std::uint64_t* y,
                          std::uint64_t* z, std::size_t nwords,
                          std::size_t ncols, bool s0) {
  const std::size_t vec_cols = ncols - (ncols % 2);
  for (std::size_t c = 0; c < vec_cols; c += 2) {
    uint64x2_t notstate = vdupq_n_u64(s0 ? 0u : ~std::uint64_t{0});
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::size_t idx = w * ncols + c;
      const uint64x2_t xv = vld1q_u64(x + idx);
      const uint64x2_t yv = vld1q_u64(y + idx);
      const uint64x2_t m = veorq_u64(xv, yv);
      const uint64x2_t pm = prefix_xor_u64x2(m);
      const uint64x2_t sel = veorq_u64(pm, notstate);
      vst1q_u64(z + idx,
                vorrq_u64(vandq_u64(xv, yv), vandq_u64(m, sel)));
      notstate = veorq_u64(notstate, parity_mask_u64x2(pm));
    }
  }
  for (std::size_t c = vec_cols; c < ncols; ++c) {
    (void)tff_add_words_strided(x + c, y + c, z + c, nwords, ncols, s0);
  }
}

void mux_select_columns_neon(const std::uint64_t* sel, const std::uint64_t* x,
                             const std::uint64_t* y, std::uint64_t* z,
                             std::size_t nwords, std::size_t ncols) {
  for (std::size_t w = 0; w < nwords; ++w) {
    const uint64x2_t sv = vdupq_n_u64(sel[w]);
    const std::uint64_t* xw = x + w * ncols;
    const std::uint64_t* yw = y + w * ncols;
    std::uint64_t* zw = z + w * ncols;
    std::size_t c = 0;
    for (; c + 2 <= ncols; c += 2) {
      const uint64x2_t xv = vld1q_u64(xw + c);
      const uint64x2_t yv = vld1q_u64(yw + c);
      vst1q_u64(zw + c, vbslq_u64(sv, yv, xv));
    }
    for (; c < ncols; ++c) {
      zw[c] = (sel[w] & yw[c]) | (~sel[w] & xw[c]);
    }
  }
}

void popcount_columns_neon(const std::uint64_t* x, std::size_t nwords,
                           std::size_t ncols, long* counts) {
  std::size_t c = 0;
  for (; c + 2 <= ncols; c += 2) {
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < nwords; ++w) {
      acc = vaddq_u64(acc, popcount_u64x2(vld1q_u64(x + w * ncols + c)));
    }
    counts[c] = static_cast<long>(vgetq_lane_u64(acc, 0));
    counts[c + 1] = static_cast<long>(vgetq_lane_u64(acc, 1));
  }
  for (; c < ncols; ++c) {
    long acc = 0;
    for (std::size_t w = 0; w < nwords; ++w) {
      acc += std::popcount(x[w * ncols + c]);
    }
    counts[c] = acc;
  }
}

void tff_add_popcount_columns_neon(const std::uint64_t* x,
                                   const std::uint64_t* y, std::size_t nwords,
                                   std::size_t ncols, bool s0, long* counts) {
  std::size_t c = 0;
  for (; c + 2 <= ncols; c += 2) {
    uint64x2_t notstate = vdupq_n_u64(s0 ? 0u : ~std::uint64_t{0});
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::size_t idx = w * ncols + c;
      const uint64x2_t xv = vld1q_u64(x + idx);
      const uint64x2_t yv = vld1q_u64(y + idx);
      const uint64x2_t m = veorq_u64(xv, yv);
      const uint64x2_t pm = prefix_xor_u64x2(m);
      const uint64x2_t sel = veorq_u64(pm, notstate);
      const uint64x2_t zv =
          vorrq_u64(vandq_u64(xv, yv), vandq_u64(m, sel));
      acc = vaddq_u64(acc, popcount_u64x2(zv));
      notstate = veorq_u64(notstate, parity_mask_u64x2(pm));
    }
    counts[c] = static_cast<long>(vgetq_lane_u64(acc, 0));
    counts[c + 1] = static_cast<long>(vgetq_lane_u64(acc, 1));
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

void mux_select_popcount_columns_neon(const std::uint64_t* sel,
                                      const std::uint64_t* x,
                                      const std::uint64_t* y,
                                      std::size_t nwords, std::size_t ncols,
                                      long* counts) {
  std::size_t c = 0;
  for (; c + 2 <= ncols; c += 2) {
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::size_t idx = w * ncols + c;
      const uint64x2_t sv = vdupq_n_u64(sel[w]);
      const uint64x2_t zv =
          vbslq_u64(sv, vld1q_u64(y + idx), vld1q_u64(x + idx));
      acc = vaddq_u64(acc, popcount_u64x2(zv));
    }
    counts[c] = static_cast<long>(vgetq_lane_u64(acc, 0));
    counts[c + 1] = static_cast<long>(vgetq_lane_u64(acc, 1));
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

#endif  // SCBNN_SIMD_NEON

// ------------------------------------------------- strip kernel (scalar)

// Lane policy for simd_strip.h: SWAR over 64-bit words, kLane-bit lanes
// (64 / kLane streams per word, the narrowest lane a stream fits), one
// group per strip half. Lanes up to 16 bits read the 16-bit tables.
template <unsigned kLane>
struct ScalarLanes {
  using Lane = std::conditional_t<
      kLane <= 16, std::uint16_t,
      std::conditional_t<kLane == 32, std::uint32_t, std::uint64_t>>;
  static constexpr int kPerWord = 64 / kLane;
  static constexpr int kWords = (detail::kImg + kPerWord - 1) / kPerWord;
  // One bit per lane, at the lane's bit 0.
  static constexpr std::uint64_t kRep =
      kLane == 64 ? 1 : ~std::uint64_t{0} / ((std::uint64_t{1} << kLane) - 1);
  static constexpr std::uint64_t kLaneMask = low_mask(kLane);

  struct Reg {
    std::uint64_t w[kWords];
  };
  using Index = std::uint8_t;
  static constexpr int kGroups = 2;  // pos half, neg half
  static constexpr int kMaps = 1;

  static const Lane* table(const detail::FieldTables& t, std::uint32_t d) {
    const std::size_t off = std::size_t{d} * t.table_size;
    if constexpr (kLane <= 16) {
      return t.t16.data() + off;
    } else if constexpr (kLane == 32) {
      return t.t32.data() + off;
    } else {
      return t.t64.data() + off;
    }
  }

  static void build_map(const detail::FieldTables& t,
                        const std::uint8_t* levels, Index* map) {
    detail::fill_map(levels, map, static_cast<Index>(t.table_size - 1),
                     [](std::uint8_t l) { return l; });
  }

  static Reg leaf(const detail::FieldTables& t, int g, std::uint32_t dpos,
                  std::uint32_t dneg, const Index* at) {
    const Lane* tab = table(t, g == 0 ? dpos : dneg);
    Reg r;
    for (int w = 0; w < kWords; ++w) {
      std::uint64_t v = 0;
      for (int j = 0; j < kPerWord; ++j) {
        v |= std::uint64_t{tab[at[w * kPerWord + j]]} << (j * kLane);
      }
      r.w[w] = v;
    }
    return r;
  }

  static Reg zero() { return Reg{}; }

  // Lane-local inclusive parity scan: the shifted copy is masked so no bit
  // crosses into the next lane.
  static std::uint64_t scan(std::uint64_t m) {
    for (unsigned s = 1; s < kLane; s <<= 1) {
      m ^= (m << s) & ~(((std::uint64_t{1} << s) - 1) * kRep);
    }
    return m;
  }

  template <bool kS0>
  static Reg tff(const Reg& x, const Reg& y) {
    Reg z;
    for (int w = 0; w < kWords; ++w) {
      const std::uint64_t m = x.w[w] ^ y.w[w];
      const std::uint64_t p = scan(m);
      z.w[w] = (x.w[w] & y.w[w]) | (m & (kS0 ? p : ~p));
    }
    return z;
  }

  static Reg mux(const Reg& x, const Reg& y, std::uint64_t sel) {
    const std::uint64_t s = sel * kRep;
    Reg z;
    for (int w = 0; w < kWords; ++w) z.w[w] = (s & y.w[w]) | (~s & x.w[w]);
    return z;
  }

  static void emit(const detail::FieldTables& t, const Reg* roots,
                   float* out) {
    int counts[2][detail::kImg];
    for (int h = 0; h < 2; ++h) {
      for (int ox = 0; ox < detail::kImg; ++ox) {
        const std::uint64_t word = roots[h].w[ox / kPerWord];
        counts[h][ox] = std::popcount(
            (word >> ((ox % kPerWord) * kLane)) & kLaneMask);
      }
    }
    detail::emit_counts(t, counts[0], counts[1], out);
  }
};

// ------------------------------------------------------------- dispatch

#if !defined(SCBNN_SIMD_NEON)
bool avx2_runnable() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return detail::avx2_compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool avx512_runnable() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return avx2_runnable() && detail::avx512_compiled() &&
         __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}
#endif  // !SCBNN_SIMD_NEON

Level detect_level() {
#if defined(SCBNN_SIMD_NEON)
  return Level::kNeon;
#else
  if (avx512_runnable()) return Level::kAvx512;
  if (avx2_runnable()) return Level::kAvx2;
  return Level::kScalar;
#endif
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
    case Level::kAvx512: return "avx512";
  }
  return "?";
}

Level resolve_level(const char* request) {
  const Level best = detect_level();
  if (request == nullptr || std::strcmp(request, "") == 0 ||
      std::strcmp(request, "auto") == 0) {
    return best;
  }
  for (const Level level : available_levels()) {
    if (std::strcmp(request, to_string(level)) == 0) return level;
  }
  std::fprintf(stderr,
               "warning: SCBNN_SIMD=%s unavailable on this host; using %s\n",
               request, to_string(best));
  return best;
}

Level active_level() {
  static const Level level = resolve_level(std::getenv("SCBNN_SIMD"));
  return level;
}

std::vector<Level> available_levels() {
  std::vector<Level> levels{Level::kScalar};
  const Level best = detect_level();
  if (best == Level::kAvx512) levels.push_back(Level::kAvx2);
  if (best != Level::kScalar) levels.push_back(best);
  return levels;
}

FieldConv::FieldConv(FieldConvSpec spec, Level level) : level_(level) {
  if (spec.bits < 1 || spec.bits > 6) {
    throw std::invalid_argument("FieldConv: bits must be in [1, 6]");
  }
  const unsigned n = 1u << spec.bits;
  const std::size_t taps = static_cast<std::size_t>(spec.kernels) *
                           static_cast<std::size_t>(detail::kTaps);
  if (spec.kernels < 0 || spec.tap_pos.size() != taps ||
      spec.tap_neg.size() != taps || spec.products.size() % (n + 1) != 0 ||
      (spec.mux && spec.selects.size() != 31)) {
    throw std::invalid_argument("FieldConv: inconsistent spec");
  }
  const std::size_t dense = spec.products.size() / (n + 1);
  for (std::size_t i = 0; i < taps; ++i) {
    if (spec.tap_pos[i] >= dense || spec.tap_neg[i] >= dense) {
      throw std::invalid_argument("FieldConv: tap level out of range");
    }
  }
  detail::FieldTables& t = tables_;
  t.bits = spec.bits;
  t.lane_bits = spec.bits <= 4 ? 16 : (spec.bits == 5 ? 32 : 64);
  t.mux = spec.mux;
  t.kernels = spec.kernels;
  // Differences lie in [-N, N], so clamping the cutoffs to [-N-1, N+1]
  // keeps every comparison and lets the vector kernels compare in 16 bits.
  const int reach = static_cast<int>(n) + 1;
  t.cut_hi = std::clamp(spec.cut_hi, -reach, reach);
  t.cut_lo = std::clamp(spec.cut_lo, -reach, reach);
  t.table_size = t.lane_bits == 16 ? 32 : std::bit_ceil(n + 2);
  t.tap_pos = std::move(spec.tap_pos);
  t.tap_neg = std::move(spec.tap_neg);
  t.selects = std::move(spec.selects);
  const std::size_t entries = dense * t.table_size;
  std::vector<std::uint64_t> wide(entries, 0);
  for (std::size_t d = 0; d < dense; ++d) {
    for (unsigned l = 0; l <= n; ++l) {
      wide[d * t.table_size + l] = spec.products[d * (n + 1) + l];
    }
  }
  if (t.lane_bits == 16) {
    t.t16.assign(wide.begin(), wide.end());
    t.t16_bytes.resize(dense * 32);
    for (std::size_t d = 0; d < dense; ++d) {
      for (std::size_t l = 0; l < 16; ++l) {
        const std::uint16_t v = t.t16[d * t.table_size + l];
        t.t16_bytes[d * 32 + l] = static_cast<std::uint8_t>(v & 0xFF);
        t.t16_bytes[d * 32 + 16 + l] = static_cast<std::uint8_t>(v >> 8);
      }
    }
  } else if (t.lane_bits == 32) {
    t.t32.assign(wide.begin(), wide.end());
  } else {
    t.t64 = std::move(wide);
  }
}

void FieldConv::run(const std::uint8_t* levels, float* out) const {
  switch (level_) {
    case Level::kAvx512: detail::field_conv_avx512(tables_, levels, out); return;
    case Level::kAvx2: detail::field_conv_avx2(tables_, levels, out); return;
    case Level::kNeon:
    case Level::kScalar: break;
  }
  detail::field_conv_scalar(tables_, levels, out);
}

namespace detail {

void field_conv_scalar(const FieldTables& t, const std::uint8_t* levels,
                       float* out) {
  switch (t.bits) {
    case 1: conv<ScalarLanes<2>>(t, levels, out); return;
    case 2: conv<ScalarLanes<4>>(t, levels, out); return;
    case 3: conv<ScalarLanes<8>>(t, levels, out); return;
    case 4: conv<ScalarLanes<16>>(t, levels, out); return;
    case 5: conv<ScalarLanes<32>>(t, levels, out); return;
    default: conv<ScalarLanes<64>>(t, levels, out); return;
  }
}

}  // namespace detail

void and_words(const std::uint64_t* x, const std::uint64_t* y,
               std::uint64_t* z, std::size_t n, Level level) {
  // Column kernels have no AVX-512 form: that level runs their AVX2 form.
  if (level == Level::kAvx2 || level == Level::kAvx512) {
    detail::and_words_avx2(x, y, z, n);
    return;
  }
  and_words_scalar(x, y, z, n);
}

void tff_add_columns(const std::uint64_t* x, const std::uint64_t* y,
                     std::uint64_t* z, std::size_t nwords, std::size_t ncols,
                     bool s0, Level level) {
  switch (level) {
    case Level::kAvx2:
    case Level::kAvx512:
      detail::tff_add_columns_avx2(x, y, z, nwords, ncols, s0);
      return;
#if defined(SCBNN_SIMD_NEON)
    case Level::kNeon:
      tff_add_columns_neon(x, y, z, nwords, ncols, s0);
      return;
#endif
    default: break;
  }
  tff_add_columns_scalar(x, y, z, nwords, ncols, s0);
}

void mux_select_columns(const std::uint64_t* sel, const std::uint64_t* x,
                        const std::uint64_t* y, std::uint64_t* z,
                        std::size_t nwords, std::size_t ncols, Level level) {
  switch (level) {
    case Level::kAvx2:
    case Level::kAvx512:
      detail::mux_select_columns_avx2(sel, x, y, z, nwords, ncols);
      return;
#if defined(SCBNN_SIMD_NEON)
    case Level::kNeon:
      mux_select_columns_neon(sel, x, y, z, nwords, ncols);
      return;
#endif
    default: break;
  }
  mux_select_columns_scalar(sel, x, y, z, nwords, ncols);
}

void popcount_columns(const std::uint64_t* x, std::size_t nwords,
                      std::size_t ncols, long* counts, Level level) {
  switch (level) {
    case Level::kAvx2:
    case Level::kAvx512:
      detail::popcount_columns_avx2(x, nwords, ncols, counts);
      return;
#if defined(SCBNN_SIMD_NEON)
    case Level::kNeon:
      popcount_columns_neon(x, nwords, ncols, counts);
      return;
#endif
    default: break;
  }
  popcount_columns_scalar(x, nwords, ncols, counts);
}

void tff_add_popcount_columns(const std::uint64_t* x, const std::uint64_t* y,
                              std::size_t nwords, std::size_t ncols, bool s0,
                              long* counts, Level level) {
  switch (level) {
    case Level::kAvx2:
    case Level::kAvx512:
      detail::tff_add_popcount_columns_avx2(x, y, nwords, ncols, s0, counts);
      return;
#if defined(SCBNN_SIMD_NEON)
    case Level::kNeon:
      tff_add_popcount_columns_neon(x, y, nwords, ncols, s0, counts);
      return;
#endif
    default: break;
  }
  tff_add_popcount_columns_scalar(x, y, nwords, ncols, s0, counts);
}

void mux_select_popcount_columns(const std::uint64_t* sel,
                                 const std::uint64_t* x,
                                 const std::uint64_t* y, std::size_t nwords,
                                 std::size_t ncols, long* counts,
                                 Level level) {
  switch (level) {
    case Level::kAvx2:
    case Level::kAvx512:
      detail::mux_select_popcount_columns_avx2(sel, x, y, nwords, ncols,
                                               counts);
      return;
#if defined(SCBNN_SIMD_NEON)
    case Level::kNeon:
      mux_select_popcount_columns_neon(sel, x, y, nwords, ncols, counts);
      return;
#endif
    default: break;
  }
  mux_select_popcount_columns_scalar(sel, x, y, nwords, ncols, counts);
}

}  // namespace scbnn::sc::simd
