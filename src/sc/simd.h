// Vectorized word-parallel kernels for the bit-packed SC fast path.
//
// Two families live here:
//
//  - Column-batched kernels (and_words, tff_add_columns, ...) operate on
//    `ncols` independent packed bit-streams of `nwords` 64-bit words each,
//    stored word-major, so element (word w, column c) lives at index
//    `w * ncols + c`. Columns map to output positions of the stochastic
//    convolution: the carry-sequential part of the SC circuits (the TFF
//    parity scan) stays scalar *along* a stream while the batch vectorizes
//    *across* streams. They serve long streams (N = 2^bits > 64).
//
//  - The register-resident strip kernel (FieldConv) runs the whole
//    stochastic first layer for short streams (N <= 64): every stream
//    fits one lane of a vector register, so a full output-row strip goes
//    from product-table lookup through the 32-leaf adder tree to the
//    thresholded outputs without storing an intermediate strip.
//
// Every kernel is bit-identical to its scalar reference (sc/tff.h,
// sc/gates.h semantics); tests/test_simd.cpp asserts this for every
// implementation level runnable on the host.
//
// Dispatch: implementations exist for portable scalar (always), AVX2 and
// AVX-512BW (each compiled in its own translation unit when the toolchain
// knows the flags, selected at runtime via cpuid), and NEON (aarch64).
// `active_level()` picks the best available and honors the SCBNN_SIMD env
// override ("scalar", "avx2", "avx512", "neon", "auto") so benches and
// tests can pin a path. Kernels without an AVX-512 form run their AVX2
// form at kAvx512.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scbnn::sc::simd {

enum class Level { kScalar = 0, kAvx2 = 1, kNeon = 2, kAvx512 = 3 };

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Best implementation available on this host (cached; SCBNN_SIMD override).
[[nodiscard]] Level active_level();

/// The level an SCBNN_SIMD value selects: the named level when it is
/// runnable here, the best available for null, "" or "auto", and otherwise
/// the best available after a warning on stderr.
[[nodiscard]] Level resolve_level(const char* request);

/// All levels runnable on this host, kScalar first, best last.
[[nodiscard]] std::vector<Level> available_levels();

/// z[i] = x[i] & y[i] for i < n (flat arrays, no column structure) — the
/// AND-multiplier of the SC datapath, used to precompute product LUTs.
void and_words(const std::uint64_t* x, const std::uint64_t* y,
               std::uint64_t* z, std::size_t n, Level level);

/// Column-batched TFF adder (Fig. 2b): for every column c, z_c =
/// tff_add(x_c, y_c, s0) exactly as sc::tff_add_words computes it. In-place
/// operation with z == x or z == y is allowed.
void tff_add_columns(const std::uint64_t* x, const std::uint64_t* y,
                     std::uint64_t* z, std::size_t nwords, std::size_t ncols,
                     bool s0, Level level);

/// Column-batched MUX adder: z = (sel & y) | (~sel & x) per bit. The select
/// stream is shared by all columns (`sel` holds `nwords` words, one tree
/// node's select sequence), matching the conventional design where one
/// LFSR bank drives every position's tree.
void mux_select_columns(const std::uint64_t* sel, const std::uint64_t* x,
                        const std::uint64_t* y, std::uint64_t* z,
                        std::size_t nwords, std::size_t ncols, Level level);

/// counts[c] = sum over w of popcount(x[w * ncols + c]) — the asynchronous
/// output counter, batched across columns.
void popcount_columns(const std::uint64_t* x, std::size_t nwords,
                      std::size_t ncols, long* counts, Level level);

/// Fused root stage: counts[c] = popcount(tff_add(x_c, y_c, s0)) without
/// materializing the root stream. Bit-identical to tff_add_columns followed
/// by popcount_columns.
void tff_add_popcount_columns(const std::uint64_t* x, const std::uint64_t* y,
                              std::size_t nwords, std::size_t ncols, bool s0,
                              long* counts, Level level);

/// Fused root stage for the MUX tree: counts[c] = popcount((sel & y_c) |
/// (~sel & x_c)).
void mux_select_popcount_columns(const std::uint64_t* sel,
                                 const std::uint64_t* x,
                                 const std::uint64_t* y, std::size_t nwords,
                                 std::size_t ncols, long* counts, Level level);

// Convenience overloads on the active level.
inline void and_words(const std::uint64_t* x, const std::uint64_t* y,
                      std::uint64_t* z, std::size_t n) {
  and_words(x, y, z, n, active_level());
}
inline void tff_add_columns(const std::uint64_t* x, const std::uint64_t* y,
                            std::uint64_t* z, std::size_t nwords,
                            std::size_t ncols, bool s0) {
  tff_add_columns(x, y, z, nwords, ncols, s0, active_level());
}
inline void mux_select_columns(const std::uint64_t* sel,
                               const std::uint64_t* x, const std::uint64_t* y,
                               std::uint64_t* z, std::size_t nwords,
                               std::size_t ncols) {
  mux_select_columns(sel, x, y, z, nwords, ncols, active_level());
}
inline void popcount_columns(const std::uint64_t* x, std::size_t nwords,
                             std::size_t ncols, long* counts) {
  popcount_columns(x, nwords, ncols, counts, active_level());
}
inline void tff_add_popcount_columns(const std::uint64_t* x,
                                     const std::uint64_t* y,
                                     std::size_t nwords, std::size_t ncols,
                                     bool s0, long* counts) {
  tff_add_popcount_columns(x, y, nwords, ncols, s0, counts, active_level());
}
inline void mux_select_popcount_columns(const std::uint64_t* sel,
                                        const std::uint64_t* x,
                                        const std::uint64_t* y,
                                        std::size_t nwords, std::size_t ncols,
                                        long* counts) {
  mux_select_popcount_columns(sel, x, y, nwords, ncols, counts,
                              active_level());
}

// ------------------------------------------ register-resident strip kernel

/// The short-stream (N = 2^bits <= 64) stochastic first layer, as fixed at
/// engine construction. The geometry is the paper's: a 28x28 single-channel
/// image, 5x5 'same'-padded kernels, and per kernel two 32-leaf adder
/// trees (w_pos and w_neg halves) over 25 product taps + 7 zero pads, with
/// nodes numbered level by level (0..15, 16..23, 24..27, 28..29, root 30)
/// exactly as the reference engine numbers them.
struct FieldConvSpec {
  unsigned bits = 4;  ///< stream length N = 2^bits, bits in [1, 6]
  bool mux = false;   ///< MUX tree (conventional) instead of TFF (proposed)
  int kernels = 0;
  /// products[d * (N + 1) + l]: the product stream (low N bits, cycle 0 in
  /// bit 0) of input level l with the d-th distinct weight level.
  std::vector<std::uint64_t> products;
  /// Per (kernel * 25 + tap): the d of the tap's w_pos and w_neg level.
  std::vector<std::uint32_t> tap_pos, tap_neg;
  /// MUX only: the select stream of every tree node (31, low N bits).
  std::vector<std::uint64_t> selects;
  /// An output is +1 where count(pos root) - count(neg root) >= cut_hi,
  /// else -1 where that difference is <= cut_lo, else 0.
  int cut_hi = 1, cut_lo = -1;
};

namespace detail {
/// FieldConvSpec laid out for the lane-typed kernels: every stream owns one
/// lane of `lane_bits` bits (16 for bits <= 4, else 32 or 64), so the TFF
/// parity scan stays lane-local and needs no cross-field correction.
struct FieldTables {
  unsigned bits = 0, lane_bits = 0;
  bool mux = false;
  int kernels = 0, cut_hi = 0, cut_lo = 0;
  /// Product-table entries per distinct weight level: a power of two
  /// >= N + 2. Entries above N are zero; the last one is the index every
  /// out-of-image tap reads.
  unsigned table_size = 0;
  std::vector<std::uint16_t> t16;  // lane_bits == 16
  std::vector<std::uint32_t> t32;  // lane_bits == 32
  std::vector<std::uint64_t> t64;  // lane_bits == 64
  /// lane_bits == 16: per d, the low then the high bytes of entries 0..15
  /// (PSHUFB tables).
  std::vector<std::uint8_t> t16_bytes;
  std::vector<std::uint32_t> tap_pos, tap_neg;
  std::vector<std::uint64_t> selects;
};
}  // namespace detail

/// Runs a FieldConvSpec one image at a time. Per output row (strip) and
/// kernel, every leaf is a product-table lookup indexed by a row of
/// quantized pixels, the 25-leaf tree runs in registers (nodes whose inputs
/// are both zero pads are elided; numbering is unaffected), and the root
/// counts are thresholded against the integer cutoffs. Bit-identical at
/// every level. Immutable after construction: run() is safe to call from
/// many threads and allocates nothing.
class FieldConv {
 public:
  FieldConv(FieldConvSpec spec, Level level);

  /// `levels`: 28x28 quantized pixels, each in [0, N]. `out`: kernels x
  /// 28 x 28 floats in {-1, 0, +1}, kernel-major.
  void run(const std::uint8_t* levels, float* out) const;

 private:
  detail::FieldTables tables_;
  Level level_;
};

namespace detail {
/// True when the AVX2 translation unit was compiled with AVX2 enabled
/// (host support is still checked at runtime before dispatching to it).
[[nodiscard]] bool avx2_compiled() noexcept;
// AVX2 entry points (defined in simd_avx2.cpp; stubs when not compiled).
void and_words_avx2(const std::uint64_t* x, const std::uint64_t* y,
                    std::uint64_t* z, std::size_t n);
void tff_add_columns_avx2(const std::uint64_t* x, const std::uint64_t* y,
                          std::uint64_t* z, std::size_t nwords,
                          std::size_t ncols, bool s0);
void mux_select_columns_avx2(const std::uint64_t* sel, const std::uint64_t* x,
                             const std::uint64_t* y, std::uint64_t* z,
                             std::size_t nwords, std::size_t ncols);
void popcount_columns_avx2(const std::uint64_t* x, std::size_t nwords,
                           std::size_t ncols, long* counts);
void tff_add_popcount_columns_avx2(const std::uint64_t* x,
                                   const std::uint64_t* y, std::size_t nwords,
                                   std::size_t ncols, bool s0, long* counts);
void mux_select_popcount_columns_avx2(const std::uint64_t* sel,
                                      const std::uint64_t* x,
                                      const std::uint64_t* y,
                                      std::size_t nwords, std::size_t ncols,
                                      long* counts);

/// True when the AVX-512 translation unit was compiled with AVX-512F/BW.
[[nodiscard]] bool avx512_compiled() noexcept;
// FieldConv frame kernels, one per level (the AVX2 and AVX-512 ones are
// stubs when their translation unit was not compiled for the ISA).
void field_conv_scalar(const FieldTables& t, const std::uint8_t* levels,
                       float* out);
void field_conv_avx2(const FieldTables& t, const std::uint8_t* levels,
                     float* out);
void field_conv_avx512(const FieldTables& t, const std::uint8_t* levels,
                       float* out);
}  // namespace detail

}  // namespace scbnn::sc::simd
