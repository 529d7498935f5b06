// Int8 quantized GEMM / conv kernels for the native backend.
//
// The hot loop is a u8(activations) x s8(weights) dot product with i32
// accumulators. Rows are quantized per fixed chunk of whole kTileMR-row
// blocks (the chunk size depends only on the GEMM shape, never on the
// thread count), then one micro-kernel per output tile (kTileMR rows x
// kTileNV weight panels) runs the full k loop in registers and applies the
// dequantize / bias / activation epilogue straight from its
// accumulators; column tails run narrower tiles with masked stores, row
// tails shorter tiles.
// Three compile-time variants of the dot body:
//   * AVX-512 VNNI: weights packed as [nPad/16][kPad/4] panels of 16 columns
//     x 4 consecutive k values; one _mm512_dpbusd_epi32 does 64 MACs, and a
//     6 x 64 tile holds 24 zmm accumulators.
//   * AVX2: weights pre-widened to i16 and packed as [nPad/8][kPad/2] panels
//     of 8 columns x 2 k values; _mm256_madd_epi16 does 16 MACs. (maddubs is
//     avoided: its i16 intermediate saturates at 255*127*2 > 32767.)
//   * scalar: plain loop over row-major codes.
// Every variant accumulates the same exact integers per element (padding
// contributes 0 * w = 0, and tiling never reorders an element's own chain).
//
// The float stages around the dot product — the row min/max scan, the row
// quantizer and the epilogue — are vectorized too (AVX-512F, masked tails),
// but each vector lane performs exactly the IEEE operation sequence of the
// scalar helpers in backends/common/quant_math.h: mul / min / max /
// cvtps-to-i32 round to nearest-even, and the i32 zero-point correction uses
// 32-bit wraparound arithmetic whose result provably fits (see kMaxAccumK).
// This TU is built with -ffp-contract=off (see CMakeLists.txt) so
// -march=native cannot fuse the epilogue's mul+add into an FMA the reference
// backend doesn't perform. Results are therefore bit-identical to
// RefBackend's scalar oracle at any SIMD width and any thread count.
#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "backends/common/quant_math.h"
#include "backends/native/native_backend.h"
#include "core/buffer_pool.h"
#include "core/thread_pool.h"
#include "core/util.h"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace tfjs::backends::native {

namespace {
using core::ThreadPool;

// A tile is kTileMR rows x kTileNV panels of kPanelN columns; the
// accumulators, kTileNV weight vectors and one broadcast fit the register
// file (32 zmm under VNNI, 16 ymm under AVX2).
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
constexpr int kPanelN = 16;  // columns per VNNI register
constexpr int kPanelK = 4;   // k values per dpbusd quad
constexpr int kTileMR = 6;
constexpr int kTileNV = 4;
#elif defined(__AVX2__)
constexpr int kPanelN = 8;  // columns per madd_epi16 register
constexpr int kPanelK = 2;  // k values per i16 pair
constexpr int kTileMR = 4;
constexpr int kTileNV = 2;
#else
constexpr int kPanelN = 1;
constexpr int kPanelK = 1;
constexpr int kTileMR = 4;
constexpr int kTileNV = 16;
#endif

int roundUp(int v, int to) { return (v + to - 1) / to * to; }

/// qmath::allFinite, SIMD: finite iff the exponent bits are not all ones.
/// A pure predicate, so any evaluation strategy gives the same answer.
bool allFiniteFast(const float* x, std::size_t n) {
#if defined(__AVX512F__)
  const __m512i expMask = _mm512_set1_epi32(0x7f800000);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits =
        _mm512_loadu_si512(reinterpret_cast<const void*>(x + i));
    if (_mm512_cmpeq_epi32_mask(_mm512_and_si512(bits, expMask), expMask)) {
      return false;
    }
  }
  return qmath::allFinite(x + i, n - i);
#else
  return qmath::allFinite(x, n);
#endif
}

#if defined(__AVX512F__)
/// Every lane. The min, max, round and convert intrinsics below take their
/// zero-masking forms with all lanes set: the unmasked forms pass GCC 12 an
/// undefined placeholder operand that it flags as maybe-uninitialized.
constexpr __mmask16 kAllLanes = 0xffff;

/// Mask of the first `count` lanes (count may exceed 16).
__mmask16 laneMask(int count) {
  return count >= 16 ? __mmask16{0xffff}
                     : static_cast<__mmask16>((1u << count) - 1u);
}

/// _mm512_reduce_max_ps (Max) or _mm512_reduce_min_ps, step for step (the
/// same halving order, so even the sign of a zero result is theirs), with
/// both halves extracted through the zero-masking form.
template <bool Max>
float reduceLanes(__m512 a) {
  const auto op256 = [](__m256 x, __m256 y) {
    return Max ? _mm256_max_ps(x, y) : _mm256_min_ps(x, y);
  };
  const auto op128 = [](__m128 x, __m128 y) {
    return Max ? _mm_max_ps(x, y) : _mm_min_ps(x, y);
  };
  const __m512d d = _mm512_castps_pd(a);
  const __m256 t3 =
      op256(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xff, d, 1)),
            _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xff, d, 0)));
  const __m128 t6 =
      op128(_mm256_extractf128_ps(t3, 1), _mm256_castps256_ps128(t3));
  const __m128 t8 = op128(t6, _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(
      op128(t8, _mm_shuffle_ps(t8, t8, _MM_SHUFFLE(0, 1, 0, 1))));
}
#endif

/// qmath::chooseRowQuant for `rows` consecutive rows of A (stride k). The
/// SIMD path scans each row's min/max — both seeds 0 like the scalar scan,
/// so the masked tail's zeroed lanes cannot widen the range, and min/max
/// are exact at any association — then derives 16 rows' parameters at once
/// with chooseFromMinMax's IEEE steps: the two divisions, the > 0 select,
/// and lround's round-half-away-from-zero on t = -lo / scale >= 0 spelled
/// trunc(t) + (t - trunc(t) >= 0.5) (the fraction is exact). The
/// RowQuants are therefore identical.
void chooseRowQuants(const float* A, int k, std::size_t rows,
                     qmath::RowQuant* rqs) {
#if defined(__AVX512F__)
  alignas(64) float lo[16], hi[16], scale[16], inv[16];
  alignas(64) std::int32_t zp[16];
  const __m512 zero = _mm512_setzero_ps();
  for (std::size_t r0 = 0; r0 < rows; r0 += 16) {
    const int count = static_cast<int>(std::min<std::size_t>(16, rows - r0));
    for (int t = 0; t < count; ++t) {
      const float* row = A + (r0 + t) * static_cast<std::size_t>(k);
      __m512 lov = zero, hiv = zero;
      for (int i = 0; i < k; i += 16) {
        const __m512 v = _mm512_maskz_loadu_ps(laneMask(k - i), row + i);
        lov = _mm512_maskz_min_ps(kAllLanes, lov, v);
        hiv = _mm512_maskz_max_ps(kAllLanes, hiv, v);
      }
      lo[t] = reduceLanes<false>(lov);
      hi[t] = reduceLanes<true>(hiv);
    }
    const __mmask16 m = laneMask(count);
    const __m512 lov = _mm512_maskz_load_ps(m, lo);
    __m512 s = _mm512_div_ps(_mm512_sub_ps(_mm512_maskz_load_ps(m, hi), lov),
                             _mm512_set1_ps(255.f));
    s = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(s, zero, _CMP_GT_OQ),
                             _mm512_set1_ps(1.f), s);
    const __m512 negLo = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_castps_si512(lov),
                         _mm512_castps_si512(_mm512_set1_ps(-0.f))));
    const __m512 t = _mm512_div_ps(negLo, s);
    const __m512 tr = _mm512_maskz_roundscale_ps(
        kAllLanes, t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    __m512i z = _mm512_maskz_cvttps_epi32(kAllLanes, tr);
    z = _mm512_mask_add_epi32(
        z,
        _mm512_cmp_ps_mask(_mm512_sub_ps(t, tr), _mm512_set1_ps(0.5f),
                           _CMP_GE_OQ),
        z, _mm512_set1_epi32(1));
    z = _mm512_maskz_min_epi32(
        kAllLanes,
        _mm512_maskz_max_epi32(kAllLanes, z, _mm512_setzero_si512()),
        _mm512_set1_epi32(255));
    _mm512_store_ps(scale, s);
    _mm512_store_ps(inv, _mm512_div_ps(_mm512_set1_ps(1.f), s));
    _mm512_store_si512(zp, z);
    for (int i = 0; i < count; ++i) rqs[r0 + i] = {scale[i], inv[i], zp[i]};
  }
#else
  for (std::size_t r = 0; r < rows; ++r) {
    rqs[r] = qmath::chooseRowQuant(A + r * static_cast<std::size_t>(k),
                                   static_cast<std::size_t>(k));
  }
#endif
}

/// qmath::quantizeRow, SIMD: per lane the exact scalar sequence
/// mul(invScale) -> clamp in float -> cvtps (round to nearest even) -> +zp.
/// The clamp guarantees codes land in [0, 255], so the epi32->epi8
/// truncating narrow equals the scalar u8 cast. Writes exactly k bytes.
void quantizeRowFast(const float* row, int k, const qmath::RowQuant& rq,
                     std::uint8_t* q) {
#if defined(__AVX512F__)
  const __m512 inv = _mm512_set1_ps(rq.invScale);
  const __m512 lov = _mm512_set1_ps(static_cast<float>(-rq.zp));
  const __m512 hiv = _mm512_set1_ps(static_cast<float>(255 - rq.zp));
  const __m512i zpv = _mm512_set1_epi32(rq.zp);
  for (int i = 0; i < k; i += 16) {
    const __mmask16 m = laneMask(k - i);
    const __m512 t = _mm512_maskz_min_ps(
        kAllLanes,
        _mm512_maskz_max_ps(
            kAllLanes,
            _mm512_mul_ps(_mm512_maskz_loadu_ps(m, row + i), inv), lov),
        hiv);
    _mm512_mask_cvtepi32_storeu_epi8(
        q + i, m,
        _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAllLanes, t), zpv));
  }
#else
  qmath::quantizeRow(row, static_cast<std::size_t>(k), rq, q);
#endif
}

/// Everything the epilogue reads besides each row's RowQuant, built once per
/// kernel call.
struct EpilogueArgs {
  int n;
  const std::int32_t* colSums;
  const float* wScale;  ///< per-column weight scale (n entries)
  const float* bias;    ///< n entries, or null
  FusedActivation act;
};

#if defined(__AVX512F__)
/// The epilogue's per-column operands for columns [j, j + 16), masked to the
/// columns inside n (masked lanes read as 0 and are never stored).
struct Cols16 {
  __mmask16 m;
  __m512i colSums;
  __m512 wScale, bias;
};

[[gnu::always_inline]] inline Cols16 loadCols16(const EpilogueArgs& ep,
                                                int j) {
  Cols16 c;
  c.m = laneMask(ep.n - j);
  c.colSums = _mm512_maskz_loadu_epi32(c.m, ep.colSums + j);
  c.wScale = _mm512_maskz_loadu_ps(c.m, ep.wScale + j);
  c.bias = ep.bias != nullptr ? _mm512_maskz_loadu_ps(c.m, ep.bias + j)
                              : _mm512_setzero_ps();
  return c;
}

/// fusedEpilogue(qmath::dequantAcc(...)) on one row's 16 columns, straight
/// from the i32 accumulator register; stores the lanes inside n to dst.
/// Lane-exact against the scalar helpers:
///   * centered = acc - zp*colSum in 32-bit wraparound arithmetic — the
///     true value fits i32 (kMaxAccumK guard), so the wrap is harmless and
///     cvtepi32_ps equals the scalar i64->float conversion;
///   * the float chain mirrors dequantAcc's association exactly:
///     float(centered) * (rq.scale * wScale[j]), then + bias, activation
///     via min/max in the relu / relu6 formulas' operand order. No FMA
///     (this TU: -ffp-contract=off).
/// kSigmoid is transcendental: this stores the dequantized value, and
/// storedEpilogue finishes the tile with the scalar fusedEpilogue. Always
/// inlined, so the tile's other accumulators stay in registers.
[[gnu::always_inline]] inline void epilogue16(__m512i acc,
                                              const qmath::RowQuant& rq,
                                              const EpilogueArgs& ep,
                                              const Cols16& c, float* dst) {
  const __m512i centered = _mm512_sub_epi32(
      acc, _mm512_mullo_epi32(_mm512_set1_epi32(rq.zp), c.colSums));
  __m512 v = _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(kAllLanes, centered),
                           _mm512_mul_ps(_mm512_set1_ps(rq.scale), c.wScale));
  if (ep.bias != nullptr && ep.act != FusedActivation::kSigmoid) {
    v = _mm512_add_ps(v, c.bias);
  }
  const __m512 zero = _mm512_setzero_ps();
  if (ep.act == FusedActivation::kRelu) {
    v = _mm512_maskz_max_ps(kAllLanes, v, zero);  // x > 0 ? x : 0
  } else if (ep.act == FusedActivation::kRelu6) {
    // 0 > x ? 0 : x, then 6 < t ? 6 : t
    v = _mm512_maskz_min_ps(kAllLanes, _mm512_set1_ps(6.f),
                            _mm512_maskz_max_ps(kAllLanes, zero, v));
  }
  _mm512_mask_storeu_ps(dst, c.m, v);
}

/// Finishes a kSigmoid tile of `rows` x `cols` outputs from column j0 of
/// `out` (row stride ldo), whose epilogue16 stored the dequantized values:
/// bias and activation per element, by the scalar fusedEpilogue.
void storedEpilogue(const EpilogueArgs& ep, int rows, int j0, int cols,
                    float* out, std::size_t ldo) {
  for (int r = 0; r < rows; ++r) {
    for (int j = j0; j < j0 + cols; ++j) {
      float& o = out[r * ldo + j];
      o = fusedEpilogue(o, ep.bias, static_cast<std::size_t>(j), ep.act);
    }
  }
}
#endif

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
/// acc + the 4-byte dot products of u8 `a` and s8 `w` per i32 lane: the
/// _mm512_dpbusd_epi32 instruction, spelled in asm because GCC does not tie
/// the intrinsic's accumulator to its destination register — with a full
/// tile of accumulators live it copies them around every step, or spills
/// them. (Taking acc by value keeps the caller's tile array scalarizable.)
[[gnu::always_inline]] inline __m512i dpbusd(__m512i acc, __m512i a,
                                             __m512i w) {
  asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(a), "v"(w));
  return acc;
}
#endif

/// One MR x (NV * kPanelN) output tile at columns [j0, ...): MR quantized
/// rows (kPad u8 codes each, zero-padded past k, kPad bytes apart) dotted
/// with NV weight panels over the whole k range, then the epilogue into
/// `out` (row stride ldo). Columns past n are computed on zero padding and
/// never stored.
template <int MR, int NV>
void quantTile(const PackedQuantWeights& pw, const std::uint8_t* q,
               const qmath::RowQuant* rqs, const EpilogueArgs& ep, int j0,
               float* out, std::size_t ldo) {
  const std::size_t kPad = static_cast<std::size_t>(pw.kPad);
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
  // Panel p's quad qd sits at (p * kQuads + qd) * 64.
  const int kQuads = pw.kPad / kPanelK;
  const std::int8_t* panel =
      pw.panels.data() + static_cast<std::size_t>(j0 / kPanelN) * kQuads * 64;
  __m512i acc[MR][NV];
  for (auto& row : acc) {
    for (__m512i& a : row) a = _mm512_setzero_si512();
  }
  for (int qd = 0; qd < kQuads; ++qd) {
    __m512i w[NV];
    for (int v = 0; v < NV; ++v) {
      w[v] = _mm512_loadu_si512(
          panel + (static_cast<std::size_t>(v) * kQuads + qd) * 64);
    }
    for (int r = 0; r < MR; ++r) {
      // Broadcast 4 consecutive activation bytes to every lane; each lane's
      // 4 weight bytes are that lane's column at the same 4 k positions.
      std::int32_t aq;
      std::memcpy(&aq, q + r * kPad + qd * kPanelK, sizeof(aq));
      const __m512i av = _mm512_set1_epi32(aq);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = dpbusd(acc[r][v], av, w[v]);
      }
    }
  }
  for (int v = 0; v < NV; ++v) {
    const int j = j0 + v * kPanelN;
    const Cols16 c = loadCols16(ep, j);
    for (int r = 0; r < MR; ++r) {
      epilogue16(acc[r][v], rqs[r], ep, c, out + r * ldo + j);
    }
  }
  if (ep.act == FusedActivation::kSigmoid) {
    storedEpilogue(ep, MR, j0, std::min(NV * kPanelN, ep.n - j0), out, ldo);
  }
#else
  constexpr int kCols = NV * kPanelN;
  alignas(64) std::int32_t acc[MR][kCols];
#if defined(__AVX2__)
  const int kPairs = pw.kPad / kPanelK;
  const std::int16_t* panel = pw.panels16.data() +
                              static_cast<std::size_t>(j0 / kPanelN) * kPairs *
                                  16;
  __m256i sum[MR][NV];
  for (auto& row : sum) {
    for (__m256i& s : row) s = _mm256_setzero_si256();
  }
  for (int qd = 0; qd < kPairs; ++qd) {
    __m256i w[NV];
    for (int v = 0; v < NV; ++v) {
      w[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          panel + (static_cast<std::size_t>(v) * kPairs + qd) * 16));
    }
    for (int r = 0; r < MR; ++r) {
      const std::uint8_t* qr = q + r * kPad + qd * kPanelK;
      // i16 lanes [a0, a1] x8; madd pairs them with [w(p), w(p+1)] per
      // column. 255 * 127 * 2 fits i32, so the pairwise sum is exact.
      const std::int32_t a0 = qr[0];
      const std::int32_t a1 = qr[1];
      const __m256i av = _mm256_set1_epi32(a0 | (a1 << 16));
      for (int v = 0; v < NV; ++v) {
        sum[r][v] = _mm256_add_epi32(sum[r][v], _mm256_madd_epi16(av, w[v]));
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(&acc[r][v * kPanelN]),
                         sum[r][v]);
    }
  }
#else
  // kPanelN == 1: the NV columns [j0, j0 + NV) all lie inside n.
  for (auto& row : acc) std::fill(row, row + kCols, 0);
  for (int p = 0; p < pw.k; ++p) {
    const std::int8_t* wrow =
        pw.w8.data() + static_cast<std::size_t>(p) * pw.n + j0;
    for (int r = 0; r < MR; ++r) {
      const std::int32_t a = q[r * kPad + p];
      for (int c = 0; c < kCols; ++c) acc[r][c] += a * wrow[c];
    }
  }
#endif
  const int cols = std::min(kCols, ep.n - j0);
#if defined(__AVX512F__)
  for (int c = 0; c < cols; c += 16) {
    const Cols16 cs = loadCols16(ep, j0 + c);
    for (int r = 0; r < MR; ++r) {
      epilogue16(_mm512_maskz_loadu_epi32(cs.m, &acc[r][c]), rqs[r], ep, cs,
                 out + r * ldo + j0 + c);
    }
  }
  if (ep.act == FusedActivation::kSigmoid) {
    storedEpilogue(ep, MR, j0, cols, out, ldo);
  }
#else
  for (int r = 0; r < MR; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int j = j0 + c;
      out[r * ldo + j] = fusedEpilogue(
          qmath::dequantAcc(acc[r][c], rqs[r], ep.colSums[j], ep.wScale[j]),
          ep.bias, static_cast<std::size_t>(j), ep.act);
    }
  }
#endif
#endif
}

using QuantTileFn = void (*)(const PackedQuantWeights&, const std::uint8_t*,
                             const qmath::RowQuant*, const EpilogueArgs&, int,
                             float*, std::size_t);

/// quantTile<MR, NV> for MR = 1..kTileMR, NV = 1..kTileNV, indexed by
/// (MR - 1) * kTileNV + NV - 1.
template <std::size_t... I>
constexpr std::array<QuantTileFn, sizeof...(I)> quantTiles(
    std::index_sequence<I...>) {
  return {&quantTile<static_cast<int>(I) / kTileNV + 1,
                     static_cast<int>(I) % kTileNV + 1>...};
}
constexpr auto kQuantTiles =
    quantTiles(std::make_index_sequence<kTileMR * kTileNV>{});

/// Serial core over `rows` consecutive rows of A (row stride k), writing
/// `rows` output rows (stride n): quantize every row, then sweep the weights
/// one kTileNV-panel strip at a time, each strip across all the rows' tiles,
/// so the strip's panels stay in L1 while the quantized rows stream past.
/// Rows are independent, so any partition of the row space (threads,
/// chunks, tiles) is bit-identical.
void quantGemmRows(const PackedQuantWeights& pw, const EpilogueArgs& ep,
                   const float* A, std::size_t rows, float* out) {
  if (ep.n == 0) return;
  const std::size_t kPad = static_cast<std::size_t>(pw.kPad);
  std::vector<std::uint8_t> q(rows * kPad, 0);  // pad bytes past k stay 0
  std::vector<qmath::RowQuant> rqs(rows);
  chooseRowQuants(A, pw.k, rows, rqs.data());
  for (std::size_t r = 0; r < rows; ++r) {
    quantizeRowFast(A + r * static_cast<std::size_t>(pw.k), pw.k, rqs[r],
                    q.data() + r * kPad);
  }
  const int panels = pw.nPad / kPanelN;
  for (int p = 0; p < panels; p += kTileNV) {
    const int nv = std::min(kTileNV, panels - p);
    for (std::size_t r = 0; r < rows; r += kTileMR) {
      const int mr = static_cast<int>(
          std::min<std::size_t>(kTileMR, rows - r));
      kQuantTiles[static_cast<std::size_t>((mr - 1) * kTileNV + nv - 1)](
          pw, q.data() + r * kPad, rqs.data() + r, ep, p * kPanelN,
          out + r * static_cast<std::size_t>(ep.n),
          static_cast<std::size_t>(ep.n));
    }
  }
}

/// Rows per parallel chunk: whole kTileMR-row tiles targeting ~kChunkMacs
/// MACs, so even the widest layers form full tiles and reuse each weight
/// strip across several of them. A fixed function of the GEMM shape —
/// never of the thread count — like every native kernel's partition.
constexpr std::size_t kChunkMacs = std::size_t{1} << 21;
std::size_t quantGrain(int k, int n) {
  const std::size_t work = std::max<std::size_t>(
      1, static_cast<std::size_t>(k) * static_cast<std::size_t>(n));
  const std::size_t rows = std::max<std::size_t>(1, kChunkMacs / work);
  return (rows + kTileMR - 1) / kTileMR * kTileMR;
}

/// The per-call epilogue inputs: per-column weight scales (built once here,
/// not per chunk), column sums, bias and activation.
struct CallEpilogue {
  std::vector<float> wScale;
  EpilogueArgs args;
  CallEpilogue(const PackedQuantWeights& pw, const QuantParams& wq,
               const float* bias, FusedActivation act)
      : wScale(static_cast<std::size_t>(pw.n)) {
    for (int j = 0; j < pw.n; ++j) wScale[j] = wq.scaleFor(j);
    args = {pw.n, pw.colSums.data(), wScale.data(), bias, act};
  }
};
}  // namespace

std::shared_ptr<const PackedQuantWeights> NativeBackend::packedWeights(
    DataId id, int k, int n) {
  {
    std::lock_guard<std::mutex> lock(qmu_);
    auto it = qcache_.find(id);
    if (it != qcache_.end() && it->second->k == k && it->second->n == n) {
      return it->second;
    }
  }
  const auto& wv = buf(id);
  auto pw = std::make_shared<PackedQuantWeights>();
  pw->k = k;
  pw->n = n;
  pw->kPad = roundUp(std::max(k, 1), kPanelK);
  pw->nPad = roundUp(std::max(n, 1), kPanelN);
  pw->w8.resize(static_cast<std::size_t>(k) * n);
  qmath::weightsToInt8(wv.data(), pw->w8.size(), pw->w8.data());
  pw->colSums.resize(static_cast<std::size_t>(n));
  qmath::colSums(pw->w8.data(), k, n, pw->colSums.data());
  auto code = [&](int p, int j) -> std::int8_t {
    return (p < k && j < n) ? pw->w8[static_cast<std::size_t>(p) * n + j] : 0;
  };
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
  pw->panels.assign(static_cast<std::size_t>(pw->nPad / kPanelN) *
                        (pw->kPad / kPanelK) * 64,
                    0);
  for (int j0 = 0; j0 < pw->nPad; j0 += kPanelN) {
    for (int p0 = 0; p0 < pw->kPad; p0 += kPanelK) {
      std::int8_t* dst =
          pw->panels.data() +
          (static_cast<std::size_t>(j0 / kPanelN) * (pw->kPad / kPanelK) +
           p0 / kPanelK) *
              64;
      for (int c = 0; c < kPanelN; ++c) {
        for (int q = 0; q < kPanelK; ++q) {
          dst[c * kPanelK + q] = code(p0 + q, j0 + c);
        }
      }
    }
  }
#elif defined(__AVX2__)
  pw->panels16.assign(static_cast<std::size_t>(pw->nPad / kPanelN) *
                          (pw->kPad / kPanelK) * 16,
                      0);
  for (int j0 = 0; j0 < pw->nPad; j0 += kPanelN) {
    for (int p0 = 0; p0 < pw->kPad; p0 += kPanelK) {
      std::int16_t* dst =
          pw->panels16.data() +
          (static_cast<std::size_t>(j0 / kPanelN) * (pw->kPad / kPanelK) +
           p0 / kPanelK) *
              16;
      for (int c = 0; c < kPanelN; ++c) {
        for (int q = 0; q < kPanelK; ++q) {
          dst[c * kPanelK + q] = code(p0 + q, j0 + c);
        }
      }
    }
  }
#endif
  {
    std::lock_guard<std::mutex> lock(qmu_);
    qcache_[id] = pw;
  }
  return pw;
}

void NativeBackend::disposeData(DataId id) {
  {
    std::lock_guard<std::mutex> lock(qmu_);
    qcache_.erase(id);
  }
  RefBackend::disposeData(id);
}

DataId NativeBackend::int8MatMul(const TensorSpec& a, const TensorSpec& b,
                                 bool transposeA, bool transposeB,
                                 const TensorSpec* bias, FusedActivation act) {
  const int k = a.shape[2], n = b.shape[2];
  if (!transposeA && !transposeB && b.shape[0] == 1 &&
      int8Weights(b, k, n)) {
    KernelTimer t(kernelMs_, "native.quantizedMatMul");
    const auto& av = buf(a.id);
    if (allFiniteFast(av.data(), av.size())) {
      auto pw = packedWeights(b.id, k, n);
      const CallEpilogue ep(*pw, *b.quant,
                            bias != nullptr ? buf(bias->id).data() : nullptr,
                            act);
      const std::size_t rows =
          static_cast<std::size_t>(a.shape[0]) * a.shape[1];
      std::vector<float> out = allocBuffer(rows * n);
      ThreadPool::get().parallelFor(
          rows, quantGrain(k, n), [&](std::size_t begin, std::size_t end) {
            quantGemmRows(*pw, ep.args, av.data() + begin * k, end - begin,
                          out.data() + begin * n);
          });
      return store(std::move(out));
    }
  }
  return withDequantizedWeights(*this, b, [&](const TensorSpec& bf) {
    return matMul(a, bf, transposeA, transposeB, bias, act);
  });
}

DataId NativeBackend::int8Conv2d(const TensorSpec& x,
                                 const TensorSpec& filter,
                                 const Conv2DInfo& ci, const TensorSpec* bias,
                                 FusedActivation act) {
  const int patch = ci.filterH * ci.filterW * ci.inC;
  const int n = ci.outC;
  if (int8Weights(filter, patch, n)) {
    KernelTimer t(kernelMs_, "native.quantizedConv2d");
    const auto& xv = buf(x.id);
    if (allFiniteFast(xv.data(), xv.size())) {
      auto pw = packedWeights(filter.id, patch, n);
      const CallEpilogue ep(*pw, *filter.quant,
                            bias != nullptr ? buf(bias->id).data() : nullptr,
                            act);
      const std::size_t outSpatial =
          static_cast<std::size_t>(ci.outH) * ci.outW;
      std::vector<float> out = allocBuffer(
          static_cast<std::size_t>(ci.batch) * outSpatial * n);

      if (ci.filterH == 1 && ci.filterW == 1 && ci.strideH == 1 &&
          ci.strideW == 1 && ci.padTop == 0 && ci.padLeft == 0) {
        // 1x1 convolution: every output pixel's "patch row" is just its
        // input pixel, contiguous across the whole batch — one quantized
        // GEMM over [batch*spatial, inC] (the MobileNet-dominant case).
        const std::size_t rows =
            static_cast<std::size_t>(ci.batch) * outSpatial;
        ThreadPool::get().parallelFor(
            rows, quantGrain(patch, n),
            [&](std::size_t begin, std::size_t end) {
              quantGemmRows(*pw, ep.args, xv.data() + begin * patch,
                            end - begin, out.data() + begin * n);
            });
        return store(std::move(out));
      }

      // General path: chunked im2col (zeros in the padding, the f32 conv's
      // helper), then the quantized GEMM core on the chunk's patch rows. The
      // patch rows equal the oracle's per-pixel materialization exactly, so
      // the dynamic row quantization — and hence the output — matches
      // bitwise.
      const std::size_t totalRows =
          static_cast<std::size_t>(ci.batch) * ci.outH;
      const std::size_t grain = std::max<std::size_t>(
          1, quantGrain(patch, n) / std::max(ci.outW, 1));
      ThreadPool::get().parallelFor(
          totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
            const std::size_t rows = (rEnd - rBegin) * ci.outW;
            std::vector<float> col =
                core::BufferPool::get().acquire(rows * patch);
            im2col(xv.data(), ci, rBegin, rEnd, col.data());
            quantGemmRows(*pw, ep.args, col.data(), rows,
                          out.data() + rBegin * ci.outW * n);
            core::BufferPool::get().release(std::move(col));
          });
      return store(std::move(out));
    }
  }
  return withDequantizedWeights(*this, filter, [&](const TensorSpec& ff) {
    return conv2d(x, ff, ci, bias, act);
  });
}

}  // namespace tfjs::backends::native
