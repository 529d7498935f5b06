#include "backends/native/native_backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__SSE__)
#include <immintrin.h>
#endif

#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/thread_pool.h"
#include "core/util.h"

namespace tfjs::backends::native {

namespace {
using core::ThreadPool;

// GEMM blocking: B is packed kKC rows of k at a time (a kKC x n block sits
// in L2), and the parallel grain is a kMC-row (or kNC-column) panel of C.
constexpr int kMC = 64;
constexpr int kKC = 256;
constexpr int kNC = 512;

/// Elementwise parallel grain: 32K floats (128 KB) per chunk amortizes
/// dispatch while still splitting the 16M-element benchmark ~500 ways.
constexpr std::size_t kElemGrain = std::size_t{1} << 15;

/// Fixed grain for row-sliced spatial kernels (conv/pool/depthwise/reduce):
/// enough rows that one chunk touches ~`target` scalars. Depends only on
/// the problem shape, never the thread count — chunk boundaries (and thus
/// results) are identical at any parallelism.
std::size_t rowsPerChunk(std::size_t scalarsPerRow, std::size_t target) {
  return std::max<std::size_t>(1, target / std::max<std::size_t>(1,
                                                                 scalarsPerRow));
}

// ---------------------------------------------------------------- f32 GEMM
//
// Goto/BLIS structure: per kKC-deep block of k, B is packed into kc x kNR
// column panels, and one micro-kernel holds an MR x kNR tile of C in vector
// registers for the whole block — one load and one store of C per block
// instead of one per k step. A is read in place (MR rows, stride lda).
//
// Bitwise contract: every C element is one multiply-add chain over p
// ascending, exactly as a scalar `c += a * b` loop computes it (one FMA per
// step when the target has FMA — this TU builds with -ffp-contract=fast —
// two roundings otherwise). An accumulating GEMM starts each chain from the
// value already in C; an overwriting one (the forward matMul and conv2d)
// starts it from +0 in registers and never reads C, which is the chain a
// zeroed C gives without the zero-fill pass or the reload. Blocks, tiles
// and the parallel partition only decide *when* a chain advances, never its
// order, so results are bitwise independent of all of them.

// Vector width is fixed at compile time by the target ISA (no runtime
// dispatch): 16 lanes under AVX-512, 8 under AVX, SSE2's 4 in a portable
// build. GCC vector extensions give one source for all three.
#if defined(__AVX512F__)
constexpr int kLanes = 16;
#elif defined(__AVX__)
constexpr int kLanes = 8;
#else
constexpr int kLanes = 4;
#endif
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));

/// A tile row is kNV vectors: kNR columns of C per micro-kernel call.
constexpr int kNV = 2;
constexpr int kNR = kNV * kLanes;
/// Tallest tile: kMR * kNV accumulators plus kNV B vectors and a broadcast
/// fit the register file (32 zmm under AVX-512, 16 ymm/xmm otherwise).
constexpr int kMR = kLanes == 16 ? 8 : 6;
/// k block of the small-m path, which reads B in place.
constexpr int kSmallKC = 16;

inline Vec loadVec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void storeVec(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

// Lanes [0, n) of a vector, n in [0, kLanes], for the right edge of a
// partial tile: the masked forms read and write nothing past p[n - 1].
#if defined(__AVX2__) && !defined(__AVX512F__)
inline __m256i laneMask(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
#endif

/// Lanes [0, n) loaded from p, zeros above.
inline Vec loadPartial(const float* p, int n) {
#if defined(__AVX512F__)
  return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1), p);
#elif defined(__AVX2__)
  return _mm256_maskload_ps(p, laneMask(n));
#else
  Vec v = {};
  for (int i = 0; i < n; ++i) v[i] = p[i];
  return v;
#endif
}

/// loadVec when n == kLanes, loadPartial when 0 < n < kLanes, zeros when
/// n == 0 (p is then never dereferenced).
inline Vec loadLanes(const float* p, int n) {
  return n == kLanes ? loadVec(p) : n > 0 ? loadPartial(p, n) : Vec{};
}

/// Stores lanes [0, n) of v to p.
inline void storePartial(float* p, Vec v, int n) {
#if defined(__AVX512F__)
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1), v);
#elif defined(__AVX2__)
  _mm256_maskstore_ps(p, laneMask(n), v);
#else
  for (int i = 0; i < n; ++i) p[i] = v[i];
#endif
}

/// dst[0, n) = src[0, n) (or zeros when src is null) in whole vectors and
/// one masked one: no library call for the short runs of a thin im2col.
inline void copyRun(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    storeVec(dst + i, src != nullptr ? loadVec(src + i) : Vec{});
  }
  if (i < n) {
    const int rest = static_cast<int>(n - i);
    storePartial(dst + i, src != nullptr ? loadPartial(src + i, rest) : Vec{},
                 rest);
  }
}

/// `a > b ? a : b` per lane. x86's max instruction is exactly this select
/// (it returns its second operand when the compare is false: NaN or equal
/// zeros), so it is one instruction where the generic select is a compare
/// and a blend. Under AVX-512 all lanes go through the zero-masking form:
/// GCC 12 flags the unmasked one's placeholder operand as
/// maybe-uninitialized.
inline Vec selectMax(Vec a, Vec b) {
#if defined(__AVX512F__)
  return Vec(_mm512_maskz_max_ps(static_cast<__mmask16>(0xFFFF), __m512(a),
                                 __m512(b)));
#elif defined(__AVX__)
  return Vec(_mm256_max_ps(__m256(a), __m256(b)));
#elif defined(__SSE__)
  return Vec(_mm_max_ps(__m128(a), __m128(b)));
#else
  return a > b ? a : b;
#endif
}

/// `a < b ? a : b` per lane, x86's min instruction likewise.
inline Vec selectMin(Vec a, Vec b) {
#if defined(__AVX512F__)
  return Vec(_mm512_maskz_min_ps(static_cast<__mmask16>(0xFFFF), __m512(a),
                                 __m512(b)));
#elif defined(__AVX__)
  return Vec(_mm256_min_ps(__m256(a), __m256(b)));
#elif defined(__SSE__)
  return Vec(_mm_min_ps(__m128(a), __m128(b)));
#else
  return a < b ? a : b;
#endif
}

/// Whether `act` runs on stored values, bias included (fusedEpilogue per
/// element), rather than in epilogueTile's registers: sigmoid, whose exp
/// has no vector form here.
inline bool storedActivation(FusedActivation act) {
  return act == FusedActivation::kSigmoid;
}

/// The register half of a fused epilogue on an R x C tile of finished
/// chains whose column j holds channels [j * kLanes, (j + 1) * kLanes) of
/// `bias` (null for none): `x + bias`, then the relu or relu6 select. The
/// selects are the relu and relu6 formulas of elementwise.h written per
/// lane — `x > 0 ? x : 0`, and `x < 0 ? 0 : (6 < x ? 6 : x)` spelled
/// `0 > x ? 0 : x` then `6 < t ? 6 : t` — so NaN and -0 come out as in the
/// scalar path. A stored activation leaves the tile as it is.
template <int R, int C>
inline void epilogueTile(Vec (&acc)[R][C], const float* bias,
                         FusedActivation act) {
  if (storedActivation(act)) return;
  if (bias != nullptr) {
    for (int j = 0; j < C; ++j) {
      const Vec bv = loadVec(bias + j * kLanes);
      for (int i = 0; i < R; ++i) acc[i][j] = acc[i][j] + bv;
    }
  }
  const Vec zero = {}, six = zero + 6.f;
  if (act == FusedActivation::kRelu) {
    for (auto& row : acc) {
      for (Vec& x : row) x = selectMax(x, zero);
    }
  } else if (act == FusedActivation::kRelu6) {
    for (auto& row : acc) {
      for (Vec& x : row) x = selectMin(six, selectMax(zero, x));
    }
  }
}

/// A fused epilogue: bias, then the activation. The GEMM's runs on its last
/// k block, with the bias already offset to the tile's first column (kNR
/// entries readable); the depthwise kernel's indexes the bias by channel.
struct Epilogue {
  const float* bias;
  FusedActivation act;
};

/// C[0:MR, 0:cols] (row stride ldc) = (`loadC` ? C : +0) + A[0:MR, 0:kc] *
/// B[0:kc, 0:cols], then `ep` when non-null (epilogueTile on the registers;
/// a stored activation runs fusedEpilogue on C after the store).
/// B is a panel kNR columns wide (row stride ldb), zero-padded past `cols`
/// (1..kNR); C is only read and written below `cols`, and read not at all
/// without `loadC`. A is stored [MR, kc] with row stride lda, or with
/// TransA its transpose, [kc, MR] with row stride lda.
template <int MR, bool TransA>
void microKernel(int kc, const float* __restrict A, std::size_t lda,
                 const float* __restrict B, std::size_t ldb,
                 float* __restrict C, std::size_t ldc, int cols, bool loadC,
                 const Epilogue* ep) {
  // Lanes of C in each of the row's kNV vectors.
  int lanes[kNV];
  for (int v = 0; v < kNV; ++v) {
    lanes[v] = std::clamp(cols - v * kLanes, 0, kLanes);
  }
  Vec acc[MR][kNV] = {};
  if (loadC) {
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < kNV; ++v) {
        acc[r][v] = loadLanes(C + r * ldc + v * kLanes, lanes[v]);
      }
    }
  }
  for (int p = 0; p < kc; ++p) {
    Vec b[kNV];
    for (int v = 0; v < kNV; ++v) b[v] = loadVec(B + p * ldb + v * kLanes);
    for (int r = 0; r < MR; ++r) {
      const float a = TransA ? A[p * lda + r] : A[r * lda + p];
      for (int v = 0; v < kNV; ++v) acc[r][v] += a * b[v];
    }
  }
  if (ep != nullptr) epilogueTile(acc, ep->bias, ep->act);
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < kNV; ++v) {
      float* c = C + r * ldc + v * kLanes;
      if (lanes[v] == kLanes) {
        storeVec(c, acc[r][v]);
      } else if (lanes[v] > 0) {
        storePartial(c, acc[r][v], lanes[v]);
      }
    }
  }
  if (ep != nullptr && storedActivation(ep->act)) {
    for (int r = 0; r < MR; ++r) {
      for (int j = 0; j < cols; ++j) {
        float& c = C[r * ldc + j];
        c = fusedEpilogue(c, ep->bias, static_cast<std::size_t>(j), ep->act);
      }
    }
  }
}

using MicroKernelFn = void (*)(int, const float*, std::size_t, const float*,
                               std::size_t, float*, std::size_t, int, bool,
                               const Epilogue*);

/// microKernel<MR, TransA> for MR = 1..kMR, indexed by MR - 1 (tail rows of
/// a panel run the shorter tiles).
template <bool TransA, std::size_t... I>
constexpr std::array<MicroKernelFn, sizeof...(I)> microKernels(
    std::index_sequence<I...>) {
  return {&microKernel<static_cast<int>(I) + 1, TransA>...};
}
/// Indexed by [transA][MR - 1].
constexpr std::array<std::array<MicroKernelFn, kMR>, 2> kMicroKernels = {
    microKernels<false>(std::make_index_sequence<kMR>{}),
    microKernels<true>(std::make_index_sequence<kMR>{})};

/// Packs rows [p0, p0 + kc) of op(B), `width` columns wide, into
/// consecutive kc x kNR panels (columns [j, j + kNR) at dst + j * kc),
/// zero-filling the columns past `width`. op(B)[p, j] is B[p * ldb + j], or
/// with `transB` B[j * ldb + p] — packing is where B gets transposed. Either
/// way the source is read in storage order, one contiguous run at a time.
void packB(const float* B, bool transB, std::size_t ldb, int width, int p0,
           int kc, float* dst) {
  if (transB) {
    for (int j = 0; j < width; j += kNR) {
      const int cols = std::min(kNR, width - j);
      float* panel = dst + static_cast<std::size_t>(j) * kc;
      for (int c = 0; c < cols; ++c) {
        const float* src = B + (j + c) * ldb + p0;
        for (int p = 0; p < kc; ++p) panel[p * kNR + c] = src[p];
      }
      if (cols < kNR) {
        for (int p = 0; p < kc; ++p) {
          std::fill(panel + p * kNR + cols, panel + (p + 1) * kNR, 0.f);
        }
      }
    }
    return;
  }
  // Row by row in whole vectors, masked past width: no library call per
  // row, which would dominate packing a narrow B (the dy of a filter
  // gradient: thousands of rows of a few vectors each).
  for (int p = 0; p < kc; ++p) {
    const float* src = B + (p0 + p) * ldb;
    for (int j = 0; j < width; j += kNR) {
      float* d = dst + static_cast<std::size_t>(j) * kc + p * kNR;
      for (int v = 0; v < kNV; ++v) {
        const int lanes = std::clamp(width - j - v * kLanes, 0, kLanes);
        storeVec(d + v * kLanes, loadLanes(src + j + v * kLanes, lanes));
      }
    }
  }
}

/// Runs the micro-kernel over rows [i0, i1) x columns [j0, j1) of C for
/// k rows [p0, p0 + kc); A is [m, k] with row stride lda, or with `transA`
/// [k, m] with row stride lda. `panelAt(j)` returns the kc x kNR B panel
/// starting at column j and its row stride. The tiles continue the chains
/// in C when `loadC`, and start them from +0 otherwise. On a partial last
/// column panel the kernel masks its C accesses at column n, and reads a
/// zero-padded copy of the bias.
template <typename PanelAt>
void runTiles(const float* A, bool transA, std::size_t lda, float* C, int n,
              int i0, int i1, int j0, int j1, int p0, int kc,
              const float* bias, FusedActivation act, bool loadC, bool last,
              PanelAt&& panelAt) {
  const bool epilogue =
      last && (bias != nullptr || act != FusedActivation::kNone);
  for (int j = j0; j < j1; j += kNR) {
    const int cols = std::min(kNR, j1 - j);
    const auto [panel, ldb] = panelAt(j);
    alignas(64) float biasTile[kNR];
    Epilogue ep{bias != nullptr ? bias + j : nullptr, act};
    if (cols < kNR && bias != nullptr) {
      std::copy_n(bias + j, cols, biasTile);
      std::fill(biasTile + cols, biasTile + kNR, 0.f);
      ep.bias = biasTile;
    }
    for (int i = i0; i < i1; i += kMR) {
      const int rows = std::min(kMR, i1 - i);
      const MicroKernelFn kernel = kMicroKernels[transA][rows - 1];
      const float* a = transA ? A + static_cast<std::size_t>(p0) * lda + i
                              : A + static_cast<std::size_t>(i) * lda + p0;
      kernel(kc, a, lda, panel, ldb, C + static_cast<std::size_t>(i) * n + j,
             n, cols, loadC, epilogue ? &ep : nullptr);
    }
  }
}

/// Whether a GEMM continues the chains already in C or overwrites C.
enum class GemmOut { kAccumulate, kOverwrite };

/// C[m,n] (+)= op(A) * op(B) with the optional fused epilogue, where op(A)
/// is A [m,k] or, when `transA`, the transpose of A stored [k,m], and op(B)
/// is B [k,n] or, when `transB`, the transpose of B stored [n,k]. Neither
/// transpose copies: the micro-kernel reads A either way, and packing B's
/// panels reads either layout. With kOverwrite the first k block starts its
/// chains from +0 and C is written before it is ever read, so C may hold
/// anything on entry.
void gemmF32(const float* A, bool transA, const float* B, bool transB,
             float* C, int m, int k, int n, const float* bias,
             FusedActivation act, GemmOut mode) {
  if (m == 0 || n == 0) return;
  const std::size_t lda = static_cast<std::size_t>(transA ? m : k);
  // Whether the first k block reads C; every later block continues it.
  const bool loadFirst = mode == GemmOut::kAccumulate;
  // Split along whichever axis yields more panels: row panels of kMC for
  // tall/square C, column panels of kNC when C is short and wide (e.g. the
  // [spatial, outC] GEMM of a 1x1 conv on a small image).
  const std::size_t rowPanels = (static_cast<std::size_t>(m) + kMC - 1) / kMC;
  const std::size_t colPanels = (static_cast<std::size_t>(n) + kNC - 1) / kNC;
  const auto forEachChunk = [&](auto&& body) {
    if (rowPanels >= colPanels) {
      ThreadPool::get().parallelFor(
          static_cast<std::size_t>(m), kMC,
          [&](std::size_t begin, std::size_t end) {
            body(static_cast<int>(begin), static_cast<int>(end), 0, n);
          });
    } else {
      ThreadPool::get().parallelFor(
          static_cast<std::size_t>(n), kNC,
          [&](std::size_t begin, std::size_t end) {
            body(0, m, static_cast<int>(begin), static_cast<int>(end));
          });
    }
  };

  if (m < kMR && !transB && k > 0) {
    // Fewer rows than one tile: packing B would cost as much as the GEMM
    // itself, so full panels read B in place (row stride n). Short k blocks
    // keep the reads streaming: each block sweeps kSmallKC rows of B left to
    // right. Only a partial last panel is packed (per block, on the stack),
    // so the kernel never reads past column n. (k == 0 takes the packed
    // path, whose one empty block offsets no operand pointer: an empty B
    // may be null.)
    const int fullEnd = n / kNR * kNR;
    forEachChunk([&](int i0, int i1, int j0, int j1) {
      alignas(64) float tail[kSmallKC * kNR];
      int p0 = 0;
      do {
        const int kc = std::min(kSmallKC, k - p0);
        if (j1 > fullEnd) {
          packB(B + fullEnd, false, static_cast<std::size_t>(n), n - fullEnd,
                p0, kc, tail);
        }
        runTiles(A, transA, lda, C, n, i0, i1, j0, j1, p0, kc, bias, act,
                 loadFirst || p0 > 0, p0 + kc == k,
                 [&](int j) -> std::pair<const float*, std::size_t> {
                   if (j >= fullEnd) return {tail, kNR};
                   return {B + static_cast<std::size_t>(p0) * n + j,
                           static_cast<std::size_t>(n)};
                 });
        p0 += kc;
      } while (p0 < k);
    });
    return;
  }

  // One packed kc-deep block of B at a time (at most kKC x nPad floats),
  // shared read-only by every chunk of that block. k == 0 still runs one
  // empty block so the epilogue applies.
  const int nPad = (n + kNR - 1) / kNR * kNR;
  std::vector<float> packed = core::BufferPool::get().acquire(
      static_cast<std::size_t>(std::min(k, kKC)) * nPad);
  int p0 = 0;
  do {
    const int kc = std::min(kKC, k - p0);
    packB(B, transB, static_cast<std::size_t>(transB ? k : n), n, p0, kc,
          packed.data());
    const bool last = p0 + kc == k;
    forEachChunk([&](int i0, int i1, int j0, int j1) {
      runTiles(A, transA, lda, C, n, i0, i1, j0, j1, p0, kc, bias, act,
               loadFirst || p0 > 0, last,
               [&](int j) -> std::pair<const float*, std::size_t> {
                 return {packed.data() + static_cast<std::size_t>(j) * kc,
                         kNR};
               });
    });
    p0 += kc;
  } while (p0 < k);
  core::BufferPool::get().release(std::move(packed));
}

// ----------------------------------------------------- im2col and depthwise

/// The filter columns [first, second) whose taps land inside the input row
/// for output column ox.
std::pair<int, int> tapRange(const Conv2DInfo& ci, int ox) {
  const int ix0 = ox * ci.strideW - ci.padLeft;
  const int lo = ix0 >= 0 ? 0 : (-ix0 + ci.dilationW - 1) / ci.dilationW;
  const int hi =
      ix0 >= ci.inW
          ? 0
          : std::min(ci.filterW, (ci.inW - 1 - ix0) / ci.dilationW + 1);
  return {lo, std::max(lo, hi)};
}

/// Depthwise taps of PX adjacent output pixels from column ox, filter
/// columns [fxLo, fxHi) (inside the input row for all PX pixels), CB
/// kLanes-channel blocks from channel c: the PX x CB accumulators stay in
/// registers across all taps, take `ep`'s epilogueTile there, and each
/// output vector is stored once. `xImg` is the batch image; `ep.bias`, when
/// non-null, is indexed by channel.
template <int PX, int CB>
void depthwiseGroup(const float* xImg, const float* f, const Conv2DInfo& ci,
                    int oy, int ox, int fxLo, int fxHi, int c,
                    const Epilogue& ep, float* oRow) {
  const std::ptrdiff_t C = ci.inC;
  Vec acc[PX][CB] = {};
  for (int fy = 0; fy < ci.filterH; ++fy) {
    const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
    if (iy < 0 || iy >= ci.inH) continue;
    const float* xRow = xImg + static_cast<std::ptrdiff_t>(iy) * ci.inW * C;
    const float* fRow = f + static_cast<std::ptrdiff_t>(fy) * ci.filterW * C;
    for (int fx = fxLo; fx < fxHi; ++fx) {
      Vec fv[CB];
      for (int b = 0; b < CB; ++b) {
        fv[b] = loadVec(fRow + fx * C + c + b * kLanes);
      }
      const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
      for (int p = 0; p < PX; ++p) {
        const float* xp = xRow + (ix + p * ci.strideW) * C + c;
        for (int b = 0; b < CB; ++b) {
          acc[p][b] += loadVec(xp + b * kLanes) * fv[b];
        }
      }
    }
  }
  epilogueTile(acc, ep.bias != nullptr ? ep.bias + c : nullptr, ep.act);
  for (int p = 0; p < PX; ++p) {
    for (int b = 0; b < CB; ++b) {
      storeVec(oRow + (ox + p) * C + c + b * kLanes, acc[p][b]);
    }
  }
}

/// Depthwise convolution with channelMult 1 over output rows [rBegin, rEnd)
/// of the batch×outH space. Per row, interior pixels (every fx tap inside
/// the input row) go 8, then 4, then 2 at a time; the rest, and pixels
/// whose taps reach into the padding, run one at a time over their
/// (clipped) tap range. Each group covers the pixels' whole vectors of
/// channels, two blocks at a time, then the channels past the last whole
/// vector one chain each. Every element is the chain acc = +0;
/// acc += x * f over its in-bounds taps in ascending (fy, fx) order — one
/// FMA per tap under this TU's contraction, the same chain the
/// accumulate-into-a-zeroed-output loop computes — so the grouping, the
/// channel tail and the partition cannot change a bit. The finished chain
/// takes `ep` (bias, then activation) before its one store: in registers
/// in the groups, by the scalar formulas in the tail.
void depthwiseRows(const float* x, const float* f, const Conv2DInfo& ci,
                   const Epilogue& ep, std::size_t rBegin, std::size_t rEnd,
                   float* out) {
  const int C = ci.inC;
  const std::size_t Cs = static_cast<std::size_t>(C);
  const int cVec = C / kLanes * kLanes;
  // Output columns [oxLo, oxHi) have every fx tap inside the input row.
  const int oxLo =
      std::min(ci.outW, (ci.padLeft + ci.strideW - 1) / ci.strideW);
  const int lastX = ci.inW - 1 - (ci.filterW - 1) * ci.dilationW + ci.padLeft;
  const int oxHi = std::max(
      oxLo, lastX < 0 ? 0 : std::min(ci.outW, lastX / ci.strideW + 1));
  for (std::size_t r = rBegin; r < rEnd; ++r) {
    const int b = static_cast<int>(r) / ci.outH;
    const int oy = static_cast<int>(r) % ci.outH;
    const float* xImg = x + static_cast<std::size_t>(b) * ci.inH * ci.inW * Cs;
    float* oRow = out + r * ci.outW * Cs;
    const auto pixels = [&]<int PX>(int ox, int fxLo, int fxHi) {
      int c = 0;
      for (; c + 2 * kLanes <= cVec; c += 2 * kLanes) {
        depthwiseGroup<PX, 2>(xImg, f, ci, oy, ox, fxLo, fxHi, c, ep, oRow);
      }
      if (c < cVec) {
        depthwiseGroup<PX, 1>(xImg, f, ci, oy, ox, fxLo, fxHi, c, ep, oRow);
      }
      for (int p = ox; p < ox + PX; ++p) {
        if (storedActivation(ep.act)) {
          float* o = oRow + p * Cs;
          for (c = 0; c < cVec; ++c) {
            o[c] = fusedEpilogue(o[c], ep.bias, static_cast<std::size_t>(c),
                                 ep.act);
          }
        }
        for (c = cVec; c < C; ++c) {
          float acc = 0.f;
          for (int fy = 0; fy < ci.filterH; ++fy) {
            const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
            if (iy < 0 || iy >= ci.inH) continue;
            for (int fx = fxLo; fx < fxHi; ++fx) {
              const int ix = p * ci.strideW - ci.padLeft + fx * ci.dilationW;
              acc += xImg[(static_cast<std::size_t>(iy) * ci.inW + ix) * Cs +
                          c] *
                     f[(static_cast<std::size_t>(fy) * ci.filterW + fx) * Cs +
                       c];
            }
          }
          oRow[p * Cs + c] =
              fusedEpilogue(acc, ep.bias, static_cast<std::size_t>(c), ep.act);
        }
      }
    };
    const auto edge = [&](int ox) {
      const auto [fxLo, fxHi] = tapRange(ci, ox);
      pixels.template operator()<1>(ox, fxLo, fxHi);
    };
    int ox = 0;
    for (; ox < oxLo; ++ox) edge(ox);
    for (; ox + 8 <= oxHi; ox += 8) {
      pixels.template operator()<8>(ox, 0, ci.filterW);
    }
    if (ox + 4 <= oxHi) {
      pixels.template operator()<4>(ox, 0, ci.filterW);
      ox += 4;
    }
    if (ox + 2 <= oxHi) {
      pixels.template operator()<2>(ox, 0, ci.filterW);
      ox += 2;
    }
    for (; ox < ci.outW; ++ox) edge(ox);
  }
}

// ---------------------------------------------------------------- backward

/// The output positions [first, second) of an axis whose tap at `offset`
/// (filter index times dilation) lands inside the input: 0 <= o * stride -
/// pad + offset < in, with o in [0, out).
std::pair<int, int> outputRange(int in, int out, int stride, int pad,
                                int offset) {
  const int lo =
      std::min(out, pad > offset ? (pad - offset + stride - 1) / stride : 0);
  const int last = in - 1 + pad - offset;
  const int hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// The input positions [first, second) of a pooling window starting at
/// output position o.
std::pair<int, int> windowRange(int o, int stride, int pad, int filter,
                                int in) {
  const int start = o * stride - pad;
  const int lo = std::max(0, start);
  return {lo, std::max(lo, std::min(in, start + filter))};
}

/// The inverse of im2col, accumulating: for output rows [oy0, oy1) of image
/// b, each output pixel's [filterH, filterW, inC] row of `dcol` adds into
/// the input pixels its in-bounds taps read, pixels in ascending (oy, ox)
/// order. Padding taps are dropped.
void col2imAdd(const float* __restrict dcol, const Conv2DInfo& ci,
               std::size_t b, int oy0, int oy1, float* __restrict dx) {
  const std::size_t C = static_cast<std::size_t>(ci.inC);
  const std::size_t rowLen = static_cast<std::size_t>(ci.filterW) * C;
  for (int oy = oy0; oy < oy1; ++oy) {
    for (int ox = 0; ox < ci.outW; ++ox) {
      const auto [fxLo, fxHi] = tapRange(ci, ox);
      const int ix0 = ox * ci.strideW - ci.padLeft;
      for (int fy = 0; fy < ci.filterH; ++fy, dcol += rowLen) {
        const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
        if (iy < 0 || iy >= ci.inH || fxLo == fxHi) continue;
        const std::size_t ix = static_cast<std::size_t>(ix0) +
                               fxLo * static_cast<std::size_t>(ci.dilationW);
        float* dst = dx + ((b * ci.inH + iy) * ci.inW + ix) * C;
        const float* src = dcol + fxLo * C;
        if (ci.dilationW == 1) {
          // Adjacent taps are adjacent pixels: one contiguous run.
          const std::size_t len = (fxHi - fxLo) * C;
          for (std::size_t i = 0; i < len; ++i) dst[i] += src[i];
        } else {
          for (int fx = fxLo; fx < fxHi; ++fx) {
            float* d = dst + (fx - fxLo) * ci.dilationW * C;
            const float* s = src + (fx - fxLo) * C;
            for (std::size_t c = 0; c < C; ++c) d[c] += s[c];
          }
        }
      }
    }
  }
}

}  // namespace

void NativeBackend::im2col(const float* x, const Conv2DInfo& ci,
                           std::size_t rBegin, std::size_t rEnd, float* col) {
  const std::size_t C = static_cast<std::size_t>(ci.inC);
  const std::size_t rowLen = static_cast<std::size_t>(ci.filterW) * C;
  const std::size_t patch = static_cast<std::size_t>(ci.filterH) * rowLen;
  // Each filter row of an output row reads one input row. Copied once into
  // a zero-bordered row of the `span` columns any tap reads, it gives every
  // pixel's taps at a fixed stride: one branch-free run per (pixel, fy)
  // even at the edges, which is what keeps thin (small inC) convs cheap.
  // SAME and VALID pad by less than the filter's extent, so the row
  // starts inside the span.
  const int span =
      (ci.outW - 1) * ci.strideW + (ci.filterW - 1) * ci.dilationW + 1;
  TFJS_CHECK(ci.padLeft < span);
  const int inCols = std::min(span - ci.padLeft, ci.inW);
  std::vector<float> padded =
      core::BufferPool::get().acquireFilled(static_cast<std::size_t>(span) * C,
                                            0.f);
  float* inRow = padded.data() + ci.padLeft * C;
  for (std::size_t r = rBegin; r < rEnd; ++r) {
    const std::size_t b = r / ci.outH;
    const int oy = static_cast<int>(r % ci.outH);
    float* out = col + (r - rBegin) * ci.outW * patch;
    for (int fy = 0; fy < ci.filterH; ++fy) {
      float* dst = out + fy * rowLen;
      const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
      if (iy < 0 || iy >= ci.inH) {
        for (int ox = 0; ox < ci.outW; ++ox) {
          copyRun(dst + ox * patch, nullptr, rowLen);
        }
        continue;
      }
      copyRun(inRow, x + (b * ci.inH + iy) * ci.inW * C, inCols * C);
      for (int ox = 0; ox < ci.outW; ++ox) {
        const float* src = padded.data() + ox * ci.strideW * C;
        if (ci.dilationW == 1) {
          // Adjacent taps are adjacent pixels: one contiguous run.
          copyRun(dst + ox * patch, src, rowLen);
        } else {
          for (int fx = 0; fx < ci.filterW; ++fx) {
            copyRun(dst + ox * patch + fx * C, src + fx * ci.dilationW * C, C);
          }
        }
      }
    }
  }
  core::BufferPool::get().release(std::move(padded));
}

void NativeBackend::gemm(const float* A, const float* B, float* C, int m,
                         int k, int n, const float* bias,
                         FusedActivation act) {
  gemmF32(A, false, B, false, C, m, k, n, bias, act, GemmOut::kAccumulate);
}

void NativeBackend::gemm(const float* A, const float* B, float* C, int m,
                         int k, int n) {
  gemmF32(A, false, B, false, C, m, k, n, nullptr, FusedActivation::kNone,
          GemmOut::kAccumulate);
}

namespace {
// One instruction of a region over a block of c elements, R[i] = op(A[i])
// or op(A[i], B[i]): a loop per op code, instantiated from the op's formula
// in backends/common/elementwise.h. R may be A or B itself (an in-place
// terminal), which a same-index loop reads before it writes.
using UnaryRowFn = void (*)(const float*, float*, std::size_t, float, float);
using BinaryRowFn = void (*)(const float*, const float*, float*,
                             std::size_t);

template <UnaryOp Op>
void unaryRow(const float* A, float* R, std::size_t c, float alpha,
              float beta) {
  for (std::size_t i = 0; i < c; ++i) R[i] = unaryOf<Op>(A[i], alpha, beta);
}

template <BinaryOp Op>
void binaryRow(const float* A, const float* B, float* R, std::size_t c) {
  for (std::size_t i = 0; i < c; ++i) R[i] = binaryOf<Op>(A[i], B[i]);
}

template <std::size_t... I>
constexpr std::array<UnaryRowFn, sizeof...(I)> unaryRows(
    std::index_sequence<I...>) {
  return {&unaryRow<static_cast<UnaryOp>(I)>...};
}
template <std::size_t... I>
constexpr std::array<BinaryRowFn, sizeof...(I)> binaryRows(
    std::index_sequence<I...>) {
  return {&binaryRow<static_cast<BinaryOp>(I)>...};
}
/// Indexed by the UnaryOp / BinaryOp code.
constexpr auto kUnaryRows = unaryRows(std::make_index_sequence<kNumUnaryOps>{});
constexpr auto kBinaryRows =
    binaryRows(std::make_index_sequence<kNumBinaryOps>{});
}  // namespace

DataId NativeBackend::fusedRegion(std::span<const RegionInstr> instrs,
                                  std::span<const TensorSpec> inputs,
                                  const Shape& outShape, DataId dst) {
  if (instrs.empty()) throw BackendError("fusedRegion: empty program");
  for (const RegionInstr& si : instrs) {
    const int codes = si.kind == RegionInstr::Kind::kUnary    ? kNumUnaryOps
                      : si.kind == RegionInstr::Kind::kBinary ? kNumBinaryOps
                                                              : 0;
    if (codes != 0 && (si.op < 0 || si.op >= codes)) {
      throw InternalError("fusedRegion: unhandled op code");
    }
  }
  KernelTimer t(kernelMs_, "native.fusedRegion");
  const std::size_t n = outShape.size();
  // In place, each block only overwrites indices it has already read.
  RegionIO io = regionIO(inputs, outShape, dst);
  const auto& ins = io.ins;
  float* o = io.out;

  // Strip-mined interpretation: each block resolves every input to a row
  // pointer (dense inputs, and long suffixes within one repeat, alias
  // backing storage directly — zero copies), then every instruction runs
  // as a dense loop over the block, non-terminal results landing in
  // L1-resident scratch rows and the terminal storing straight into the
  // output. Per-element op order is the program order either way, so
  // blocking (and the fixed parallel partition) cannot change a single bit.
  constexpr std::size_t kBlock = 512;
  const std::size_t numInstrs = instrs.size();
  const std::size_t numIns = inputs.size();
  // A lone instruction over dense inputs (the common standalone unary or
  // binary) needs no scratch rows, so each chunk runs as one long block.
  const bool allDense =
      std::all_of(ins.begin(), ins.end(), [](const RegionIO::In& in) {
        return in.mode == RegionAccess::kDense;
      });
  const std::size_t block = numInstrs == 1 && allDense ? kElemGrain : kBlock;
  ThreadPool::get().parallelFor(
      n, kElemGrain, [&](std::size_t begin, std::size_t end) {
        // Reused per-thread scratch: a two-block row per input (room for a
        // replicated suffix row) plus one block per non-terminal
        // instruction. resize() only pays on first growth, not per chunk.
        static thread_local std::vector<float> scratch;
        static thread_local std::vector<const float*> rowPtr;
        const std::size_t need = (2 * numIns + numInstrs) * kBlock;
        if (scratch.size() < need) scratch.resize(need);
        if (rowPtr.size() < numIns) rowPtr.resize(numIns);
        float* inRows = scratch.data();
        float* valRows = scratch.data() + 2 * numIns * kBlock;
        std::vector<int> coords(
            io.anyGeneric ? static_cast<std::size_t>(outShape.rank()) : 0);
        // Once per chunk: a scalar fills one row, and a suffix no longer
        // than a block is replicated span by span into a row of
        // `rowLen + span` floats, so every block below just points at
        // `row + b0 % span` instead of re-filling a wrapped copy.
        const std::size_t rowLen = std::min(kBlock, end - begin);
        for (std::size_t j = 0; j < numIns; ++j) {
          const RegionIO::In& in = ins[j];
          float* r = inRows + 2 * j * kBlock;
          if (in.mode == RegionAccess::kScalar) {
            std::fill(r, r + rowLen, in.p[0]);
            rowPtr[j] = r;
          } else if (in.mode == RegionAccess::kSuffix && in.span <= kBlock) {
            const std::size_t len = rowLen + in.span;
            for (std::size_t i = 0; i < len; i += in.span) {
              std::copy_n(in.p, std::min(in.span, len - i), r + i);
            }
          }
        }
        for (std::size_t b0 = begin; b0 < end; b0 += block) {
          const std::size_t c = std::min(block, end - b0);
          for (std::size_t j = 0; j < numIns; ++j) {
            const RegionIO::In& in = ins[j];
            float* r = inRows + 2 * j * kBlock;
            switch (in.mode) {
              case RegionAccess::kDense:
                rowPtr[j] = in.p + b0;
                break;
              case RegionAccess::kScalar:
                break;  // prefilled above
              case RegionAccess::kSuffix: {
                const std::size_t off = b0 % in.span;
                if (in.span <= kBlock) {
                  rowPtr[j] = r + off;  // into the replicated row
                } else if (off + c <= in.span) {
                  rowPtr[j] = in.p + off;  // block within one repeat
                } else {
                  // A span longer than the block wraps at most once.
                  const std::size_t head = in.span - off;
                  std::copy_n(in.p + off, head, r);
                  std::copy_n(in.p, c - head, r + head);
                  rowPtr[j] = r;
                }
                break;
              }
              case RegionAccess::kGeneric:
                for (std::size_t i = 0; i < c; ++i) {
                  util::unravelIndex(b0 + i, outShape, coords);
                  r[i] = in.p[util::broadcastIndex(coords, *in.shape,
                                                   outShape)];
                }
                rowPtr[j] = r;
                break;
            }
          }
          const auto row = [&](int r) {
            return r < 0 ? rowPtr[static_cast<std::size_t>(-1 - r)]
                         : static_cast<const float*>(
                               valRows + static_cast<std::size_t>(r) * kBlock);
          };
          for (std::size_t k = 0; k < numInstrs; ++k) {
            const RegionInstr& si = instrs[k];
            const float* A = row(si.a);
            // The terminal (nothing ever references it) stores straight to
            // the output; everything else lands in its scratch row.
            float* R = k + 1 == numInstrs ? o + b0 : valRows + k * kBlock;
            switch (si.kind) {
              case RegionInstr::Kind::kUnary:
                kUnaryRows[static_cast<std::size_t>(si.op)](A, R, c, si.alpha,
                                                            si.beta);
                break;
              case RegionInstr::Kind::kBinary:
                kBinaryRows[static_cast<std::size_t>(si.op)](A, row(si.b), R,
                                                             c);
                break;
              case RegionInstr::Kind::kSelect: {
                const float* B = row(si.b);
                const float* C = row(si.c);
                for (std::size_t i = 0; i < c; ++i) {
                  R[i] = A[i] != 0 ? B[i] : C[i];
                }
                break;
              }
            }
          }
        }
      });
  return finishRegion(io);
}

DataId NativeBackend::matMul(const TensorSpec& a, const TensorSpec& b,
                             bool transposeA, bool transposeB,
                             const TensorSpec* bias, FusedActivation act) {
  if (b.quant != nullptr) {
    return int8MatMul(a, b, transposeA, transposeB, bias, act);
  }
  KernelTimer t(kernelMs_, "native.matMul");
  const float* biasv = bias != nullptr ? buf(bias->id).data() : nullptr;
  const int bA = a.shape[0], bB = b.shape[0];
  const int m = transposeA ? a.shape[2] : a.shape[1];
  const int k = transposeA ? a.shape[1] : a.shape[2];
  const int n = transposeB ? b.shape[1] : b.shape[2];
  const int batch = std::max(bA, bB);
  const auto& av = buf(a.id);
  const auto& bv = buf(b.id);
  // Every element is written by its GEMM's first k block: no zero-fill.
  std::vector<float> out =
      allocBuffer(static_cast<std::size_t>(batch) * m * n);

  // Neither transposed operand is copied (gemmF32 reads both layouts). The
  // batch loop stays serial; each per-batch GEMM fans out on the pool.
  for (int bi = 0; bi < batch; ++bi) {
    const float* A =
        av.data() + static_cast<std::size_t>(bA == 1 ? 0 : bi) * m * k;
    const float* B =
        bv.data() + static_cast<std::size_t>(bB == 1 ? 0 : bi) * k * n;
    gemmF32(A, transposeA, B, transposeB,
            out.data() + static_cast<std::size_t>(bi) * m * n, m, k, n, biasv,
            act, GemmOut::kOverwrite);
  }
  return store(std::move(out));
}

DataId NativeBackend::conv2d(const TensorSpec& x, const TensorSpec& filter,
                             const Conv2DInfo& ci, const TensorSpec* bias,
                             FusedActivation act) {
  if (filter.quant != nullptr) return int8Conv2d(x, filter, ci, bias, act);
  KernelTimer t(kernelMs_, "native.conv2d");
  const float* biasv = bias != nullptr ? buf(bias->id).data() : nullptr;
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const std::size_t outSpatial =
      static_cast<std::size_t>(ci.outH) * ci.outW;
  const std::size_t patch =
      static_cast<std::size_t>(ci.filterH) * ci.filterW * ci.inC;
  // Both paths below overwrite every output element: no zero-fill.
  std::vector<float> out = allocBuffer(static_cast<std::size_t>(ci.batch) *
                                       outSpatial * ci.outC);

  if (ci.filterH == 1 && ci.filterW == 1 && ci.strideH == 1 &&
      ci.strideW == 1 && ci.padTop == 0 && ci.padLeft == 0) {
    // 1x1 convolution IS a GEMM over [spatial, inC] x [inC, outC] — the
    // dominant op in MobileNet. Input and output are contiguous across the
    // batch, so all batches fold into one [batch*spatial, inC] GEMM whose
    // row panels parallelise across the pool.
    gemmF32(xv.data(), false, fv.data(), false, out.data(),
            static_cast<int>(static_cast<std::size_t>(ci.batch) * outSpatial),
            ci.inC, ci.outC, biasv, act, GemmOut::kOverwrite);
    return store(std::move(out));
  }

  // General path: im2col + GEMM, sliced over the batch×outH row space. Each
  // chunk packs its own rows into a private col buffer and runs the GEMM
  // core on them (nested parallelFor runs inline on the worker). Per-element
  // accumulation order matches the serial im2col+GEMM exactly.
  const std::size_t totalRows = static_cast<std::size_t>(ci.batch) * ci.outH;
  const std::size_t grain =
      rowsPerChunk(static_cast<std::size_t>(ci.outW) * patch, 1 << 16);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        // Per-chunk im2col scratch comes from the pool too (it is by far
        // the heaviest transient allocation in a conv-heavy model).
        std::vector<float> col = core::BufferPool::get().acquire(
            (rEnd - rBegin) * ci.outW * patch);
        im2col(xv.data(), ci, rBegin, rEnd, col.data());
        gemmF32(col.data(), false, fv.data(), false,
                out.data() + rBegin * ci.outW * ci.outC,
                static_cast<int>((rEnd - rBegin) * ci.outW),
                static_cast<int>(patch), ci.outC, biasv, act,
                GemmOut::kOverwrite);
        core::BufferPool::get().release(std::move(col));
      });
  return store(std::move(out));
}

DataId NativeBackend::depthwiseConv2d(const TensorSpec& x,
                                      const TensorSpec& filter,
                                      const Conv2DInfo& ci,
                                      const TensorSpec* bias,
                                      FusedActivation act) {
  KernelTimer t(kernelMs_, "native.depthwiseConv2d");
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const Epilogue ep{bias != nullptr ? buf(bias->id).data() : nullptr, act};
  const int mult = ci.channelMult;
  const std::size_t outSize =
      static_cast<std::size_t>(ci.batch) * ci.outH * ci.outW * ci.outC;
  // Sliced over batch×outH output rows.
  const std::size_t totalRows = static_cast<std::size_t>(ci.batch) * ci.outH;
  const std::size_t grain = rowsPerChunk(
      static_cast<std::size_t>(ci.outW) * ci.filterH * ci.filterW * ci.inC *
          mult,
      1 << 14);
  if (mult == 1) {
    std::vector<float> out = allocBuffer(outSize);
    ThreadPool::get().parallelFor(
        totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
          depthwiseRows(xv.data(), fv.data(), ci, ep, rBegin, rEnd,
                        out.data());
        });
    return store(std::move(out));
  }
  // channelMult > 1: accumulate every tap into the zeroed output, channels
  // innermost (contiguous in NHWC, so the loop autovectorizes) — per element
  // the same +0-seeded, ascending-(fy, fx) chain as depthwiseRows — then
  // run the epilogue over each finished pixel.
  std::vector<float> out = allocZeroed(outSize);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        for (std::size_t r = rBegin; r < rEnd; ++r) {
          const int b = static_cast<int>(r) / ci.outH;
          const int oy = static_cast<int>(r) % ci.outH;
          for (int ox = 0; ox < ci.outW; ++ox) {
            float* __restrict oRow =
                out.data() + (r * ci.outW + ox) * ci.outC;
            for (int fy = 0; fy < ci.filterH; ++fy) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              if (iy < 0 || iy >= ci.inH) continue;
              for (int fx = 0; fx < ci.filterW; ++fx) {
                const int ix =
                    ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                if (ix < 0 || ix >= ci.inW) continue;
                const float* __restrict xRow =
                    xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                     ci.inW +
                                 ix) *
                                    ci.inC;
                const float* __restrict fRow =
                    fv.data() +
                    (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                        ci.inC * mult;
                for (int ic = 0; ic < ci.inC; ++ic) {
                  for (int q = 0; q < mult; ++q) {
                    oRow[ic * mult + q] += xRow[ic] * fRow[ic * mult + q];
                  }
                }
              }
            }
            if (ep.bias != nullptr || act != FusedActivation::kNone) {
              for (int c = 0; c < ci.outC; ++c) {
                oRow[c] = fusedEpilogue(oRow[c], ep.bias,
                                        static_cast<std::size_t>(c), act);
              }
            }
          }
        }
      });
  return store(std::move(out));
}

DataId NativeBackend::pool2d(PoolMode mode, const TensorSpec& x,
                             const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_, "native.pool2d");
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const auto& xv = buf(x.id);
  const std::size_t C = static_cast<std::size_t>(pi.channels);
  std::vector<float> out = allocBuffer(static_cast<std::size_t>(pi.batch) *
                                       pi.outH * pi.outW * C);
  const bool isMax = mode == PoolMode::kMax;
  // Sliced over batch×outH output rows. Each window folds its in-bounds
  // taps, in RefBackend's (fy, fx) order, into the output pixel's channel
  // row as dense loops: max as std::max's `acc < v ? v : acc` (NaN never
  // replaces acc, and an all -inf or empty window stays -inf), avg as a sum
  // divided by the in-bounds count — RefBackend's formulas per element.
  const std::size_t totalRows = static_cast<std::size_t>(pi.batch) * pi.outH;
  const std::size_t grain = rowsPerChunk(
      static_cast<std::size_t>(pi.outW) * C * pi.filterH * pi.filterW,
      1 << 14);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        for (std::size_t r = rBegin; r < rEnd; ++r) {
          const std::size_t b = r / pi.outH;
          const int oy = static_cast<int>(r % pi.outH);
          const float* xImg =
              xv.data() + b * pi.inH * static_cast<std::size_t>(pi.inW) * C;
          const auto [yLo, yHi] =
              windowRange(oy, pi.strideH, pi.padTop, pi.filterH, pi.inH);
          for (int ox = 0; ox < pi.outW; ++ox) {
            const auto [xLo, xHi] =
                windowRange(ox, pi.strideW, pi.padLeft, pi.filterW, pi.inW);
            float* __restrict o = out.data() + (r * pi.outW + ox) * C;
            std::fill_n(o, C, isMax ? -kInf : 0.f);
            for (int iy = yLo; iy < yHi; ++iy) {
              for (int ix = xLo; ix < xHi; ++ix) {
                const float* __restrict xp =
                    xImg + (static_cast<std::size_t>(iy) * pi.inW + ix) * C;
                if (isMax) {
                  for (std::size_t c = 0; c < C; ++c) {
                    o[c] = o[c] < xp[c] ? xp[c] : o[c];
                  }
                } else {
                  for (std::size_t c = 0; c < C; ++c) o[c] += xp[c];
                }
              }
            }
            if (!isMax) {
              const int count = std::max((yHi - yLo) * (xHi - xLo), 1);
              for (std::size_t c = 0; c < C; ++c) o[c] = o[c] / count;
            }
          }
        }
      });
  return store(std::move(out));
}

DataId NativeBackend::conv2dBackpropInput(const TensorSpec& dy,
                                          const TensorSpec& filter,
                                          const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_, "native.conv2dBackpropInput");
  const auto& dyv = buf(dy.id);
  const auto& fv = buf(filter.id);
  const std::size_t patch =
      static_cast<std::size_t>(ci.filterH) * ci.filterW * ci.inC;
  const std::size_t outC = static_cast<std::size_t>(ci.outC);
  std::vector<float> dx = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                      ci.inH * ci.inW * ci.inC);
  // One chunk per image (images write disjoint parts of dX); within an
  // image, fixed chunks of output rows bound the dcol scratch.
  const int rowsPer = static_cast<int>(std::min<std::size_t>(
      ci.outH, rowsPerChunk(static_cast<std::size_t>(ci.outW) * patch,
                            1 << 16)));
  ThreadPool::get().parallelFor(
      static_cast<std::size_t>(ci.batch), 1,
      [&](std::size_t bBegin, std::size_t bEnd) {
        std::vector<float> dcol = core::BufferPool::get().acquire(
            static_cast<std::size_t>(rowsPer) * ci.outW * patch);
        for (std::size_t b = bBegin; b < bEnd; ++b) {
          for (int oy0 = 0; oy0 < ci.outH; oy0 += rowsPer) {
            const int oy1 = std::min(ci.outH, oy0 + rowsPer);
            const std::size_t pixels =
                static_cast<std::size_t>(oy1 - oy0) * ci.outW;
            std::fill_n(dcol.data(), pixels * patch, 0.f);
            // dcol = dy · Wᵀ: W is stored [patch, outC], read transposed.
            gemmF32(dyv.data() + ((b * ci.outH + oy0) * ci.outW) * outC,
                    false, fv.data(), /*transB=*/true, dcol.data(),
                    static_cast<int>(pixels), ci.outC,
                    static_cast<int>(patch), nullptr, FusedActivation::kNone,
                    GemmOut::kAccumulate);
            col2imAdd(dcol.data(), ci, b, oy0, oy1, dx.data());
          }
        }
        core::BufferPool::get().release(std::move(dcol));
      });
  return store(std::move(dx));
}

DataId NativeBackend::conv2dBackpropFilter(const TensorSpec& x,
                                           const TensorSpec& dy,
                                           const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_, "native.conv2dBackpropFilter");
  const auto& xv = buf(x.id);
  const auto& dyv = buf(dy.id);
  const std::size_t patch =
      static_cast<std::size_t>(ci.filterH) * ci.filterW * ci.inC;
  const std::size_t outC = static_cast<std::size_t>(ci.outC);
  const std::size_t outW = static_cast<std::size_t>(ci.outW);
  const std::size_t totalRows = static_cast<std::size_t>(ci.batch) * ci.outH;
  const std::size_t grain =
      std::min(totalRows, rowsPerChunk(outW * patch, 1 << 16));
  // dW [patch, outC] += colᵀ · dy, one chunk of output rows after another:
  // each GEMM reads its col chunk transposed in place and continues the
  // chains the previous chunk left in dW, so the chunking never changes a
  // bit. The reduction runs serially; each chunk's GEMM fans out over its
  // own panels.
  std::vector<float> dw = allocZeroed(patch * outC);
  std::vector<float> col =
      core::BufferPool::get().acquire(grain * outW * patch);
  for (std::size_t r0 = 0; r0 < totalRows; r0 += grain) {
    const std::size_t r1 = std::min(totalRows, r0 + grain);
    const std::size_t pixels = (r1 - r0) * outW;
    im2col(xv.data(), ci, r0, r1, col.data());
    gemmF32(col.data(), /*transA=*/true, dyv.data() + r0 * outW * outC, false,
            dw.data(), static_cast<int>(patch), static_cast<int>(pixels),
            ci.outC, nullptr, FusedActivation::kNone, GemmOut::kAccumulate);
  }
  core::BufferPool::get().release(std::move(col));
  return store(std::move(dw));
}

DataId NativeBackend::depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                                   const TensorSpec& filter,
                                                   const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_, "native.depthwiseConv2dBackpropInput");
  const auto& dyv = buf(dy.id);
  const auto& fv = buf(filter.id);
  const int mult = ci.channelMult;
  const std::size_t C = static_cast<std::size_t>(ci.inC);
  const std::size_t outC = static_cast<std::size_t>(ci.outC);
  const std::size_t taps = static_cast<std::size_t>(ci.filterH) * ci.filterW;
  const std::size_t dxSize =
      static_cast<std::size_t>(ci.batch) * ci.inH * ci.inW * C;
  // Sliced over batch×inH input rows; each row is gathered whole.
  const std::size_t totalRows = static_cast<std::size_t>(ci.batch) * ci.inH;
  const std::size_t grain = rowsPerChunk(
      static_cast<std::size_t>(ci.inW) * taps * outC, 1 << 14);
  // Per input row, filter rows in descending fy (ascending oy), then per
  // pixel filter columns in descending fx (ascending ox), each contribution
  // a dense loop over channels.
  std::vector<float> dx = allocZeroed(dxSize);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        for (std::size_t r = rBegin; r < rEnd; ++r) {
          const std::size_t b = r / ci.inH;
          const int iy = static_cast<int>(r % ci.inH);
          for (int fy = ci.filterH - 1; fy >= 0; --fy) {
            const int ty = iy + ci.padTop - fy * ci.dilationH;
            if (ty < 0 || ty % ci.strideH != 0 || ty / ci.strideH >= ci.outH) {
              continue;
            }
            const float* gRow =
                dyv.data() + (b * ci.outH + ty / ci.strideH) * ci.outW * outC;
            const float* wRow = fv.data() + fy * ci.filterW * outC;
            for (int ix = 0; ix < ci.inW; ++ix) {
              float* __restrict d = dx.data() + (r * ci.inW + ix) * C;
              for (int fx = ci.filterW - 1; fx >= 0; --fx) {
                const int tx = ix + ci.padLeft - fx * ci.dilationW;
                if (tx < 0 || tx % ci.strideW != 0 ||
                    tx / ci.strideW >= ci.outW) {
                  continue;
                }
                const float* __restrict g = gRow + tx / ci.strideW * outC;
                const float* __restrict w = wRow + fx * outC;
                if (mult == 1) {
                  for (std::size_t c = 0; c < C; ++c) d[c] += g[c] * w[c];
                } else {
                  for (std::size_t c = 0; c < C; ++c) {
                    for (int q = 0; q < mult; ++q) {
                      d[c] += g[c * mult + q] * w[c * mult + q];
                    }
                  }
                }
              }
            }
          }
        }
      });
  return store(std::move(dx));
}

DataId NativeBackend::depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                                    const TensorSpec& dy,
                                                    const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_, "native.depthwiseConv2dBackpropFilter");
  const auto& xv = buf(x.id);
  const auto& dyv = buf(dy.id);
  const int mult = ci.channelMult;
  const std::size_t C = static_cast<std::size_t>(ci.inC);
  const std::size_t outC = static_cast<std::size_t>(ci.outC);
  const std::size_t taps = static_cast<std::size_t>(ci.filterH) * ci.filterW;
  std::vector<float> df = allocZeroed(taps * outC);
  // One chunk per filter tap: every tap's chains run over the whole batch in
  // ascending (b, oy, ox), each contribution a dense loop over channels.
  ThreadPool::get().parallelFor(
      taps, 1, [&](std::size_t tBegin, std::size_t tEnd) {
        for (std::size_t tap = tBegin; tap < tEnd; ++tap) {
          const int fy = static_cast<int>(tap) / ci.filterW;
          const int fx = static_cast<int>(tap) % ci.filterW;
          const auto [oxLo, oxHi] = outputRange(
              ci.inW, ci.outW, ci.strideW, ci.padLeft, fx * ci.dilationW);
          if (oxLo == oxHi) continue;  // the tap never lands in the input
          float* __restrict dfRow = df.data() + tap * outC;
          for (int b = 0; b < ci.batch; ++b) {
            for (int oy = 0; oy < ci.outH; ++oy) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              if (iy < 0 || iy >= ci.inH) continue;
              for (int ox = oxLo; ox < oxHi; ++ox) {
                const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                const float* __restrict xp =
                    xv.data() +
                    ((static_cast<std::size_t>(b) * ci.inH + iy) * ci.inW +
                     ix) *
                        C;
                const float* __restrict gp =
                    dyv.data() +
                    ((static_cast<std::size_t>(b) * ci.outH + oy) * ci.outW +
                     ox) *
                        outC;
                if (mult == 1) {
                  for (std::size_t c = 0; c < C; ++c) dfRow[c] += xp[c] * gp[c];
                } else {
                  for (std::size_t c = 0; c < C; ++c) {
                    for (int q = 0; q < mult; ++q) {
                      dfRow[c * mult + q] += xp[c] * gp[c * mult + q];
                    }
                  }
                }
              }
            }
          }
        }
      });
  return store(std::move(df));
}

DataId NativeBackend::maxPoolBackprop(const TensorSpec& dy,
                                      const TensorSpec& x,
                                      const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_, "native.maxPoolBackprop");
  using IVec =
      std::int32_t __attribute__((vector_size(kLanes * sizeof(std::int32_t))));
  const auto& dyv = buf(dy.id);
  const auto& xv = buf(x.id);
  const std::size_t C = static_cast<std::size_t>(pi.channels);
  const std::size_t inImage = static_cast<std::size_t>(pi.inH) * pi.inW * C;
  // When the windows neither overlap nor miss a cell (filter <= stride,
  // and their clipped extents add up to the input's), every dX element
  // gets exactly one contribution: RefBackend's +0 + dy at the argmax tap
  // (which turns a -0 gradient into +0), +0 at the others. Those are
  // written once, with no zero-fill and no read-back.
  const auto covered = [](int outN, int stride, int pad, int filter, int in) {
    int cells = 0;
    for (int o = 0; o < outN; ++o) {
      const auto [lo, hi] = windowRange(o, stride, pad, filter, in);
      cells += hi - lo;
    }
    return filter <= stride && cells == in;
  };
  const bool tiled =
      covered(pi.outH, pi.strideH, pi.padTop, pi.filterH, pi.inH) &&
      covered(pi.outW, pi.strideW, pi.padLeft, pi.filterW, pi.inW);
  const std::size_t total = static_cast<std::size_t>(pi.batch) * inImage;
  std::vector<float> dx = tiled ? allocBuffer(total) : allocZeroed(total);
  // One chunk per image: windows overlap only within an image, and each
  // image's windows run in RefBackend's (oy, ox) order.
  ThreadPool::get().parallelFor(
      static_cast<std::size_t>(pi.batch), 1,
      [&](std::size_t bBegin, std::size_t bEnd) {
        std::vector<std::size_t> tapOffset(
            static_cast<std::size_t>(pi.filterH) * pi.filterW);
        for (std::size_t b = bBegin; b < bEnd; ++b) {
          const float* xImg = xv.data() + b * inImage;
          float* dxImg = dx.data() + b * inImage;
          const float* g = dyv.data() + b * pi.outH * pi.outW * C;
          for (int oy = 0; oy < pi.outH; ++oy) {
            const auto [yLo, yHi] =
                windowRange(oy, pi.strideH, pi.padTop, pi.filterH, pi.inH);
            for (int ox = 0; ox < pi.outW; ++ox, g += C) {
              const auto [xLo, xHi] =
                  windowRange(ox, pi.strideW, pi.padLeft, pi.filterW, pi.inW);
              std::int32_t taps = 0;
              for (int iy = yLo; iy < yHi; ++iy) {
                for (int ix = xLo; ix < xHi; ++ix) {
                  tapOffset[static_cast<std::size_t>(taps++)] =
                      (static_cast<std::size_t>(iy) * pi.inW + ix) * C;
                }
              }
              // A vector of channels at a time, its best value and argmax
              // tap held in registers. The first strictly greater value
              // wins, taps in (fy, fx) order: NaN never compares greater,
              // and an all -inf window keeps arg -1 and routes nothing.
              for (std::size_t c0 = 0; c0 < C; c0 += kLanes) {
                const int lanes =
                    static_cast<int>(std::min<std::size_t>(kLanes, C - c0));
                Vec best = Vec{} - std::numeric_limits<float>::infinity();
                IVec arg = IVec{} - 1;
                for (std::int32_t tap = 0; tap < taps; ++tap) {
                  const Vec v = loadLanes(xImg + tapOffset[tap] + c0, lanes);
                  const IVec gt = v > best;
                  best = gt ? v : best;
                  arg = gt ? IVec{} + tap : arg;
                }
                const Vec gv = loadLanes(g + c0, lanes);
                const Vec routed = tiled ? Vec{} + gv : gv;
                for (std::int32_t tap = 0; tap < taps; ++tap) {
                  float* d = dxImg + tapOffset[tap] + c0;
                  Vec v = arg == IVec{} + tap ? routed : Vec{};
                  // Overlapping windows add dy, or +0 (which leaves dX as
                  // it is: it starts at +0 and is never -0), in order.
                  if (!tiled) v = loadLanes(d, lanes) + v;
                  if (lanes == kLanes) {
                    storeVec(d, v);
                  } else {
                    storePartial(d, v, lanes);
                  }
                }
              }
            }
          }
        }
      });
  return store(std::move(dx));
}

DataId NativeBackend::avgPoolBackprop(const TensorSpec& dy,
                                      const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_, "native.avgPoolBackprop");
  const auto& dyv = buf(dy.id);
  const std::size_t C = static_cast<std::size_t>(pi.channels);
  const std::size_t inImage = static_cast<std::size_t>(pi.inH) * pi.inW * C;
  std::vector<float> dx =
      allocZeroed(static_cast<std::size_t>(pi.batch) * inImage);
  // Partitioned by image, as maxPoolBackprop.
  ThreadPool::get().parallelFor(
      static_cast<std::size_t>(pi.batch), 1,
      [&](std::size_t bBegin, std::size_t bEnd) {
        std::vector<float> shareRow(C);
        float* __restrict share = shareRow.data();
        for (std::size_t b = bBegin; b < bEnd; ++b) {
          float* dxImg = dx.data() + b * inImage;
          const float* g = dyv.data() + b * pi.outH * pi.outW * C;
          for (int oy = 0; oy < pi.outH; ++oy) {
            const auto [yLo, yHi] =
                windowRange(oy, pi.strideH, pi.padTop, pi.filterH, pi.inH);
            for (int ox = 0; ox < pi.outW; ++ox, g += C) {
              const auto [xLo, xHi] =
                  windowRange(ox, pi.strideW, pi.padLeft, pi.filterW, pi.inW);
              // The in-bounds cell count: the forward average's divisor.
              const int count = (yHi - yLo) * (xHi - xLo);
              if (count == 0) continue;
              for (std::size_t c = 0; c < C; ++c) {
                share[c] = g[c] / static_cast<float>(count);
              }
              for (int iy = yLo; iy < yHi; ++iy) {
                for (int ix = xLo; ix < xHi; ++ix) {
                  float* __restrict d =
                      dxImg + (static_cast<std::size_t>(iy) * pi.inW + ix) * C;
                  for (std::size_t c = 0; c < C; ++c) d[c] += share[c];
                }
              }
            }
          }
        }
      });
  return store(std::move(dx));
}

DataId NativeBackend::reduce(ReduceOp op, const TensorSpec& x,
                             std::size_t outer, std::size_t n,
                             std::size_t inner) {
  KernelTimer t(kernelMs_, "native.reduce");
  if (op != ReduceOp::kSum && op != ReduceOp::kMean) {
    return RefBackend::reduce(op, x, outer, n, inner);
  }
  const auto& xv = buf(x.id);
  std::vector<float> out = allocBuffer(outer * inner);
  const float count = static_cast<float>(n);
  // Every output element is one chain over the middle index i, split over
  // four accumulators by i mod 4 (which breaks the dependency chain), then
  // summed acc0 + acc1 + acc2 + acc3 and finished with the tail in order.
  // The parallel partition only groups whole outputs, so the result is
  // bitwise the same at any thread count.
  if (inner == 1) {
    // Row sums, parallel over rows.
    ThreadPool::get().parallelFor(
        outer, rowsPerChunk(n, 1 << 14),
        [&](std::size_t oBegin, std::size_t oEnd) {
          for (std::size_t o = oBegin; o < oEnd; ++o) {
            const float* __restrict row = xv.data() + o * n;
            float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
            std::size_t i = 0;
            for (; i + 4 <= n; i += 4) {
              acc0 += row[i];
              acc1 += row[i + 1];
              acc2 += row[i + 2];
              acc3 += row[i + 3];
            }
            float acc = acc0 + acc1 + acc2 + acc3;
            for (; i < n; ++i) acc += row[i];
            out[o] = op == ReduceOp::kMean ? acc / count : acc;
          }
        });
    return store(std::move(out));
  }
  // Column sums: the same split per lane, a vector of kLanes adjacent
  // columns at a time, parallel over (outer row, column block) units.
  const std::size_t blocks = (inner + kLanes - 1) / kLanes;
  ThreadPool::get().parallelFor(
      outer * blocks, rowsPerChunk(n * kLanes, 1 << 14),
      [&](std::size_t uBegin, std::size_t uEnd) {
        for (std::size_t u = uBegin; u < uEnd; ++u) {
          const std::size_t o = u / blocks, j = u % blocks * kLanes;
          const int lanes =
              static_cast<int>(std::min<std::size_t>(kLanes, inner - j));
          const float* col = xv.data() + o * n * inner + j;
          const auto sum = [&](auto load) {
            Vec acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
            std::size_t i = 0;
            for (; i + 4 <= n; i += 4) {
              acc0 += load(col + i * inner);
              acc1 += load(col + (i + 1) * inner);
              acc2 += load(col + (i + 2) * inner);
              acc3 += load(col + (i + 3) * inner);
            }
            Vec acc = acc0 + acc1 + acc2 + acc3;
            for (; i < n; ++i) acc += load(col + i * inner);
            return op == ReduceOp::kMean ? acc / count : acc;
          };
          float* dst = out.data() + o * inner + j;
          if (lanes == kLanes) {
            storeVec(dst, sum([](const float* p) { return loadVec(p); }));
          } else {
            storePartial(dst,
                         sum([lanes](const float* p) {
                           return loadPartial(p, lanes);
                         }),
                         lanes);
          }
        }
      });
  return store(std::move(out));
}

void registerBackend() {
  Engine::get().registerBackend(
      "native", [] { return std::make_unique<NativeBackend>(); },
      /*priority=*/2);
}

}  // namespace tfjs::backends::native
