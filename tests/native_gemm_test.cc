// Bitwise oracle for the native f32 GEMM and everything lowered onto it
// (matMul with and without its epilogue, 1x1 and im2col convs), and for the
// native depthwise convolution.
//
// The native kernel promises more than closeness: every C element is one
// ascending-k multiply-add chain that starts from +0, followed by the bias add
// and the activation's applyUnary formula. The oracle below spells that out
// one scalar at a time:
//
//   c = +0;  for p ascending: c = fma(a_ip, b_pj, c);  v = c + bias[j];
//   out = applyFusedActivation(act, v)
//
// This TU is compiled with the native target's arch flags plus
// -ffp-contract=off, so the oracle's only fused multiply-adds are the
// explicit std::fma calls. Without FMA hardware (__FMA__ undefined, e.g. a
// -DTFJS_NATIVE_ARCH=OFF build) the kernel's a*b+c rounds twice, and so does
// the oracle. Every comparison is memcmp: tiling, packing, register blocking
// and the thread count must not change a single bit.
//
// The inputs carry NaN, ±0 and ±inf in A and in the bias. A vector max/min
// with the wrong operand order (NaN and -0 handling differ from
// std::max(x, 0.f)) or a fused epilogue that reorders the bias add fails
// here. B stays finite and nonzero, and each output's chain meets at most one
// non-finite A value: when two NaNs with different payloads (a NaN input and
// the default NaN of inf - inf) meet in one instruction, which one survives
// depends on the operand order the compiler picks, which C++ leaves
// unspecified.
//
// Depthwise convolution has its own chain per output element: from +0, one
// fmaStep per in-bounds tap in ascending (fy, fx) order,
//
//   acc = +0;  for (fy, fx) with the tap inside the input:
//              acc = fmaStep(x[iy, ix, c], f[fy, fx, c, q], acc)
//
// whatever the register blocking of output pixels and channels, the edge
// path for padded pixels, or the thread count.
//
// The backward kernels are held the same way: conv backprop to the chains
// of colᵀ · dy (dW) and to col2im of dy · Wᵀ (dX), depthwise backprop to
// one fmaStep chain per element in output-pixel order, and pooling and its
// backprop to RefBackend itself (it performs the reference's exact ops).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "backends/common/ref_backend.h"
#include "backends/native/native_backend.h"
#include "core/buffer_pool.h"
#include "core/conv_util.h"
#include "core/thread_pool.h"

namespace {

using tfjs::Conv2DInfo;
using tfjs::FusedActivation;
using tfjs::PadMode;
using tfjs::Shape;
using tfjs::TensorSpec;
using tfjs::backends::applyFusedActivation;
using tfjs::backends::native::NativeBackend;
using tfjs::core::ThreadPool;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr FusedActivation kActs[] = {FusedActivation::kNone,
                                     FusedActivation::kRelu,
                                     FusedActivation::kRelu6,
                                     FusedActivation::kSigmoid};

float fmaStep(float a, float b, float c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

/// Deterministic values in [-2, 2) (LCG), never exactly zero.
std::vector<float> randomData(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    const float x =
        static_cast<float>(s >> 8) / static_cast<float>(1u << 24) * 4.f - 2.f;
    v[i] = x == 0.f ? 0.5f : x;
  }
  return v;
}

/// A [rows, cols] row-major operand with NaN, ±inf and ±0 planted on a
/// sparse pattern: some rows go NaN, some saturate to ±inf, many see zeros.
std::vector<float> specialRows(int rows, int cols, std::uint32_t seed) {
  std::vector<float> v =
      randomData(static_cast<std::size_t>(rows) * cols, seed);
  for (int i = 0; i < rows; ++i) {
    float* row = v.data() + static_cast<std::size_t>(i) * cols;
    for (int p = i % 3; p < cols; p += 5) {
      row[p] = (p + i) % 2 == 0 ? 0.f : -0.f;
    }
    const int at = (i * 13 + 5) % cols;
    switch (i % 7) {
      case 2: row[at] = kNaN; break;
      case 4: row[at] = kInf; break;
      case 5: row[at] = -kInf; break;
      default: break;
    }
  }
  return v;
}

/// Bias with every special value present whenever n allows.
std::vector<float> specialBias(int n) {
  std::vector<float> v = randomData(static_cast<std::size_t>(n), 99);
  const float specials[] = {kNaN, kInf, -kInf, 0.f, -0.f};
  for (int j = 0; j < n; j += 3) {
    v[static_cast<std::size_t>(j)] = specials[(j / 3) % 5];
  }
  return v;
}

/// The raw accumulation chains of row-major A [m, k] and B [k, n]:
/// z[i, j] = fma chain over p ascending, from +0.
std::vector<float> oracleChains(const float* A, const float* B, int m, int k,
                                int n) {
  std::vector<float> z(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float c = 0.f;
      for (int p = 0; p < k; ++p) {
        c = fmaStep(A[static_cast<std::size_t>(i) * k + p],
                    B[static_cast<std::size_t>(p) * n + j], c);
      }
      z[static_cast<std::size_t>(i) * n + j] = c;
    }
  }
  return z;
}

/// Applies the epilogue to the chains (bias broadcast over rows of width n).
std::vector<float> oracleEpilogue(const std::vector<float>& z, int n,
                                  const float* bias, FusedActivation act) {
  std::vector<float> out(z.size());
  for (std::size_t e = 0; e < z.size(); ++e) {
    float v = z[e];
    if (bias != nullptr) v = v + bias[e % static_cast<std::size_t>(n)];
    out[e] = applyFusedActivation(act, v);
  }
  return out;
}

std::string hex(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  char s[16];
  std::snprintf(s, sizeof s, "0x%08x", u);
  return s;
}

/// memcmp equality, reporting the first differing element on failure.
void expectBitwise(const std::vector<float>& got,
                   const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t e = 0; e < got.size(); ++e) {
    if (std::memcmp(&got[e], &want[e], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first difference at flat index " << e
                    << ": got " << got[e] << " (" << hex(got[e])
                    << "), oracle " << want[e] << " (" << hex(want[e]) << ")";
      return;
    }
  }
}

std::string caseName(int m, int k, int n, bool bias, FusedActivation act,
                     int threads) {
  return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
         " n=" + std::to_string(n) + (bias ? " bias" : " no-bias") +
         " act=" + std::to_string(static_cast<int>(act)) +
         " threads=" + std::to_string(threads);
}

class NativeGemmTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ThreadPool::get().numThreads(); }
  void TearDown() override { ThreadPool::get().setNumThreads(saved_); }

  TensorSpec put(const std::vector<float>& v, const Shape& shape) {
    return TensorSpec{native_.write(v, shape), shape, tfjs::DType::f32};
  }

  NativeBackend native_;

 private:
  int saved_ = 1;
};

// The static GEMM core over the full shape grid: tile edges (m around the
// register tile, n around the 32-column panel), k around the 256-deep k
// block, and the m=1/n=1 degenerate cases.
TEST_F(NativeGemmTest, GemmMatchesOracleOnShapeGrid) {
  const int ms[] = {1, 5, 11, 12, 13, 49, 197};
  const int ks[] = {1, 27, 255, 256, 257, 1030};
  const int ns[] = {1, 10, 31, 32, 33, 1000};
  for (const int m : ms) {
    for (const int k : ks) {
      for (const int n : ns) {
        const auto A = specialRows(m, k, static_cast<std::uint32_t>(m * k));
        const auto B = randomData(static_cast<std::size_t>(k) * n,
                                  static_cast<std::uint32_t>(k + n));
        const auto bias = specialBias(n);
        const auto z = oracleChains(A.data(), B.data(), m, k, n);
        for (const bool withBias : {false, true}) {
          const float* bp = withBias ? bias.data() : nullptr;
          for (const FusedActivation act : kActs) {
            const auto want = oracleEpilogue(z, n, bp, act);
            for (const int threads : {1, 4}) {
              ThreadPool::get().setNumThreads(threads);
              std::vector<float> C(static_cast<std::size_t>(m) * n, 0.f);
              NativeBackend::gemm(A.data(), B.data(), C.data(), m, k, n, bp,
                                  act);
              expectBitwise(C, want, caseName(m, k, n, withBias, act, threads));
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// k = 0: the accumulation is empty, so C keeps its +0 and only the epilogue
// runs (on both the in-place small-m path and the packed path).
TEST_F(NativeGemmTest, EmptyReductionStillAppliesEpilogue) {
  const int n = 33;
  const auto bias = specialBias(n);
  for (const int m : {1, 13}) {
    const std::vector<float> z(static_cast<std::size_t>(m) * n, 0.f);
    for (const FusedActivation act : kActs) {
      std::vector<float> C(z.size(), 0.f);
      NativeBackend::gemm(nullptr, nullptr, C.data(), m, 0, n, bias.data(),
                          act);
      expectBitwise(C, oracleEpilogue(z, n, bias.data(), act),
                    caseName(m, 0, n, true, act, 1));
    }
  }
}

// matMul through the backend: every transpose combination, with and without
// the fused epilogue.
TEST_F(NativeGemmTest, MatMulTransposesMatchOracle) {
  const int ms[] = {1, 5, 13, 49};
  const int ks[] = {1, 27, 257};
  const int ns[] = {1, 31, 33};
  for (const int m : ms) {
    for (const int k : ks) {
      for (const int n : ns) {
        const auto aData = specialRows(m, k, 7);  // row-major [m, k]
        const auto bData = randomData(static_cast<std::size_t>(k) * n, 8);
        const auto bias = specialBias(n);
        // Stored layouts: A as [m,k] or [k,m], B as [k,n] or [n,k].
        std::vector<float> aT(aData.size()), bT(bData.size());
        for (int i = 0; i < m; ++i) {
          for (int p = 0; p < k; ++p) {
            aT[static_cast<std::size_t>(p) * m + i] =
                aData[static_cast<std::size_t>(i) * k + p];
          }
        }
        for (int p = 0; p < k; ++p) {
          for (int j = 0; j < n; ++j) {
            bT[static_cast<std::size_t>(j) * k + p] =
                bData[static_cast<std::size_t>(p) * n + j];
          }
        }
        const auto z = oracleChains(aData.data(), bData.data(), m, k, n);
        for (const bool tA : {false, true}) {
          for (const bool tB : {false, true}) {
            const TensorSpec a = tA ? put(aT, Shape{1, k, m})
                                    : put(aData, Shape{1, m, k});
            const TensorSpec b = tB ? put(bT, Shape{1, n, k})
                                    : put(bData, Shape{1, k, n});
            const TensorSpec bs = put(bias, Shape{n});
            for (const int threads : {1, 4}) {
              ThreadPool::get().setNumThreads(threads);
              const std::string tag = caseName(m, k, n, false,
                                               FusedActivation::kNone,
                                               threads) +
                                      " tA=" + std::to_string(tA) +
                                      " tB=" + std::to_string(tB);
              expectBitwise(native_.read(native_.matMul(
                                a, b, tA, tB, nullptr, FusedActivation::kNone)),
                            oracleEpilogue(z, n, nullptr,
                                           FusedActivation::kNone),
                            "matMul " + tag);
              for (const FusedActivation act : kActs) {
                expectBitwise(
                    native_.read(native_.matMul(a, b, tA, tB, &bs, act)),
                    oracleEpilogue(z, n, bias.data(), act),
                    "matMul act=" + std::to_string(static_cast<int>(act)) +
                        " " + tag);
              }
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST_F(NativeGemmTest, BatchedMatMulBroadcastsOperand) {
  const int batch = 3, m = 13, k = 40, n = 35;
  const auto aData = specialRows(batch * m, k, 21);  // [3, m, k]
  const auto bData = randomData(static_cast<std::size_t>(k) * n, 22);
  std::vector<float> want;
  for (int bi = 0; bi < batch; ++bi) {
    const auto z = oracleChains(
        aData.data() + static_cast<std::size_t>(bi) * m * k, bData.data(), m,
        k, n);
    want.insert(want.end(), z.begin(), z.end());
  }
  const TensorSpec a = put(aData, Shape{batch, m, k});
  const TensorSpec b = put(bData, Shape{1, k, n});
  expectBitwise(native_.read(native_.matMul(a, b, false, false, nullptr,
                                                FusedActivation::kNone)), want,
                "batched matMul");
}

/// The im2col matrix of NHWC x: one [filterH, filterW, inC] row per output
/// pixel (b, oy, ox), zeros where a tap falls in the padding.
std::vector<float> oracleIm2col(const std::vector<float>& x,
                                const Conv2DInfo& ci) {
  const std::size_t patch =
      static_cast<std::size_t>(ci.filterH) * ci.filterW * ci.inC;
  std::vector<float> col(
      static_cast<std::size_t>(ci.batch) * ci.outH * ci.outW * patch, 0.f);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      for (int ox = 0; ox < ci.outW; ++ox) {
        float* dst =
            col.data() +
            ((static_cast<std::size_t>(b) * ci.outH + oy) * ci.outW + ox) *
                patch;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
            const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
            if (iy < 0 || iy >= ci.inH || ix < 0 || ix >= ci.inW) continue;
            std::memcpy(
                dst + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                          ci.inC,
                x.data() +
                    ((static_cast<std::size_t>(b) * ci.inH + iy) * ci.inW +
                     ix) *
                        ci.inC,
                static_cast<std::size_t>(ci.inC) * sizeof(float));
          }
        }
      }
    }
  }
  return col;
}

// Convolutions: the 1x1 path is a straight [spatial, inC] x [inC, outC]
// GEMM; the general path packs im2col rows (zeros in the padding) per chunk
// and runs the GEMM on each chunk. The oracle builds the same im2col matrix
// and runs the scalar chains over it.
TEST_F(NativeGemmTest, ConvPathsMatchOracle) {
  struct Case {
    Shape x, f;
    int stride;
    PadMode pad;
  };
  const Case cases[] = {
      {Shape{2, 9, 7, 37}, Shape{1, 1, 37, 45}, 1, PadMode::kValid},
      {Shape{1, 30, 30, 3}, Shape{3, 3, 3, 32}, 2, PadMode::kSame},
      {Shape{1, 13, 11, 20}, Shape{3, 3, 20, 33}, 1, PadMode::kSame},
  };
  for (const Case& cs : cases) {
    const Conv2DInfo ci =
        tfjs::conv_util::computeConv2DInfo(cs.x, cs.f, cs.stride, cs.stride,
                                           cs.pad);
    // Specials sit on pixels 4 apart in y and x, so no 3x3 window (and
    // hence no im2col row) holds two of them.
    auto xData = randomData(cs.x.size(), 31);
    for (std::size_t e = 0; e < xData.size(); e += 7) {
      xData[e] = e % 2 == 0 ? 0.f : -0.f;
    }
    const float specials[] = {kNaN, kInf, -kInf};
    for (int b = 0; b < ci.batch; ++b) {
      for (int y = 1; y < ci.inH; y += 4) {
        for (int x = 2; x < ci.inW; x += 4) {
          const std::size_t pixel =
              (static_cast<std::size_t>(b) * ci.inH + y) * ci.inW + x;
          xData[pixel * ci.inC + (y + x) % ci.inC] = specials[(y + x) % 3];
        }
      }
    }
    const auto fData = randomData(cs.f.size(), 32);
    const auto bias = specialBias(ci.outC);
    const auto z =
        oracleChains(oracleIm2col(xData, ci).data(), fData.data(),
                     ci.batch * ci.outH * ci.outW,
                     ci.filterH * ci.filterW * ci.inC, ci.outC);
    const TensorSpec x = put(xData, cs.x);
    const TensorSpec f = put(fData, cs.f);
    const TensorSpec bs = put(bias, Shape{ci.outC});
    for (const int threads : {1, 4}) {
      ThreadPool::get().setNumThreads(threads);
      const std::string tag = "conv " + cs.x.toString() + " * " +
                              cs.f.toString() +
                              " threads=" + std::to_string(threads);
      expectBitwise(native_.read(native_.conv2d(x, f, ci, nullptr,
                                                FusedActivation::kNone)),
                    oracleEpilogue(z, ci.outC, nullptr,
                                   FusedActivation::kNone),
                    tag);
      for (const FusedActivation act : kActs) {
        expectBitwise(native_.read(native_.conv2d(x, f, ci, &bs, act)),
                      oracleEpilogue(z, ci.outC, bias.data(), act),
                      tag + " act=" + std::to_string(static_cast<int>(act)));
      }
    }
  }
}

/// Parks NaN-filled buffers in the pool bucket that serves an n-element
/// request, so the next allocations of that size start out as NaN.
void poisonPool(std::size_t n) {
  for (int i = 0; i < 4; ++i) {
    tfjs::core::BufferPool::get().release(
        std::vector<float>(std::bit_ceil(n), kNaN));
  }
}

// Forward matMul and conv2d overwrite their output: each chain starts from
// +0 in registers, and no tile reads C before writing it. Every output is
// allocated from a pool bucket full of NaN and must still equal the
// zeroed-C oracle bit for bit — on the 1x1 and im2col conv paths, the
// small-m path (m < the register tile's rows), several k blocks (k > 256),
// k = 0 with a bias, and partial column panels (n not a multiple of the
// tile width).
TEST_F(NativeGemmTest, OutputsIgnorePoisonedPoolBuffers) {
  auto& pool = tfjs::core::BufferPool::get();
  const bool wasEnabled = pool.enabled();
  pool.setEnabled(true);
  const auto expectFromPoison = [&](const auto& run,
                                    const std::vector<float>& want,
                                    const std::string& what) {
    poisonPool(want.size());
    const std::uint64_t hits = pool.stats().hits;
    const std::vector<float> got = native_.read(run());
    EXPECT_GT(pool.stats().hits, hits) << what << ": output not pooled";
    expectBitwise(got, want, what);
  };

  struct MatMulCase {
    int m, k, n;
  };
  const MatMulCase mm[] = {{3, 40, 70}, {13, 600, 70}, {11, 0, 45},
                           {2, 0, 33}, {40, 27, 1}};
  struct ConvCase {
    Shape x, f;
    PadMode pad;
  };
  const ConvCase convs[] = {
      {Shape{1, 5, 7, 37}, Shape{1, 1, 37, 45}, PadMode::kValid},
      {Shape{1, 9, 8, 5}, Shape{3, 3, 5, 33}, PadMode::kSame},
      {Shape{2, 6, 5, 40}, Shape{3, 3, 40, 7}, PadMode::kSame},
  };
  for (const int threads : {1, 4}) {
    ThreadPool::get().setNumThreads(threads);
    const std::string t = " threads=" + std::to_string(threads);
    for (const MatMulCase& c : mm) {
      const auto aData = specialRows(c.m, std::max(c.k, 1), 71);
      const auto bData =
          randomData(static_cast<std::size_t>(c.k) * c.n, 72);
      const auto bias = specialBias(c.n);
      const std::vector<float> aUsed(
          aData.begin(),
          aData.begin() + static_cast<std::ptrdiff_t>(c.m) * c.k);
      const auto z = oracleChains(aUsed.data(), bData.data(), c.m, c.k, c.n);
      const TensorSpec a = put(aUsed, Shape{1, c.m, c.k});
      const TensorSpec b = put(bData, Shape{1, c.k, c.n});
      const TensorSpec bs = put(bias, Shape{c.n});
      for (const FusedActivation act : kActs) {
        expectFromPoison(
            [&] { return native_.matMul(a, b, false, false, &bs, act); },
            oracleEpilogue(z, c.n, bias.data(), act),
            "matMul " + caseName(c.m, c.k, c.n, true, act, threads));
      }
      expectFromPoison(
          [&] {
            return native_.matMul(a, b, false, false, nullptr,
                                  FusedActivation::kNone);
          },
          z, "matMul " + caseName(c.m, c.k, c.n, false,
                                  FusedActivation::kNone, threads));
      if (HasFailure()) break;
    }
    for (const ConvCase& c : convs) {
      const Conv2DInfo ci =
          tfjs::conv_util::computeConv2DInfo(c.x, c.f, 1, 1, c.pad);
      const auto xData = randomData(c.x.size(), 73);
      const auto fData = randomData(c.f.size(), 74);
      const auto bias = specialBias(ci.outC);
      const auto z = oracleChains(oracleIm2col(xData, ci).data(), fData.data(),
                                  ci.batch * ci.outH * ci.outW,
                                  ci.filterH * ci.filterW * ci.inC, ci.outC);
      const TensorSpec x = put(xData, c.x);
      const TensorSpec f = put(fData, c.f);
      const TensorSpec bs = put(bias, Shape{ci.outC});
      const std::string tag = c.x.toString() + " * " + c.f.toString() + t;
      expectFromPoison(
          [&] {
            return native_.conv2d(x, f, ci, nullptr, FusedActivation::kNone);
          },
          z, "conv2d " + tag);
      for (const FusedActivation act : kActs) {
        expectFromPoison(
            [&] { return native_.conv2d(x, f, ci, &bs, act); },
            oracleEpilogue(z, ci.outC, bias.data(), act),
            "fusedConv2d act=" + std::to_string(static_cast<int>(act)) + " " +
                tag);
      }
      if (HasFailure()) break;
    }
    if (HasFailure()) break;
  }
  pool.setEnabled(wasEnabled);
}

/// The depthwise chains of NHWC x against an [fH, fW, inC, mult] filter:
/// per output element, fmaStep over the in-bounds taps in (fy, fx) order.
std::vector<float> oracleDepthwise(const std::vector<float>& x,
                                   const std::vector<float>& f,
                                   const Conv2DInfo& ci) {
  const int mult = ci.channelMult;
  std::vector<float> out(static_cast<std::size_t>(ci.batch) * ci.outH *
                         ci.outW * ci.outC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      for (int ox = 0; ox < ci.outW; ++ox) {
        for (int c = 0; c < ci.inC; ++c) {
          for (int q = 0; q < mult; ++q) {
            float acc = 0.f;
            for (int fy = 0; fy < ci.filterH; ++fy) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              if (iy < 0 || iy >= ci.inH) continue;
              for (int fx = 0; fx < ci.filterW; ++fx) {
                const int ix =
                    ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                if (ix < 0 || ix >= ci.inW) continue;
                acc = fmaStep(
                    x[((static_cast<std::size_t>(b) * ci.inH + iy) * ci.inW +
                       ix) *
                          ci.inC +
                      c],
                    f[((static_cast<std::size_t>(fy) * ci.filterW + fx) *
                           ci.inC +
                       c) *
                          mult +
                      q],
                    acc);
              }
            }
            out[((static_cast<std::size_t>(b) * ci.outH + oy) * ci.outW +
                 ox) *
                    ci.outC +
                c * mult + q] = acc;
          }
        }
      }
    }
  }
  return out;
}

// Depthwise: SAME padding on every edge (3x3 and 5x5), stride 2, dilation 2,
// channel counts around the vector width, channelMult 1 and 2, batch 2. The
// rows are wide enough for the kernel's 8- and 4-pixel register groups and
// their leftovers. NaN/±inf sit on input pixels 6 apart in y and x, so no
// tap window — at most 5 pixels wide, dilated — holds two of them; ±0 are
// sprinkled everywhere.
TEST_F(NativeGemmTest, DepthwiseMatchesOracle) {
  struct Case {
    int h, w, filter, stride, dilation;
  };
  const Case cases[] = {{9, 21, 3, 1, 1},
                        {10, 23, 3, 2, 1},
                        {11, 22, 3, 1, 2},
                        {8, 19, 5, 1, 1}};
  for (const Case& cs : cases) {
    for (const int C : {1, 7, 16, 33, 64}) {
      for (const int mult : {1, 2}) {
        const Shape xs{2, cs.h, cs.w, C}, fs{cs.filter, cs.filter, C, mult};
        const Conv2DInfo ci = tfjs::conv_util::computeConv2DInfo(
            xs, fs, cs.stride, cs.stride, PadMode::kSame, cs.dilation,
            cs.dilation, /*depthwise=*/true);
        auto xData = randomData(xs.size(), static_cast<std::uint32_t>(C));
        for (std::size_t e = 0; e < xData.size(); e += 5) {
          xData[e] = e % 2 == 0 ? 0.f : -0.f;
        }
        const float specials[] = {kNaN, kInf, -kInf};
        for (int b = 0; b < 2; ++b) {
          for (int y = 1; y < cs.h; y += 6) {
            for (int x = 2; x < cs.w; x += 6) {
              const std::size_t pixel =
                  (static_cast<std::size_t>(b) * cs.h + y) * cs.w + x;
              xData[pixel * C + (y + x) % C] = specials[(y + x + b) % 3];
            }
          }
        }
        const auto fData =
            randomData(fs.size(), static_cast<std::uint32_t>(C + mult));
        const auto want = oracleDepthwise(xData, fData, ci);
        const TensorSpec x = put(xData, xs);
        const TensorSpec f = put(fData, fs);
        for (const int threads : {1, 4}) {
          ThreadPool::get().setNumThreads(threads);
          expectBitwise(native_.read(native_.depthwiseConv2d(
                            x, f, ci, nullptr, FusedActivation::kNone)),
                        want,
                        "depthwise " + xs.toString() + " * " + fs.toString() +
                            " stride=" + std::to_string(cs.stride) +
                            " dilation=" + std::to_string(cs.dilation) +
                            " threads=" + std::to_string(threads));
          if (HasFailure()) return;
        }
      }
    }
  }
}

/// Plants ±0 on every `every`-th element (the sign of a zero survives a
/// chain only when its steps run in the promised order).
std::vector<float> withZeros(std::vector<float> v, std::size_t every) {
  for (std::size_t e = 0; e < v.size(); e += every) {
    v[e] = e % 2 == 0 ? 0.f : -0.f;
  }
  return v;
}

std::string convTag(const char* what, const Shape& x, const Shape& f,
                    int stride, int dilation, PadMode pad, int threads) {
  return std::string(what) + " " + x.toString() + " * " + f.toString() +
         " stride=" + std::to_string(stride) +
         " dilation=" + std::to_string(dilation) +
         (pad == PadMode::kSame ? " same" : " valid") +
         " threads=" + std::to_string(threads);
}

// Conv backprop. dW is colᵀ · dy: per element one chain over every output
// pixel (b, oy, ox) ascending, from +0, padding taps included as zeros. dX
// scatters dcol = dy · Wᵀ (one ascending-oc chain per element, from +0)
// back over the taps: each input element is +0 plus its contributions in
// ascending (oy, ox) order. Strides 1 and 2, dilation 2, SAME and VALID, a
// 1x1 conv, and channel counts around the register tile and the 32-column
// panel (in 1, 3, 17, 33; out 1, 16, 17, 33), batch 2.
TEST_F(NativeGemmTest, ConvBackpropMatchesOracle) {
  struct Case {
    Shape x, f;
    int stride, dilation;
    PadMode pad;
  };
  const Case cases[] = {
      {Shape{2, 9, 11, 3}, Shape{3, 3, 3, 16}, 1, 1, PadMode::kSame},
      {Shape{2, 10, 9, 17}, Shape{3, 3, 17, 33}, 2, 1, PadMode::kSame},
      {Shape{2, 11, 12, 1}, Shape{3, 3, 1, 33}, 1, 2, PadMode::kSame},
      {Shape{2, 12, 10, 3}, Shape{5, 5, 3, 1}, 2, 1, PadMode::kValid},
      {Shape{2, 9, 9, 17}, Shape{3, 3, 17, 16}, 1, 2, PadMode::kValid},
      {Shape{2, 6, 5, 33}, Shape{1, 1, 33, 17}, 1, 1, PadMode::kValid},
  };
  for (const Case& cs : cases) {
    const Conv2DInfo ci = tfjs::conv_util::computeConv2DInfo(
        cs.x, cs.f, cs.stride, cs.stride, cs.pad, cs.dilation, cs.dilation);
    const Shape ys{ci.batch, ci.outH, ci.outW, ci.outC};
    const auto xData = withZeros(randomData(cs.x.size(), 41), 7);
    const auto dyData = withZeros(randomData(ys.size(), 42), 5);
    const auto fData = randomData(cs.f.size(), 43);
    const std::size_t patch =
        static_cast<std::size_t>(ci.filterH) * ci.filterW * ci.inC;
    const std::size_t outC = static_cast<std::size_t>(ci.outC);
    const std::size_t rows =
        static_cast<std::size_t>(ci.batch) * ci.outH * ci.outW;

    const auto col = oracleIm2col(xData, ci);
    std::vector<float> wantDw(patch * outC);
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t oc = 0; oc < outC; ++oc) {
        float c = 0.f;
        for (std::size_t r = 0; r < rows; ++r) {
          c = fmaStep(col[r * patch + p], dyData[r * outC + oc], c);
        }
        wantDw[p * outC + oc] = c;
      }
    }

    std::vector<float> wT(fData.size());
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t oc = 0; oc < outC; ++oc) {
        wT[oc * patch + p] = fData[p * outC + oc];
      }
    }
    const auto dcol =
        oracleChains(dyData.data(), wT.data(), static_cast<int>(rows),
                     ci.outC, static_cast<int>(patch));
    std::vector<float> wantDx(cs.x.size(), 0.f);
    for (int b = 0; b < ci.batch; ++b) {
      for (int oy = 0; oy < ci.outH; ++oy) {
        for (int ox = 0; ox < ci.outW; ++ox) {
          const std::size_t r =
              (static_cast<std::size_t>(b) * ci.outH + oy) * ci.outW + ox;
          for (int fy = 0; fy < ci.filterH; ++fy) {
            for (int fx = 0; fx < ci.filterW; ++fx) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
              if (iy < 0 || iy >= ci.inH || ix < 0 || ix >= ci.inW) continue;
              for (int ic = 0; ic < ci.inC; ++ic) {
                float& d = wantDx[((static_cast<std::size_t>(b) * ci.inH + iy) *
                                       ci.inW +
                                   ix) *
                                      ci.inC +
                                  ic];
                d = d + dcol[r * patch +
                             (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                 ci.inC +
                             ic];
              }
            }
          }
        }
      }
    }

    const TensorSpec x = put(xData, cs.x);
    const TensorSpec dy = put(dyData, ys);
    const TensorSpec f = put(fData, cs.f);
    for (const int threads : {1, 4}) {
      ThreadPool::get().setNumThreads(threads);
      expectBitwise(native_.read(native_.conv2dBackpropFilter(x, dy, ci)),
                    wantDw,
                    convTag("conv2dBackpropFilter", cs.x, cs.f, cs.stride,
                            cs.dilation, cs.pad, threads));
      expectBitwise(native_.read(native_.conv2dBackpropInput(dy, f, ci)),
                    wantDx,
                    convTag("conv2dBackpropInput", cs.x, cs.f, cs.stride,
                            cs.dilation, cs.pad, threads));
      if (HasFailure()) return;
    }
  }
}

// Depthwise backprop. dX per input element: +0, then one fmaStep per
// contributing output pixel (oy, ox) ascending and, within it, channel
// multiplier q ascending. dF per element: +0, then one fmaStep per output
// pixel (b, oy, ox) ascending whose tap lands inside the input. Both are
// written below in scatter form, which visits each element's steps in that
// order. Shapes as the forward test plus VALID cases at stride 1 and 2 and
// with dilation 2, whose windows reach past every edge of dy as seen from
// dX; channel counts around the vector width.
TEST_F(NativeGemmTest, DepthwiseBackpropMatchesOracle) {
  struct Case {
    int h, w, filter, stride, dilation;
    PadMode pad;
  };
  const Case cases[] = {{9, 21, 3, 1, 1, PadMode::kSame},
                        {10, 23, 3, 2, 1, PadMode::kSame},
                        {11, 22, 3, 1, 2, PadMode::kSame},
                        {8, 19, 5, 1, 1, PadMode::kSame},
                        {11, 13, 3, 2, 1, PadMode::kValid},
                        {9, 21, 3, 1, 1, PadMode::kValid},
                        {11, 22, 3, 1, 2, PadMode::kValid}};
  for (const Case& cs : cases) {
    for (const int C : {1, 7, 16, 33, 64}) {
      for (const int mult : {1, 2}) {
        const Shape xs{2, cs.h, cs.w, C}, fs{cs.filter, cs.filter, C, mult};
        const Conv2DInfo ci = tfjs::conv_util::computeConv2DInfo(
            xs, fs, cs.stride, cs.stride, cs.pad, cs.dilation, cs.dilation,
            /*depthwise=*/true);
        const Shape ys{ci.batch, ci.outH, ci.outW, ci.outC};
        const auto xData =
            withZeros(randomData(xs.size(), static_cast<std::uint32_t>(C)), 5);
        const auto dyData = withZeros(
            randomData(ys.size(), static_cast<std::uint32_t>(C + 50)), 7);
        const auto fData =
            randomData(fs.size(), static_cast<std::uint32_t>(C + mult));
        std::vector<float> wantDx(xs.size(), 0.f), wantDf(fs.size(), 0.f);
        for (int b = 0; b < ci.batch; ++b) {
          for (int oy = 0; oy < ci.outH; ++oy) {
            for (int ox = 0; ox < ci.outW; ++ox) {
              for (int fy = 0; fy < ci.filterH; ++fy) {
                const int iy =
                    oy * ci.strideH - ci.padTop + fy * ci.dilationH;
                if (iy < 0 || iy >= ci.inH) continue;
                for (int fx = 0; fx < ci.filterW; ++fx) {
                  const int ix =
                      ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                  if (ix < 0 || ix >= ci.inW) continue;
                  const std::size_t xi =
                      ((static_cast<std::size_t>(b) * ci.inH + iy) * ci.inW +
                       ix) *
                      C;
                  const std::size_t gi =
                      ((static_cast<std::size_t>(b) * ci.outH + oy) *
                           ci.outW +
                       ox) *
                      ci.outC;
                  const std::size_t fi =
                      (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                      ci.outC;
                  for (int c = 0; c < C; ++c) {
                    for (int q = 0; q < mult; ++q) {
                      const std::size_t j =
                          static_cast<std::size_t>(c) * mult + q;
                      float& dx = wantDx[xi + c];
                      float& df = wantDf[fi + j];
                      dx = fmaStep(dyData[gi + j], fData[fi + j], dx);
                      df = fmaStep(xData[xi + c], dyData[gi + j], df);
                    }
                  }
                }
              }
            }
          }
        }
        const TensorSpec x = put(xData, xs);
        const TensorSpec dy = put(dyData, ys);
        const TensorSpec f = put(fData, fs);
        for (const int threads : {1, 4}) {
          ThreadPool::get().setNumThreads(threads);
          expectBitwise(
              native_.read(native_.depthwiseConv2dBackpropInput(dy, f, ci)),
              wantDx,
              convTag("depthwiseConv2dBackpropInput", xs, fs, cs.stride,
                      cs.dilation, cs.pad, threads));
          expectBitwise(
              native_.read(native_.depthwiseConv2dBackpropFilter(x, dy, ci)),
              wantDf,
              convTag("depthwiseConv2dBackpropFilter", xs, fs, cs.stride,
                      cs.dilation, cs.pad, threads));
          if (HasFailure()) return;
        }
      }
    }
  }
}

/// Pooling geometries: overlapping windows (stride < filter), SAME padding
/// on every edge, and VALID; windows that tile the input exactly (2x2/2
/// VALID, and SAME over odd sizes, whose last window is clipped), and
/// disjoint windows that skip cells (filter < stride).
struct PoolCase {
  int h, w, filter, stride;
  PadMode pad;
};
constexpr PoolCase kPoolCases[] = {{9, 11, 3, 1, PadMode::kSame},
                                   {10, 13, 3, 2, PadMode::kSame},
                                   {8, 8, 2, 2, PadMode::kValid},
                                   {7, 12, 4, 3, PadMode::kSame},
                                   {11, 9, 3, 2, PadMode::kValid},
                                   {7, 9, 2, 2, PadMode::kSame},
                                   {9, 10, 2, 3, PadMode::kValid}};

/// A [2, h, w, C] pooling input: values on a half-integer grid (ties), NaN
/// every 17th element, and in image 1's even channels a 5x5 block of -inf,
/// so every window inside it (filters up to 4) holds nothing but -inf.
std::vector<float> poolInput(const PoolCase& cs, int C) {
  std::vector<float> x = randomData(
      static_cast<std::size_t>(2) * cs.h * cs.w * C, 61);
  for (float& v : x) v = std::floor(v * 2.f) / 2.f;
  for (std::size_t e = 3; e < x.size(); e += 17) x[e] = kNaN;
  for (int y = 1; y < 6; ++y) {
    for (int xx = 1; xx < 6; ++xx) {
      for (int c = 0; c < C; c += 2) {
        x[((static_cast<std::size_t>(1) * cs.h + y) * cs.w + xx) * C + c] =
            -kInf;
      }
    }
  }
  return x;
}

std::string poolTag(const Shape& xs, const PoolCase& cs, int threads) {
  return xs.toString() + " filter=" + std::to_string(cs.filter) +
         " stride=" + std::to_string(cs.stride) +
         (cs.pad == PadMode::kSame ? " same" : " valid") +
         " threads=" + std::to_string(threads);
}

// Forward pooling: bitwise RefBackend — max keeps `acc < v ? v : acc`
// (std::max: a NaN tap never replaces the running max, an all -inf window
// stays -inf) and avg divides the in-order sum by the in-bounds count.
TEST_F(NativeGemmTest, Pool2dMatchesReference) {
  tfjs::backends::RefBackend ref;
  for (const PoolCase& cs : kPoolCases) {
    for (const int C : {1, 5, 16, 33}) {
      const Shape xs{2, cs.h, cs.w, C};
      const tfjs::Pool2DInfo pi = tfjs::conv_util::computePool2DInfo(
          xs, cs.filter, cs.filter, cs.stride, cs.stride, cs.pad);
      const std::vector<float> xData = poolInput(cs, C);
      const TensorSpec xr{ref.write(xData, xs), xs, tfjs::DType::f32};
      const auto wantMax = ref.read(ref.pool2d(tfjs::PoolMode::kMax, xr, pi));
      const auto wantAvg = ref.read(ref.pool2d(tfjs::PoolMode::kAvg, xr, pi));
      const TensorSpec x = put(xData, xs);
      for (const int threads : {1, 4}) {
        ThreadPool::get().setNumThreads(threads);
        const std::string tag = poolTag(xs, cs, threads);
        expectBitwise(native_.read(native_.pool2d(tfjs::PoolMode::kMax, x, pi)),
                      wantMax, "maxPool " + tag);
        expectBitwise(native_.read(native_.pool2d(tfjs::PoolMode::kAvg, x, pi)),
                      wantAvg, "avgPool " + tag);
        if (HasFailure()) return;
      }
    }
  }
}

// Pool backprop: bitwise RefBackend — the same argmax (first strictly
// greater value, taps in (fy, fx) order) and the same adds into each input
// element in (oy, ox) order, over poolInput's ties, NaN and all -inf
// windows (max routes nothing there), with -0 gradients mixed in
// (RefBackend's +0 + -0 leaves +0 in dX, also where tiling windows write
// each element once).
TEST_F(NativeGemmTest, PoolBackpropMatchesReference) {
  tfjs::backends::RefBackend ref;
  for (const PoolCase& cs : kPoolCases) {
    for (const int C : {1, 5, 16, 33}) {
      const Shape xs{2, cs.h, cs.w, C};
      const tfjs::Pool2DInfo pi = tfjs::conv_util::computePool2DInfo(
          xs, cs.filter, cs.filter, cs.stride, cs.stride, cs.pad);
      const Shape ys{pi.batch, pi.outH, pi.outW, pi.channels};
      const std::vector<float> xData = poolInput(cs, C);
      auto dyData = randomData(ys.size(), 62);
      for (std::size_t e = 2; e < dyData.size(); e += 7) dyData[e] = -0.f;
      const auto wantMax = ref.read(ref.maxPoolBackprop(
          TensorSpec{ref.write(dyData, ys), ys, tfjs::DType::f32},
          TensorSpec{ref.write(xData, xs), xs, tfjs::DType::f32}, pi));
      const auto wantAvg = ref.read(ref.avgPoolBackprop(
          TensorSpec{ref.write(dyData, ys), ys, tfjs::DType::f32}, pi));
      const TensorSpec x = put(xData, xs);
      const TensorSpec dy = put(dyData, ys);
      for (const int threads : {1, 4}) {
        ThreadPool::get().setNumThreads(threads);
        const std::string tag = poolTag(xs, cs, threads);
        expectBitwise(native_.read(native_.maxPoolBackprop(dy, x, pi)),
                      wantMax, "maxPoolBackprop " + tag);
        expectBitwise(native_.read(native_.avgPoolBackprop(dy, pi)), wantAvg,
                      "avgPoolBackprop " + tag);
        if (HasFailure()) return;
      }
    }
  }
}

}  // namespace
