// Int8 quantized inference tests (DESIGN.md "Quantized execution").
//
// The contract under test: the scalar reference oracle (cpu backend) and the
// SIMD native kernels produce *bitwise identical* results — both quantize
// activations per GEMM row with the same math, accumulate in i32 (exact, in
// any order), and share the scalar epilogue — so parity is EXPECT_EQ on
// floats, not EXPECT_NEAR. Edge cases: code saturation at +/-127, dead
// channels (scale 0), odd K not divisible by the SIMD panel width, the i32
// accumulator overflow guard on huge K, and the NaN-activation fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "backends/common/quant_math.h"
#include "backends/common/ref_backend.h"
#include "backends/native/native_backend.h"
#include "backends/webgl/webgl_backend.h"
#include "core/conv_util.h"
#include "core/engine.h"
#include "core/thread_pool.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;

/// Deterministic values in [-1, 1] (LCG; independent of libc rand).
std::vector<float> randomData(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    v[i] = static_cast<float>(s >> 8) / static_cast<float>(1u << 24) * 2.f -
           1.f;
  }
  return v;
}

/// Bitwise equality (distinguishes NaN payloads and -0 from +0 equality
/// classes the way the determinism guarantee means it).
void expectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0,
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

class QuantTest : public ::testing::Test {
 protected:
  void SetUp() override { setBackend("native"); }
};

// ------------------------------------------------------------ quantize ops

TEST_F(QuantTest, QuantizePerChannelRoundTrip) {
  tidyVoid([] {
    const auto wv = randomData(7 * 5, 11);
    Tensor w = o::tensor(wv, Shape{7, 5});
    Tensor q = o::quantizePerChannel(w);
    EXPECT_EQ(q.dtype(), DType::i8);
    ASSERT_NE(q.quantParams(), nullptr);
    const QuantParams& qp = *q.quantParams();
    EXPECT_EQ(qp.axis, 1);
    ASSERT_EQ(qp.channels(), 5u);
    EXPECT_TRUE(qp.symmetric());

    const auto codes = q.dataSync();
    for (float c : codes) {
      EXPECT_GE(c, -127.f);
      EXPECT_LE(c, 127.f);
      EXPECT_EQ(c, std::nearbyint(c)) << "codes must be integer-valued";
    }
    // Round-trip error is at most half a step per channel.
    const auto back = o::dequantize(q).dataSync();
    for (std::size_t i = 0; i < wv.size(); ++i) {
      EXPECT_NEAR(back[i], wv[i], qp.scale[i % 5] * 0.5f + 1e-7f);
    }
  });
}

TEST_F(QuantTest, ZeroPointSaturationAt127) {
  tidyVoid([] {
    // With zero point 50, codes 150 / -150 must clamp to the symmetric
    // +/-127 range, never wrap.
    Tensor x = o::tensor({100.f, -200.f, 0.4f, -0.4f}, Shape{4});
    Tensor q = o::quantize(x, /*scale=*/1.f, /*zeroPoint=*/50);
    test::expectValues(q, {127.f, -127.f, 50.f, 50.f}, 0.f);
    // Dequantization sees the saturated codes.
    test::expectValues(o::dequantize(q), {77.f, -177.f, 0.f, 0.f}, 0.f);
  });
}

TEST_F(QuantTest, DeadChannelScaleZeroProducesExactZeros) {
  tidyVoid([] {
    // Column 0 is identically zero: its scale must be 0 (not a division
    // hazard) and every output in that column exactly 0.
    Tensor w = o::tensor({0.f, 1.f, 0.f, -2.f, 0.f, 0.5f}, Shape{3, 2});
    Tensor q = o::quantizePerChannel(w);
    EXPECT_EQ(q.quantParams()->scale[0], 0.f);
    EXPECT_GT(q.quantParams()->scale[1], 0.f);

    Tensor a = o::tensor(randomData(4 * 3, 3), Shape{4, 3});
    const auto y = o::matMul(a, q).dataSync();
    for (std::size_t i = 0; i < y.size(); i += 2) {
      EXPECT_EQ(y[i], 0.f) << "dead channel must dequantize to exactly 0";
    }
  });
}

// ------------------------------------------------------- ref<->native parity

/// Runs fusedMatMul with int8 weights on the given backend; returns its
/// values.
std::vector<float> matMulOn(const char* backend, int m, int k, int n,
                            FusedActivation act) {
  setBackend(backend);
  std::vector<float> out;
  tidyVoid([&] {
    Tensor a = o::tensor(randomData(static_cast<std::size_t>(m) * k, 5),
                         Shape{m, k});
    Tensor w = o::tensor(randomData(static_cast<std::size_t>(k) * n, 7),
                         Shape{k, n});
    Tensor bias = o::tensor(randomData(static_cast<std::size_t>(n), 9),
                            Shape{n});
    Tensor q = o::quantizePerChannel(w);
    out = o::fusedMatMul(a, q, bias, act).dataSync();
  });
  return out;
}

TEST_F(QuantTest, RefNativeMatMulParityOddK) {
  // K values straddle the SIMD panel widths (VNNI packs K in 4s, AVX2 in
  // 2s, column panels 16/8 wide): 1, primes, and one just past a multiple.
  for (int k : {1, 13, 17, 67}) {
    const auto ref = matMulOn("cpu", 3, k, 21, FusedActivation::kRelu);
    const auto nat = matMulOn("native", 3, k, 21, FusedActivation::kRelu);
    expectBitwiseEqual(ref, nat);
  }
}

TEST_F(QuantTest, RefNativeMatMulParityWiderThanPanels) {
  const auto ref = matMulOn("cpu", 5, 40, 50, FusedActivation::kNone);
  const auto nat = matMulOn("native", 5, 40, 50, FusedActivation::kNone);
  expectBitwiseEqual(ref, nat);
}

/// Conv analogue of matMulOn: NHWC input against a quantized HWIO filter.
std::vector<float> convOn(const char* backend, int size, int inC, int outC,
                          int kernel, int stride, PadMode pad) {
  setBackend(backend);
  std::vector<float> out;
  tidyVoid([&] {
    const std::size_t xN = static_cast<std::size_t>(size) * size * inC;
    const std::size_t fN =
        static_cast<std::size_t>(kernel) * kernel * inC * outC;
    Tensor x = o::tensor(randomData(xN, 21), Shape{1, size, size, inC});
    Tensor f = o::tensor(randomData(fN, 23),
                         Shape{kernel, kernel, inC, outC});
    Tensor bias = o::tensor(randomData(static_cast<std::size_t>(outC), 25),
                            Shape{outC});
    Tensor q = o::quantizePerChannel(f);
    out = o::fusedConv2d(x, q, bias, FusedActivation::kRelu6, stride, stride,
                         pad)
              .dataSync();
  });
  return out;
}

TEST_F(QuantTest, RefNativeConvParity3x3Strided) {
  // 3x3 stride-2 SAME: zero padding must map exactly onto the row zero
  // point; 9x9 spatial does not divide the parallel chunking evenly.
  const auto ref = convOn("cpu", 9, 6, 8, 3, 2, PadMode::kSame);
  const auto nat = convOn("native", 9, 6, 8, 3, 2, PadMode::kSame);
  expectBitwiseEqual(ref, nat);
}

TEST_F(QuantTest, RefNativeConvParity1x1) {
  // 1x1 stride-1 exercises the native backend's im2col-free fast path.
  const auto ref = convOn("cpu", 7, 5, 19, 1, 1, PadMode::kValid);
  const auto nat = convOn("native", 7, 5, 19, 1, 1, PadMode::kValid);
  expectBitwiseEqual(ref, nat);
}

// ------------------------------------------------------------ approximation

TEST_F(QuantTest, QuantizedMatMulTracksF32) {
  tidyVoid([] {
    const int m = 4, k = 64, n = 12;
    Tensor a = o::tensor(randomData(static_cast<std::size_t>(m) * k, 31),
                         Shape{m, k});
    Tensor w = o::tensor(randomData(static_cast<std::size_t>(k) * n, 33),
                         Shape{k, n});
    Tensor q = o::quantizePerChannel(w);
    Tensor yq = o::matMul(a, q);
    Tensor yf = o::matMul(a, w);
    // Error budget: one half-step of activation plus weight quantization
    // noise per accumulated term; random errors mostly cancel, the bound
    // does not assume they do.
    test::expectClose(yq, yf, 0.01f * static_cast<float>(k));
  });
}

// ------------------------------------------------------------ fallback paths

TEST_F(QuantTest, OverflowGuardHugeKMatchesDequantizedPath) {
  tidyVoid([] {
    // k beyond kMaxAccumK (255*127 worst-case products no longer fit i32)
    // must take the dequantized f32 fallback — bitwise equal to computing
    // it explicitly.
    const int k = backends::qmath::kMaxAccumK + 1;
    Tensor a = o::tensor(randomData(static_cast<std::size_t>(k), 41),
                         Shape{1, k});
    Tensor w = o::tensor(randomData(static_cast<std::size_t>(k) * 3, 43),
                         Shape{k, 3});
    Tensor q = o::quantizePerChannel(w);
    Tensor bias = o::tensor({0.1f, -0.2f, 0.3f}, Shape{3});
    const auto viaQuant =
        o::fusedMatMul(a, q, bias, FusedActivation::kRelu).dataSync();
    Tensor wDeq = o::dequantize(q);
    const auto viaF32 =
        o::fusedMatMul(a, wDeq, bias, FusedActivation::kRelu).dataSync();
    expectBitwiseEqual(viaQuant, viaF32);
  });
}

TEST_F(QuantTest, NaNActivationFallsBackToF32) {
  tidyVoid([] {
    auto av = randomData(2 * 8, 51);
    av[5] = std::nanf("");
    Tensor a = o::tensor(av, Shape{2, 8});
    Tensor w = o::tensor(randomData(8 * 4, 53), Shape{8, 4});
    Tensor q = o::quantizePerChannel(w);
    const auto viaQuant = o::matMul(a, q).dataSync();
    Tensor wDeq = o::dequantize(q);
    const auto viaF32 = o::matMul(a, wDeq).dataSync();
    expectBitwiseEqual(viaQuant, viaF32);
    // Row 0 contains the NaN: it must propagate, not quantize to garbage.
    EXPECT_TRUE(std::isnan(viaQuant[0]));
    // Row 1 is clean and still correct.
    EXPECT_FALSE(std::isnan(viaQuant[4]));
  });
}

// ------------------------------------------- ref<->native parity, tile sweeps
//
// The native kernel quantizes rows per chunk of whole MR-row blocks, runs
// MR x 64-column register tiles (16-column panels, masked stores past n,
// shorter tiles past the last whole row block) and applies the epilogue from
// the accumulators. These sweeps call both backends directly and memcmp the
// results over rows 1..2*MR+1 (MR is 6 on VNNI), n around the panel and tile
// widths, k around the 4-byte quad packing, and k*n >= 2^18 (the layer sizes
// that used to run one row per chunk), for every activation, at 1 and 4
// threads.

constexpr int kSweepRows = 13;
constexpr int kSweepNs[] = {1, 15, 16, 17, 63, 64, 65, 1000};
constexpr int kSweepKs[] = {1, 3, 27, 32, 513};
constexpr FusedActivation kSweepActs[] = {
    FusedActivation::kNone, FusedActivation::kRelu, FusedActivation::kRelu6,
    FusedActivation::kSigmoid};

class QuantTileParityTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = core::ThreadPool::get().numThreads(); }
  void TearDown() override { core::ThreadPool::get().setNumThreads(saved_); }

  /// The same tensors on both backends.
  struct Pair {
    TensorSpec ref, nat;
  };
  /// Writes v to both backends; int8 weights carry `quant`.
  Pair put(const std::vector<float>& v, const Shape& shape, DType dtype,
           const QuantParams* quant = nullptr) {
    return {TensorSpec{ref_.write(v, shape), shape, dtype, quant},
            TensorSpec{native_.write(v, shape), shape, dtype, quant}};
  }
  void dispose(const Pair& p) {
    ref_.disposeData(p.ref.id);
    native_.disposeData(p.nat.id);
  }

  /// Runs `run(backend, operands)` on the reference backend once and on the
  /// native backend at 1 and 4 threads, for every activation, and memcmps
  /// each native result against ref.
  template <typename Run>
  void sweepEpilogues(const std::string& what, Run&& run) {
    for (const FusedActivation act : kSweepActs) {
      const DataId r = run(ref_, false, act);
      const std::vector<float> want = ref_.read(r);
      ref_.disposeData(r);
      for (const int threads : {1, 4}) {
        core::ThreadPool::get().setNumThreads(threads);
        const DataId nid = run(native_, true, act);
        const std::vector<float> got = native_.read(nid);
        native_.disposeData(nid);
        ASSERT_EQ(got.size(), want.size()) << what;
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(float)))
            << what << " act=" << static_cast<int>(act)
            << " threads=" << threads;
      }
    }
  }

  backends::RefBackend ref_;
  backends::native::NativeBackend native_;

 private:
  int saved_ = 1;
};

/// Symmetric per-channel int8 weight codes for a [.., n] weight (stored as
/// float, like the storage layer holds them) and their QuantParams.
std::pair<std::vector<float>, QuantParams> int8Weights(std::size_t size, int n,
                                                       std::uint32_t seed) {
  std::vector<float> codes = randomData(size, seed);
  for (float& c : codes) c = std::nearbyint(c * 127.f);
  QuantParams qp;
  qp.axis = 1;
  for (int j = 0; j < n; ++j) {
    qp.scale.push_back(0.002f + 0.001f * static_cast<float>(j % 7));
    qp.zeroPoint.push_back(0);
  }
  return {codes, qp};
}

/// Activations with all-zero, all-positive and all-negative rows among the
/// random ones, so row zero points span 0..255, and rows whose zero point
/// is an exact half before rounding: range [-(m + 0.5), 254.5 - m] gives
/// scale 1 and -lo / scale = m + 0.5, which lround takes away from zero.
std::vector<float> sweepActivations(int rows, int k, std::uint32_t seed) {
  std::vector<float> a =
      randomData(static_cast<std::size_t>(rows) * k, seed);
  for (int r = 0; r < rows; ++r) {
    float* row = a.data() + static_cast<std::size_t>(r) * k;
    for (int p = 0; p < k; ++p) {
      if (r % 5 == 1) row[p] = 0.f;
      if (r % 5 == 2) row[p] = std::fabs(row[p]);
      if (r % 5 == 3) row[p] = -std::fabs(row[p]);
    }
    if (r % 5 == 4 && k >= 2) {
      for (int p = 0; p < k; ++p) row[p] = row[p] * 100.f + 100.f;
      row[0] = -(static_cast<float>(r) + 0.5f);
      row[k - 1] = 254.5f - static_cast<float>(r);
    }
  }
  return a;
}

TEST_F(QuantTileParityTest, MatMulMatchesRefAcrossTileEdges) {
  for (const int k : kSweepKs) {
    for (const int n : kSweepNs) {
      const auto [codes, wq] =
          int8Weights(static_cast<std::size_t>(k) * n, n, k * 31 + n);
      const Pair w = put(codes, Shape{1, k, n}, DType::i8, &wq);
      const Pair bias = put(randomData(static_cast<std::size_t>(n), n + 3),
                            Shape{n}, DType::f32);
      for (int rows = 1; rows <= kSweepRows; ++rows) {
        const Pair a = put(sweepActivations(rows, k, rows * 7 + k),
                           Shape{1, rows, k}, DType::f32);
        const bool withBias = rows % 2 == 0;
        sweepEpilogues(
            "int8 matMul rows=" + std::to_string(rows) +
                " k=" + std::to_string(k) + " n=" + std::to_string(n) +
                (withBias ? " bias" : ""),
            [&](Backend& be, bool nat, FusedActivation act) {
              return be.matMul(
                  nat ? a.nat : a.ref, nat ? w.nat : w.ref, false, false,
                  withBias ? (nat ? &bias.nat : &bias.ref) : nullptr, act);
            });
        dispose(a);
        if (HasFailure()) return;
      }
      dispose(w);
      dispose(bias);
    }
  }
}

TEST_F(QuantTileParityTest, ConvMatchesRefAcrossTileEdges) {
  // {filter size, inC} per patch length k: 1x1 convs take the direct GEMM
  // path, 3x3 ones the im2col path (SAME padding on a one-pixel-high input
  // leaves two of the three filter rows in the padding).
  struct Filter {
    int size, inC;
  };
  const std::pair<int, Filter> filters[] = {
      {1, {1, 1}}, {3, {1, 3}}, {27, {3, 3}}, {32, {1, 32}}, {513, {3, 57}}};
  for (const auto& [k, fs] : filters) {
    for (const int n : kSweepNs) {
      const Shape fShape{fs.size, fs.size, fs.inC, n};
      const auto [codes, wq] = int8Weights(fShape.size(), n, k * 17 + n);
      const Pair f = put(codes, fShape, DType::i8, &wq);
      const Pair bias = put(randomData(static_cast<std::size_t>(n), n + 5),
                            Shape{n}, DType::f32);
      // Output pixels = GEMM rows: a one-row image of width `rows`, then
      // one strided batch-2 image (2 x 3 x 2 = 12 rows).
      std::vector<std::pair<Shape, int>> inputs;
      for (int rows = 1; rows <= kSweepRows; ++rows) {
        inputs.push_back({Shape{1, 1, rows, fs.inC}, 1});
      }
      inputs.push_back({Shape{2, 5, 4, fs.inC}, 2});
      for (const auto& [xShape, stride] : inputs) {
        const Conv2DInfo ci = conv_util::computeConv2DInfo(
            xShape, fShape, stride, stride, PadMode::kSame);
        const Pair x =
            put(sweepActivations(static_cast<int>(xShape.size() / fs.inC),
                                 fs.inC, k + n),
                xShape, DType::f32);
        const bool withBias = xShape[2] % 2 == 0;
        sweepEpilogues(
            "int8 conv2d x=" + xShape.toString() +
                " f=" + fShape.toString() + " stride=" +
                std::to_string(stride) + (withBias ? " bias" : ""),
            [&](Backend& be, bool nat, FusedActivation act) {
              return be.conv2d(
                  nat ? x.nat : x.ref, nat ? f.nat : f.ref, ci,
                  withBias ? (nat ? &bias.nat : &bias.ref) : nullptr, act);
            });
        dispose(x);
        if (HasFailure()) return;
      }
      dispose(f);
      dispose(bias);
    }
  }
}

// ------------------------------------------------- backend-level int8 path
//
// int8 is a dtype of Backend::matMul/conv2d's weight. These call the kernels
// directly with the tensors' specs (an int8 spec carries its parameters)
// and memcmp against the f32 kernel on dequantize(q).

/// test_main registers cpu/native/webgl; ref and the webgl variants are
/// added here.
void ensureBackendsRegistered() {
  static const bool once = [] {
    Engine::get().registerBackend(
        "ref", [] { return std::make_unique<backends::RefBackend>(); },
        /*priority=*/0);
    backends::webgl::WebGLOptions fp16;
    fp16.precision = backends::webgl::TexPrecision::fp16;
    backends::webgl::registerBackendVariant("webgl-fp16", fp16);
    backends::webgl::WebGLOptions unpacked;
    unpacked.packed = false;
    backends::webgl::registerBackendVariant("webgl-unpacked", unpacked);
    return true;
  }();
  (void)once;
}

class QuantBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ensureBackendsRegistered();
    setBackend(GetParam());
  }
};

/// Runs `kernel(backend, spec...)` on the active backend over the specs of
/// `ins` (an undefined tensor passes a null spec) and returns its output.
template <typename Kernel>
std::vector<float> runKernel(std::initializer_list<Tensor> ins,
                             Kernel kernel) {
  Engine& engine = Engine::get();
  std::vector<TensorSpec> specs;
  for (const Tensor& t : ins) {
    specs.push_back(t.defined() ? engine.prepareInput(t) : TensorSpec{});
  }
  Backend& be = engine.backend();
  const DataId y = kernel(be, specs);
  std::vector<float> out = be.read(y);
  be.disposeData(y);
  return out;
}

/// Backend::matMul over rank-3 a and b with an optional bias.
std::vector<float> matMulKernel(const Tensor& a, const Tensor& b, bool tA,
                                bool tB, const Tensor& bias,
                                FusedActivation act) {
  return runKernel({a, b, bias}, [&](Backend& be, const auto& s) {
    return be.matMul(s[0], s[1], tA, tB, bias.defined() ? &s[2] : nullptr,
                     act);
  });
}

/// Backend::conv2d with stride 2 and SAME padding.
std::vector<float> conv2dKernel(const Tensor& x, const Tensor& f,
                                const Tensor& bias, FusedActivation act) {
  const Conv2DInfo ci = conv_util::computeConv2DInfo(x.shape(), f.shape(), 2,
                                                     2, PadMode::kSame);
  return runKernel({x, f, bias}, [&](Backend& be, const auto& s) {
    return be.conv2d(s[0], s[1], ci, bias.defined() ? &s[2] : nullptr, act);
  });
}

/// The int8 weight encodings the kernels must dequantize: symmetric and
/// asymmetric per channel (last axis), and per tensor with a zero point.
std::vector<Tensor> int8Encodings(const Tensor& w) {
  Tensor perChannel = o::quantizePerChannel(w);
  Tensor asymmetric = o::tensor(perChannel.dataSync(), w.shape(), DType::i8);
  auto qp = std::make_shared<QuantParams>(*perChannel.quantParams());
  for (std::size_t c = 0; c < qp->zeroPoint.size(); ++c) {
    qp->zeroPoint[c] = static_cast<std::int32_t>(c % 5) - 2;
  }
  asymmetric.setQuantParams(std::move(qp));
  return {perChannel, asymmetric, o::quantize(w, 0.01f, 5)};
}

// webgl-sim has no int8 shader: matMul/conv2d dequantize the codes on the
// device through backends::dequantizeWeights, then run the fused f32
// shader — bitwise the f32 kernel on dequantize(q), fp16 texture rounding
// and unpacked layouts included.
using QuantWebglTest = QuantBackendTest;

TEST_P(QuantWebglTest, QuantizedKernelsEqualFusedOnDequantizedWeights) {
  tidyVoid([] {
    Tensor a = o::tensor(randomData(5 * 12, 71), Shape{1, 5, 12});
    Tensor w = o::tensor(randomData(12 * 6, 73), Shape{1, 12, 6});
    Tensor x = o::tensor(randomData(7 * 7 * 4, 75), Shape{1, 7, 7, 4});
    Tensor f = o::tensor(randomData(3 * 3 * 4 * 6, 77), Shape{3, 3, 4, 6});
    Tensor bias = o::tensor(randomData(6, 79), Shape{6});
    const std::vector<Tensor> ws = int8Encodings(w);
    const std::vector<Tensor> fs = int8Encodings(f);
    for (std::size_t e = 0; e < ws.size(); ++e) {
      Tensor wf = o::dequantize(ws[e]);
      Tensor ff = o::dequantize(fs[e]);
      for (const Tensor& b : {Tensor(), bias}) {
        for (const FusedActivation act : kSweepActs) {
          SCOPED_TRACE("encoding " + std::to_string(e) + " act " +
                       std::to_string(static_cast<int>(act)) +
                       (b.defined() ? " bias" : ""));
          expectBitwiseEqual(matMulKernel(a, ws[e], false, false, b, act),
                             matMulKernel(a, wf, false, false, b, act));
          expectBitwiseEqual(conv2dKernel(x, fs[e], b, act),
                             conv2dKernel(x, ff, b, act));
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Webgl, QuantWebglTest,
                         ::testing::Values("webgl", "webgl-fp16",
                                           "webgl-unpacked"));

// Each condition under which a backend's int8 kernel must not run, once:
// the result is the f32 kernel on the dequantized weight, bitwise. The
// shapes keep a mistaken int8 run in bounds (n > k > m), so it shows as a
// wrong-sized or wrong-valued output rather than a crash.
TEST_P(QuantBackendTest, FallbackConditionsEqualF32OnDequantizedWeights) {
  tidyVoid([] {
    const int m = 3, k = 8, n = 10;
    const int hugeK = backends::qmath::kMaxAccumK + 1;
    const auto rand = [](const Shape& s, std::uint32_t seed) {
      return o::tensor(randomData(s.size(), seed), s);
    };
    auto nanValues = randomData(static_cast<std::size_t>(m) * k, 95);
    nanValues[5] = std::nanf("");
    Tensor a = rand(Shape{1, m, k}, 91);
    Tensor w = rand(Shape{1, k, n}, 92);
    Tensor bias = rand(Shape{n}, 93);
    struct Case {
      const char* what;
      Tensor a, q;
      bool tA = false, tB = false;
    };
    const Case cases[] = {
        {"transposeA", rand(Shape{1, k, m}, 94), o::quantizePerChannel(w),
         true},
        {"transposeB", a, o::quantizePerChannel(rand(Shape{1, n, k}, 96)),
         false, true},
        {"asymmetric per-tensor zero point", a, o::quantize(w, 0.01f, 5)},
        {"NaN activation", o::tensor(nanValues, Shape{1, m, k}),
         o::quantizePerChannel(w)},
        {"k > kMaxAccumK", rand(Shape{1, 1, hugeK}, 97),
         o::quantizePerChannel(rand(Shape{1, hugeK, n}, 98))},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(c.what);
      Tensor wf = o::dequantize(c.q);
      expectBitwiseEqual(
          matMulKernel(c.a, c.q, c.tA, c.tB, bias, FusedActivation::kRelu),
          matMulKernel(c.a, wf, c.tA, c.tB, bias, FusedActivation::kRelu));
    }
    // The conv's NaN fallback.
    auto xv = randomData(2 * 5 * 5 * 3, 99);
    xv[17] = std::nanf("");
    Tensor x = o::tensor(xv, Shape{2, 5, 5, 3});
    Tensor q = o::quantizePerChannel(rand(Shape{3, 3, 3, n}, 100));
    Tensor qf = o::dequantize(q);
    expectBitwiseEqual(conv2dKernel(x, q, bias, FusedActivation::kRelu6),
                       conv2dKernel(x, qf, bias, FusedActivation::kRelu6));
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, QuantBackendTest,
                         ::testing::Values("ref", "cpu", "native", "webgl",
                                           "webgl-fp16"));

// --------------------------------------------------------------- routing

TEST_F(QuantTest, MatMulRoutesInt8Weights) {
  tidyVoid([] {
    Tensor a = o::tensor(randomData(3 * 16, 61), Shape{3, 16});
    Tensor w = o::tensor(randomData(16 * 5, 63), Shape{16, 5});
    Tensor q = o::quantizePerChannel(w);
    // matMul with an int8 weight is the int8 kernel, under its own op span.
    Tensor routed;
    const ProfileInfo info = profile([&] { routed = o::matMul(a, q); });
    ASSERT_EQ(info.kernels.size(), 1u);
    EXPECT_EQ(info.kernels[0].name, "quantizedMatMul");
    const auto direct =
        matMulKernel(a.reshape(Shape{1, 3, 16}), q.reshape(Shape{1, 16, 5}),
                     false, false, Tensor{}, FusedActivation::kNone);
    expectBitwiseEqual(routed.dataSync(), direct);
  });
}

}  // namespace
}  // namespace tfjs
