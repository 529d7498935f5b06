// Fused kernel parity: fusedMatMul / fusedConv2d / fusedDepthwiseConv2d
// must be *bit-identical* to the unfused producer -> add -> activation
// chain on every backend (the epilogue runs after the full accumulation
// using the same scalar formulas; on webgl-sim each interior value also
// takes the texture-store rounding a chain would have applied), including
// the gradients (activation masks are computed from the fused output). The
// webgl tests at the bottom check that the fused ops and a captured
// elementwise region each run as one shader.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "autodiff/tape.h"
#include "backends/common/ref_backend.h"
#include "backends/webgl/webgl_backend.h"
#include "core/engine.h"
#include "graph/capture.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "layers/conv_layers.h"
#include "layers/core_layers.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;

const FusedActivation kAllActs[] = {
    FusedActivation::kNone, FusedActivation::kRelu, FusedActivation::kRelu6,
    FusedActivation::kSigmoid};

/// Registers the reference backend and the fp16-texture and unpacked webgl
/// variants so the parity suite can run on them directly (test_main
/// registers cpu/native/webgl only).
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

void expectBitwiseEqual(const Tensor& a, const Tensor& b) {
  const auto av = a.dataSync();
  const auto bv = b.dataSync();
  ASSERT_EQ(av.size(), bv.size());
  if (std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(av[i], bv[i]) << "bitwise mismatch at flat index " << i;
  }
}

/// The manual unfused chain the fused kernels must reproduce exactly.
Tensor unfusedChain(Tensor y, const Tensor& bias, FusedActivation act) {
  if (bias.defined()) {
    Tensor withBias = o::add(y, bias);
    y.dispose();
    y = withBias;
  }
  Tensor out;
  switch (act) {
    case FusedActivation::kNone:
      return y;
    case FusedActivation::kRelu:
      out = o::relu(y);
      break;
    case FusedActivation::kRelu6:
      out = o::relu6(y);
      break;
    case FusedActivation::kSigmoid:
      out = o::sigmoid(y);
      break;
  }
  y.dispose();
  return out;
}

class FusionTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ensureBackendsRegistered();
    setBackend(GetParam());
  }
};

TEST_P(FusionTest, FusedMatMulBitwiseParity) {
  for (const bool tA : {false, true}) {
    for (const bool tB : {false, true}) {
      Tensor a = o::randomNormal(tA ? Shape{9, 7} : Shape{7, 9}, 0, 1, 11);
      Tensor b = o::randomNormal(tB ? Shape{5, 9} : Shape{9, 5}, 0, 1, 12);
      Tensor bias = o::randomNormal(Shape{5}, 0, 1, 13);
      for (const bool useBias : {false, true}) {
        for (const FusedActivation act : kAllActs) {
          const Tensor biasArg = useBias ? bias : Tensor();
          Tensor fused = o::fusedMatMul(a, b, biasArg, act, tA, tB);
          Tensor unfused = unfusedChain(o::matMul(a, b, tA, tB), biasArg, act);
          expectBitwiseEqual(fused, unfused);
          fused.dispose();
          unfused.dispose();
        }
      }
      a.dispose();
      b.dispose();
      bias.dispose();
    }
  }
}

TEST_P(FusionTest, FusedMatMulBatchedBroadcast) {
  Tensor a = o::randomNormal(Shape{3, 4, 6}, 0, 1, 14);
  Tensor b = o::randomNormal(Shape{1, 6, 5}, 0, 1, 15);
  Tensor bias = o::randomNormal(Shape{5}, 0, 1, 16);
  for (const FusedActivation act : kAllActs) {
    Tensor fused = o::fusedMatMul(a, b, bias, act);
    Tensor unfused = unfusedChain(o::matMul(a, b), bias, act);
    expectBitwiseEqual(fused, unfused);
    fused.dispose();
    unfused.dispose();
  }
  a.dispose();
  b.dispose();
  bias.dispose();
}

TEST_P(FusionTest, FusedConv2dBitwiseParity) {
  // 16 output rows stress the native backend's chunked im2col path; the
  // second config takes its 1x1 GEMM fast path.
  struct Config {
    Shape x, f;
    int stride;
    PadMode pad;
  };
  const Config configs[] = {
      {Shape{2, 16, 8, 3}, Shape{3, 3, 3, 4}, 1, PadMode::kSame},
      {Shape{2, 9, 7, 5}, Shape{1, 1, 5, 6}, 1, PadMode::kValid},
      {Shape{1, 13, 11, 2}, Shape{3, 5, 2, 7}, 2, PadMode::kSame},
  };
  for (const auto& cfg : configs) {
    Tensor x = o::randomNormal(cfg.x, 0, 1, 17);
    Tensor f = o::randomNormal(cfg.f, 0, 1, 18);
    Tensor bias = o::randomNormal(Shape{cfg.f[3]}, 0, 1, 19);
    for (const bool useBias : {false, true}) {
      for (const FusedActivation act : kAllActs) {
        const Tensor biasArg = useBias ? bias : Tensor();
        Tensor fused = o::fusedConv2d(x, f, biasArg, act, cfg.stride,
                                      cfg.stride, cfg.pad);
        Tensor unfused = unfusedChain(
            o::conv2d(x, f, cfg.stride, cfg.stride, cfg.pad), biasArg, act);
        expectBitwiseEqual(fused, unfused);
        fused.dispose();
        unfused.dispose();
      }
    }
    x.dispose();
    f.dispose();
    bias.dispose();
  }
}

TEST_P(FusionTest, FusedDepthwiseConv2dBitwiseParity) {
  // Channel counts below one vector, at one and two (16 and 32 on AVX-512,
  // whole multiples of 8 and 4 elsewhere) and past them with a tail (17,
  // 37); channelMult 1 and 2; stride 2; rows wide enough for the native
  // kernel's 8-, 4- and 2-pixel register groups and its padded edges.
  struct Config {
    Shape x, f;
    int stride;
    PadMode pad;
  };
  const Config configs[] = {
      {Shape{2, 9, 21, 3}, Shape{3, 3, 3, 1}, 1, PadMode::kSame},
      {Shape{1, 8, 23, 17}, Shape{3, 3, 17, 1}, 2, PadMode::kSame},
      {Shape{1, 7, 19, 32}, Shape{3, 3, 32, 1}, 1, PadMode::kValid},
      {Shape{1, 6, 14, 37}, Shape{3, 3, 37, 1}, 1, PadMode::kSame},
      {Shape{1, 9, 11, 5}, Shape{3, 3, 5, 2}, 2, PadMode::kSame},
      {Shape{1, 6, 10, 16}, Shape{5, 5, 16, 2}, 1, PadMode::kSame},
  };
  for (const auto& cfg : configs) {
    Tensor x = o::randomNormal(cfg.x, 0, 2, 40);
    Tensor f = o::randomNormal(cfg.f, 0, 1, 41);
    Tensor bias = o::randomNormal(Shape{cfg.f[2] * cfg.f[3]}, 0, 1, 42);
    for (const bool useBias : {false, true}) {
      for (const FusedActivation act : kAllActs) {
        const Tensor biasArg = useBias ? bias : Tensor();
        Tensor fused = o::fusedDepthwiseConv2d(x, f, biasArg, act, cfg.stride,
                                               cfg.stride, cfg.pad);
        Tensor unfused = unfusedChain(
            o::depthwiseConv2d(x, f, cfg.stride, cfg.stride, cfg.pad),
            biasArg, act);
        expectBitwiseEqual(fused, unfused);
        fused.dispose();
        unfused.dispose();
      }
    }
    x.dispose();
    f.dispose();
    bias.dispose();
  }
}

TEST_P(FusionTest, FusedMatMulGradientsBitwiseParity) {
  Tensor a = o::randomNormal(Shape{6, 8}, 0, 1, 20);
  Tensor b = o::randomNormal(Shape{8, 4}, 0, 1, 21);
  Tensor bias = o::randomNormal(Shape{4}, 0, 1, 22);
  const Tensor xs[] = {a, b, bias};
  for (const FusedActivation act : kAllActs) {
    auto [fv, fg] = autodiff::valueAndGrads(
        [&] {
          Tensor y = o::fusedMatMul(a, b, bias, act);
          Tensor loss = o::sum(y);
          y.dispose();
          return loss;
        },
        xs);
    auto [uv, ug] = autodiff::valueAndGrads(
        [&] {
          Tensor y = unfusedChain(o::matMul(a, b), bias, act);
          Tensor loss = o::sum(y);
          y.dispose();
          return loss;
        },
        xs);
    expectBitwiseEqual(fv, uv);
    ASSERT_EQ(fg.size(), ug.size());
    for (std::size_t i = 0; i < fg.size(); ++i) {
      expectBitwiseEqual(fg[i], ug[i]);
      fg[i].dispose();
      ug[i].dispose();
    }
    fv.dispose();
    uv.dispose();
  }
  a.dispose();
  b.dispose();
  bias.dispose();
}

TEST_P(FusionTest, FusedConv2dGradientsBitwiseParity) {
  Tensor x = o::randomNormal(Shape{1, 6, 6, 2}, 0, 1, 23);
  Tensor f = o::randomNormal(Shape{3, 3, 2, 3}, 0, 1, 24);
  Tensor bias = o::randomNormal(Shape{3}, 0, 1, 25);
  const Tensor xs[] = {x, f, bias};
  for (const FusedActivation act : kAllActs) {
    auto [fv, fg] = autodiff::valueAndGrads(
        [&] {
          Tensor y = o::fusedConv2d(x, f, bias, act, 1, 1, PadMode::kSame);
          Tensor loss = o::sum(y);
          y.dispose();
          return loss;
        },
        xs);
    auto [uv, ug] = autodiff::valueAndGrads(
        [&] {
          Tensor y =
              unfusedChain(o::conv2d(x, f, 1, 1, PadMode::kSame), bias, act);
          Tensor loss = o::sum(y);
          y.dispose();
          return loss;
        },
        xs);
    expectBitwiseEqual(fv, uv);
    ASSERT_EQ(fg.size(), ug.size());
    for (std::size_t i = 0; i < fg.size(); ++i) {
      expectBitwiseEqual(fg[i], ug[i]);
      fg[i].dispose();
      ug[i].dispose();
    }
    fv.dispose();
    uv.dispose();
  }
  x.dispose();
  f.dispose();
  bias.dispose();
}

TEST_P(FusionTest, FusedDepthwiseConv2dGradientsBitwiseParity) {
  for (const int mult : {1, 2}) {
    Tensor x = o::randomNormal(Shape{1, 7, 6, 3}, 0, 2, 43);
    Tensor f = o::randomNormal(Shape{3, 3, 3, mult}, 0, 1, 44);
    Tensor bias = o::randomNormal(Shape{3 * mult}, 0, 1, 45);
    const Tensor xs[] = {x, f, bias};
    for (const FusedActivation act : kAllActs) {
      auto [fv, fg] = autodiff::valueAndGrads(
          [&] {
            Tensor y = o::fusedDepthwiseConv2d(x, f, bias, act, 2, 2,
                                               PadMode::kSame);
            Tensor loss = o::sum(y);
            y.dispose();
            return loss;
          },
          xs);
      auto [uv, ug] = autodiff::valueAndGrads(
          [&] {
            Tensor y = unfusedChain(
                o::depthwiseConv2d(x, f, 2, 2, PadMode::kSame), bias, act);
            Tensor loss = o::sum(y);
            y.dispose();
            return loss;
          },
          xs);
      expectBitwiseEqual(fv, uv);
      ASSERT_EQ(fg.size(), ug.size());
      for (std::size_t i = 0; i < fg.size(); ++i) {
        expectBitwiseEqual(fg[i], ug[i]);
        fg[i].dispose();
        ug[i].dispose();
      }
      fv.dispose();
      uv.dispose();
    }
    x.dispose();
    f.dispose();
    bias.dispose();
  }
}

TEST_P(FusionTest, DepthwiseLayerRoutesThroughFusedPath) {
  layers::DepthwiseConv2DOptions opts;
  opts.padding = "same";
  opts.activation = "relu6";
  layers::DepthwiseConv2D depthwise(opts);
  Tensor x = o::randomNormal(Shape{1, 9, 10, 4}, 0, 4, 46);
  depthwise.apply(x).dispose();  // builds the weights outside the profile
  // A nonzero bias, so the epilogue's add is visible in the values.
  const auto& weights = depthwise.weights();
  ASSERT_EQ(weights.size(), 2u);
  weights[1].assign(o::randomNormal(Shape{4}, 0, 1, 47));
  Tensor y;
  const ProfileInfo info = profile([&] { y = depthwise.apply(x); });
  int kernels = 0, composed = 0;
  for (const auto& k : info.kernels) {
    kernels += k.name == "depthwiseConv2d";
    composed += k.name == "add" || k.name == "relu6";
  }
  EXPECT_EQ(kernels, 1);
  EXPECT_EQ(composed, 0) << "the epilogue must not run as separate ops";
  // Manual composition from the layer's weights (depthwise kernel, bias).
  Tensor manual = unfusedChain(
      o::depthwiseConv2d(x, weights[0].value(), 1, 1, PadMode::kSame),
      weights[1].value(), FusedActivation::kRelu6);
  expectBitwiseEqual(y, manual);
  y.dispose();
  manual.dispose();
  x.dispose();
}

TEST_P(FusionTest, DenseLayerRoutesThroughFusedPath) {
  layers::DenseOptions opts;
  opts.units = 5;
  opts.activation = "relu";
  layers::Dense dense(opts);
  Tensor x = o::randomNormal(Shape{4, 7}, 0, 1, 26);
  dense.apply(x).dispose();  // builds the weights outside the profile
  Tensor y;
  const ProfileInfo info = profile([&] { y = dense.apply(x); });
  int fused = 0, composed = 0;
  for (const auto& k : info.kernels) {
    fused += k.name == "fusedMatMul";
    composed += k.name == "add" || k.name == "relu";
  }
  EXPECT_EQ(fused, 1)
      << "Dense with a fusible activation should run the fused kernel";
  EXPECT_EQ(composed, 0) << "the epilogue must not run as separate ops";
  // Manual composition from the layer's weights, in weights() order
  // (kernel, bias).
  const auto& weights = dense.weights();
  ASSERT_EQ(weights.size(), 2u);
  Tensor manual = unfusedChain(o::matMul(x, weights[0].value()),
                               weights[1].value(), FusedActivation::kRelu);
  expectBitwiseEqual(y, manual);
  y.dispose();
  manual.dispose();
  x.dispose();
}

// A layer whose activation has no epilogue form (tanh here) still runs its
// bias inside the producer's epilogue and applies the activation after it:
// the profile shows the producer kernel and tanh with no add, and the
// output and every gradient equal the op-by-op producer -> add -> tanh
// chain bit for bit.
TEST_P(FusionTest, NonFusibleActivationRidesBiasEpilogue) {
  struct Case {
    std::unique_ptr<layers::Layer> layer;
    const char* kernel;  ///< the producer's op span
    Shape x;
    std::function<Tensor(const Tensor& x, const Tensor& w)> producer;
  };
  std::vector<Case> cases;
  {
    layers::DenseOptions opts;
    opts.units = 5;
    opts.activation = "tanh";
    cases.push_back({std::make_unique<layers::Dense>(opts), "fusedMatMul",
                     Shape{4, 7},
                     [](const Tensor& x, const Tensor& w) {
                       return o::matMul(x, w);
                     }});
  }
  {
    layers::Conv2DOptions opts;
    opts.filters = 3;
    opts.padding = "same";
    opts.activation = "tanh";
    cases.push_back({std::make_unique<layers::Conv2D>(opts), "fusedConv2d",
                     Shape{1, 6, 5, 2},
                     [](const Tensor& x, const Tensor& w) {
                       return o::conv2d(x, w, 1, 1, PadMode::kSame);
                     }});
  }
  {
    layers::DepthwiseConv2DOptions opts;
    opts.depthMultiplier = 2;
    opts.padding = "same";
    opts.activation = "tanh";
    cases.push_back({std::make_unique<layers::DepthwiseConv2D>(opts),
                     "depthwiseConv2d", Shape{1, 6, 5, 3},
                     [](const Tensor& x, const Tensor& w) {
                       return o::depthwiseConv2d(x, w, 1, 1, PadMode::kSame);
                     }});
  }
  std::uint32_t seed = 60;
  for (Case& c : cases) {
    SCOPED_TRACE(c.kernel);
    Tensor x = o::randomNormal(c.x, 0, 1, seed++);
    c.layer->apply(x).dispose();  // builds the weights outside the profile
    const auto& weights = c.layer->weights();
    ASSERT_EQ(weights.size(), 2u);
    // A nonzero bias, so the epilogue's add is visible in the values.
    weights[1].assign(o::randomNormal(weights[1].value().shape(), 0, 1,
                                      seed++));
    const Tensor w = weights[0].value();
    const Tensor b = weights[1].value();

    Tensor y;
    const ProfileInfo info = profile([&] { y = c.layer->apply(x); });
    int producer = 0, adds = 0, tanhs = 0;
    for (const auto& k : info.kernels) {
      producer += k.name == c.kernel;
      adds += k.name == "add";
      tanhs += k.name == "tanh";
    }
    EXPECT_EQ(producer, 1);
    EXPECT_EQ(adds, 0) << "the bias must ride the producer's epilogue";
    EXPECT_EQ(tanhs, 1);
    y.dispose();

    const Tensor xs[] = {x, w, b};
    auto [lv, lg] = autodiff::valueAndGrads(
        [&] {
          Tensor out = c.layer->apply(x);
          Tensor loss = o::sum(o::mul(out, out));
          out.dispose();
          return loss;
        },
        xs);
    auto [uv, ug] = autodiff::valueAndGrads(
        [&] {
          Tensor out = o::tanh(o::add(c.producer(x, w), b));
          Tensor loss = o::sum(o::mul(out, out));
          out.dispose();
          return loss;
        },
        xs);
    expectBitwiseEqual(lv, uv);
    ASSERT_EQ(lg.size(), ug.size());
    for (std::size_t i = 0; i < lg.size(); ++i) {
      expectBitwiseEqual(lg[i], ug[i]);
      lg[i].dispose();
      ug[i].dispose();
    }
    Tensor layerOut = c.layer->apply(x);
    Tensor chainOut = Engine::get().tidy(
        [&] { return o::tanh(o::add(c.producer(x, w), b)); });
    expectBitwiseEqual(layerOut, chainOut);
    for (Tensor t : {lv, uv, layerOut, chainOut, x}) t.dispose();
    c.layer->dispose();
  }
}

TEST_P(FusionTest, RejectsMalformedBias) {
  // The bias must be rank 1 with one entry per output channel; a shape
  // that would merely broadcast against the output is an error.
  Tensor a = o::randomNormal(Shape{4, 6}, 0, 1, 30);
  Tensor b = o::randomNormal(Shape{6, 3}, 0, 1, 31);
  Tensor scalarBias = o::randomNormal(Shape{1}, 0, 1, 32);
  EXPECT_THROW(o::fusedMatMul(a, b, scalarBias, FusedActivation::kRelu),
               ShapeError);
  Tensor x = o::randomNormal(Shape{1, 5, 5, 2}, 0, 1, 33);
  Tensor f = o::randomNormal(Shape{3, 3, 2, 4}, 0, 1, 34);
  Tensor rank2Bias = o::randomNormal(Shape{1, 4}, 0, 1, 35);
  EXPECT_THROW(o::fusedConv2d(x, f, rank2Bias, FusedActivation::kRelu, 1, 1,
                              PadMode::kSame),
               ShapeError);
  // Depthwise: 2 channels x multiplier 2 need a bias of length 4.
  Tensor df = o::randomNormal(Shape{3, 3, 2, 2}, 0, 1, 48);
  Tensor shortBias = o::randomNormal(Shape{2}, 0, 1, 49);
  EXPECT_THROW(o::fusedDepthwiseConv2d(x, df, shortBias,
                                       FusedActivation::kRelu6, 1, 1,
                                       PadMode::kSame),
               ShapeError);
  for (Tensor t : {a, b, scalarBias, x, f, rank2Bias, df, shortBias}) {
    t.dispose();
  }
}

TEST_P(FusionTest, TapedInputRefusesInPlaceButGradsCorrect) {
  // Under a tape, an intermediate is tape-referenced: the move-consuming
  // overload must refuse the in-place takeover (the pullback needs the
  // pre-activation values) and the recorded gradient must stay correct.
  Tensor x = o::tensor({-2.f, -0.5f, 0.5f, 2.f}, Shape{4});
  const Tensor xs[] = {x};
  auto [v, grads] = autodiff::valueAndGrads(
      [&] {
        Tensor pre = o::mulScalar(x, 3.f);
        const DataId preId = pre.dataId();
        Tensor y = o::relu(std::move(pre));
        EXPECT_NE(y.dataId(), preId)
            << "taped tensor must not be overwritten in place";
        Tensor loss = o::sum(y);
        y.dispose();
        return loss;
      },
      xs);
  // d/dx sum(relu(3x)) = 3 * [3x > 0]
  test::expectValues(grads[0], {0.f, 0.f, 3.f, 3.f});
  v.dispose();
  grads[0].dispose();

  // The consumed operand is untaped but the other one is watched: the op
  // must still record, or x's gradient silently drops to zero.
  auto [v2, grads2] = autodiff::valueAndGrads(
      [&] {
        Tensor shift = o::fill(Shape{4}, 5.f);
        Tensor y = o::mul(std::move(shift), x);
        Tensor loss = o::sum(y);
        y.dispose();
        return loss;
      },
      xs);
  test::expectValues(grads2[0], {5.f, 5.f, 5.f, 5.f});
  v2.dispose();
  grads2[0].dispose();
  x.dispose();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FusionTest,
                         ::testing::Values("ref", "cpu", "native", "webgl",
                                           "webgl-fp16", "webgl-unpacked"));

/// Shader programs the active webgl backend has executed so far.
std::uint64_t programsRun() {
  auto& be = dynamic_cast<backends::webgl::WebGLBackend&>(
      Engine::get().backend());
  be.flush();
  return be.gpuStats().programsRun;
}

// On webgl-sim the epilogue runs inside the matMul shader: one program
// where the op-by-op chain would run three.
TEST(FusionWebglTest, FusedMatMulRunsOneProgram) {
  setBackend("webgl");
  Tensor a = o::randomNormal(Shape{4, 6}, 0, 1, 27);
  Tensor b = o::randomNormal(Shape{6, 3}, 0, 1, 28);
  Tensor bias = o::randomNormal(Shape{3}, 0, 1, 29);
  const std::uint64_t before = programsRun();
  Tensor fused = o::fusedMatMul(a, b, bias, FusedActivation::kRelu);
  EXPECT_EQ(programsRun(), before + 1);
  Tensor unfused = unfusedChain(o::matMul(a, b), bias, FusedActivation::kRelu);
  expectBitwiseEqual(fused, unfused);
  for (Tensor t : {fused, unfused, a, b, bias}) t.dispose();
}

// The depthwise epilogue runs inside the depthwise shader too.
TEST(FusionWebglTest, FusedDepthwiseRunsOneProgram) {
  setBackend("webgl");
  Tensor x = o::randomNormal(Shape{1, 6, 7, 5}, 0, 2, 50);
  Tensor f = o::randomNormal(Shape{3, 3, 5, 1}, 0, 1, 51);
  Tensor bias = o::randomNormal(Shape{5}, 0, 1, 52);
  const std::uint64_t before = programsRun();
  Tensor fused = o::fusedDepthwiseConv2d(x, f, bias, FusedActivation::kRelu6,
                                         1, 1, PadMode::kSame);
  EXPECT_EQ(programsRun(), before + 1);
  Tensor unfused =
      unfusedChain(o::depthwiseConv2d(x, f, 1, 1, PadMode::kSame), bias,
                   FusedActivation::kRelu6);
  expectBitwiseEqual(fused, unfused);
  for (Tensor t : {fused, unfused, x, f, bias}) t.dispose();
}

// A captured 12-op elementwise chain fuses into one region, which the
// webgl-sim backend runs as one shader.
TEST(FusionWebglTest, CapturedElementwiseChainRunsOneProgram) {
  setBackend("webgl");
  Tensor x = o::randomNormal(Shape{4, 64}, 0, 1, 36);
  Tensor bias = o::randomNormal(Shape{64}, 0, 1, 37);
  Tensor scale = o::randomNormal(Shape{64}, 0, 0.5f, 38);
  const auto body = [&](const std::vector<Tensor>& ins) {
    Tensor t = o::add(ins[0], bias);
    t = o::relu(std::move(t));
    t = o::mulScalar(std::move(t), 1.25f);
    t = o::addScalar(std::move(t), -0.5f);
    t = o::square(std::move(t));
    t = o::neg(std::move(t));
    t = o::relu6(std::move(t));
    t = o::mul(std::move(t), scale);
    t = o::sub(std::move(t), bias);
    t = o::clipByValue(std::move(t), -4.0f, 4.0f);
    t = o::leakyRelu(std::move(t), 0.1f);
    t = o::addScalar(std::move(t), 0.25f);
    return std::vector<Tensor>{t};
  };
  std::vector<Tensor> eager = tidyAll([&] { return body({x}); });
  graph::CapturedGraph cg(graph::capture(body, {x}),
                          graph::PassOptions::all());
  cg.run({x})[0].dispose();  // first run sizes the arena
  const std::uint64_t before = programsRun();
  std::vector<Tensor> got = cg.run({x});
  EXPECT_EQ(programsRun(), before + 1);
  expectBitwiseEqual(eager[0], got[0]);
  for (Tensor t : {eager[0], got[0], x, bias, scale}) t.dispose();
  cg.dispose();
}

}  // namespace
}  // namespace tfjs
