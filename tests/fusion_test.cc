// Fused kernel parity: fusedMatMul / fusedConv2d must be *bit-identical*
// to the unfused matMul -> add -> activation chain on every CPU backend
// (the epilogue runs after the full accumulation using the same scalar
// formulas), including the gradients (activation masks are computed from
// the fused output). The webgl backend has no fused kernels; there the ops
// compose from the public ops, which is trivially identical — covered by
// the WebglComposition tests at the bottom.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "autodiff/tape.h"
#include "backends/common/ref_backend.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "layers/core_layers.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;

const FusedActivation kAllActs[] = {
    FusedActivation::kNone, FusedActivation::kRelu, FusedActivation::kRelu6,
    FusedActivation::kSigmoid};

/// Registers the reference backend under its own name so the parity suite
/// can run on it directly (test_main registers cpu/native/webgl only).
void ensureRefRegistered() {
  static const bool once = [] {
    Engine::get().registerBackend(
        "ref", [] { return std::make_unique<backends::RefBackend>(); },
        /*priority=*/0);
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
    ensureRefRegistered();
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

TEST_P(FusionTest, DenseLayerRoutesThroughFusedPath) {
  auto& fusions = metrics::Registry::get().counter("fusion.matmul");
  const auto before = fusions.value();
  layers::DenseOptions opts;
  opts.units = 5;
  opts.activation = "relu";
  layers::Dense dense(opts);
  Tensor x = o::randomNormal(Shape{4, 7}, 0, 1, 26);
  Tensor y = dense.apply(x);
  EXPECT_EQ(fusions.value(), before + 1)
      << "Dense with a fusible activation should hit the fused kernel";
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

INSTANTIATE_TEST_SUITE_P(AllCpuBackends, FusionTest,
                         ::testing::Values("ref", "cpu", "native"));

// The webgl backend reports supportsFusedKernels() == false: the fused ops
// compose from public ops (keeping GPU-queue lifetimes correct) and the
// fusion counter must not move.
TEST(FusionWebglTest, ComposesWhenBackendHasNoFusedKernels) {
  setBackend("webgl");
  auto& fusions = metrics::Registry::get().counter("fusion.matmul");
  const auto before = fusions.value();
  Tensor a = o::randomNormal(Shape{4, 6}, 0, 1, 27);
  Tensor b = o::randomNormal(Shape{6, 3}, 0, 1, 28);
  Tensor bias = o::randomNormal(Shape{3}, 0, 1, 29);
  Tensor fused = o::fusedMatMul(a, b, bias, FusedActivation::kRelu);
  Tensor unfused = unfusedChain(o::matMul(a, b), bias, FusedActivation::kRelu);
  expectBitwiseEqual(fused, unfused);
  EXPECT_EQ(fusions.value(), before);
  fused.dispose();
  unfused.dispose();
  a.dispose();
  b.dispose();
  bias.dispose();
}

}  // namespace
}  // namespace tfjs
