// Eager autodiff tests (paper section 3.5): analytic gradients, numerical
// gradient checks, native control flow through the tape, variable gradients,
// and optimizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/optimizers.h"
#include "autodiff/tape.h"
#include "backends/common/ref_backend.h"
#include "backends/webgl/webgl_backend.h"
#include "core/engine.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;
namespace ad = autodiff;

class AutodiffTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { setBackend(GetParam()); }
};

// Run the full autodiff suite on native (fast) and webgl (async device);
// cpu shares kernels semantics with native via the shared scalar ops.
INSTANTIATE_TEST_SUITE_P(Backends, AutodiffTest,
                         ::testing::Values("native", "webgl"),
                         [](const auto& info) { return info.param; });

/// Central-difference numerical gradient of f at x (element-wise).
std::vector<float> numericalGrad(
    const std::function<Tensor(const Tensor&)>& f, const Tensor& x,
    float eps = 1e-2f) {
  const auto xv = x.dataSync();
  std::vector<float> g(xv.size());
  for (std::size_t i = 0; i < xv.size(); ++i) {
    auto perturbed = xv;
    perturbed[i] = xv[i] + eps;
    Tensor xp = o::tensor(perturbed, x.shape());
    perturbed[i] = xv[i] - eps;
    Tensor xm = o::tensor(perturbed, x.shape());
    Tensor yp = f(xp);
    Tensor ym = f(xm);
    g[i] = (yp.scalarSync() - ym.scalarSync()) / (2 * eps);
    xp.dispose();
    xm.dispose();
    yp.dispose();
    ym.dispose();
  }
  return g;
}

TEST_P(AutodiffTest, GradOfSquare) {
  Tensor x = o::tensor({3.f}, Shape{1});
  Tensor g = ad::grad([](const Tensor& t) { return o::sum(o::square(t)); }, x);
  test::expectValues(g, {6});  // d(x^2)/dx = 2x
  x.dispose();
  g.dispose();
}

TEST_P(AutodiffTest, GradBasicChain) {
  // y = sum((2x + 1)^2); dy/dx = 2 * (2x+1) * 2 = 8x + 4
  Tensor x = o::tensor({0, 1, 2}, Shape{3});
  Tensor g = ad::grad(
      [](const Tensor& t) {
        return o::sum(o::square(o::addScalar(o::mulScalar(t, 2), 1)));
      },
      x);
  test::expectValues(g, {4, 12, 20});
  x.dispose();
  g.dispose();
}

TEST_P(AutodiffTest, GradNotLeakedIntermediates) {
  Tensor x = o::tensor({1, 2}, Shape{2});
  const auto before = memory();
  Tensor g = ad::grad(
      [](const Tensor& t) { return o::sum(o::mul(o::exp(t), o::tanh(t))); },
      x);
  // Only the gradient survives the grad scope.
  EXPECT_EQ(memory().numTensors, before.numTensors + 1);
  g.dispose();
  x.dispose();
}

TEST_P(AutodiffTest, GradMatMul) {
  // y = sum(A·B): dA = ones·B^T, dB = A^T·ones.
  Tensor a = o::tensor({1, 2, 3, 4}, Shape{2, 2});
  Tensor b = o::tensor({5, 6, 7, 8}, Shape{2, 2});
  auto gs = ad::grads(
      [](std::span<const Tensor> xs) {
        return o::sum(o::matMul(xs[0], xs[1]));
      },
      std::array<Tensor, 2>{a, b});
  test::expectValues(gs[0], {11, 15, 11, 15});
  test::expectValues(gs[1], {4, 4, 6, 6});
  for (auto& g : gs) g.dispose();
  a.dispose();
  b.dispose();
}

TEST_P(AutodiffTest, GradBroadcastReducesCorrectly) {
  // z = sum(a * b) with b broadcast over rows: db sums over rows.
  Tensor a = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  Tensor b = o::tensor({1, 1, 1}, Shape{3});
  auto gs = ad::grads(
      [](std::span<const Tensor> xs) { return o::sum(o::mul(xs[0], xs[1])); },
      std::array<Tensor, 2>{a, b});
  test::expectShape(gs[1], Shape{3});
  test::expectValues(gs[1], {5, 7, 9});
  for (auto& g : gs) g.dispose();
  a.dispose();
  b.dispose();
}

TEST_P(AutodiffTest, NumericalCheckUnaryChain) {
  Tensor x = o::tensor({0.5f, -0.3f, 1.2f, 0.1f}, Shape{4});
  auto f = [](const Tensor& t) {
    return o::sum(o::mul(o::sigmoid(t), o::tanh(o::mulScalar(t, 0.5f))));
  };
  Tensor g = ad::grad(f, x);
  const auto expected = numericalGrad(f, x);
  test::expectValues(g, expected, 1e-2f);
  g.dispose();
  x.dispose();
}

TEST_P(AutodiffTest, NumericalCheckSoftmaxCrossEntropyStyle) {
  Tensor x = o::tensor({0.2f, -0.4f, 0.7f, 0.1f, 0.5f, -0.2f}, Shape{2, 3});
  Tensor labels = o::tensor({1, 0, 0, 0, 0, 1}, Shape{2, 3});
  labels.keep();
  auto f = [&labels](const Tensor& t) {
    Tensor p = o::softmax(t);
    Tensor logp = o::log(o::maximum(p, o::scalar(1e-7f)));
    return o::neg(o::sum(o::mul(labels, logp)));
  };
  Tensor g = ad::grad(f, x);
  const auto expected = numericalGrad(f, x);
  test::expectValues(g, expected, 2e-2f);
  g.dispose();
  x.dispose();
  labels.dispose();
}

TEST_P(AutodiffTest, NumericalCheckConv2D) {
  Tensor x = o::randomNormal(Shape{1, 4, 4, 2}, 0, 1, 11);
  Tensor f = o::randomNormal(Shape{3, 3, 2, 2}, 0, 0.5f, 12);
  f.keep();
  auto loss = [&f](const Tensor& t) {
    return o::sum(o::square(o::conv2d(t, f, 1, 1, PadMode::kSame)));
  };
  Tensor g = ad::grad(loss, x);
  const auto expected = numericalGrad(loss, x, 1e-2f);
  const auto got = g.dataSync();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 0.05f) << "at " << i;
  }
  g.dispose();
  x.dispose();
  f.dispose();
}

TEST_P(AutodiffTest, NumericalCheckDepthwiseConvAndPool) {
  Tensor x = o::randomNormal(Shape{1, 4, 4, 2}, 0, 1, 13);
  Tensor f = o::randomNormal(Shape{2, 2, 2, 1}, 0, 0.5f, 14);
  f.keep();
  auto loss = [&f](const Tensor& t) {
    Tensor dw = o::depthwiseConv2d(t, f, 1, 1, PadMode::kValid);
    Tensor p = o::avgPool(dw, 2, 2, 1, 1, PadMode::kValid);
    return o::sum(o::square(p));
  };
  Tensor g = ad::grad(loss, x);
  const auto expected = numericalGrad(loss, x, 1e-2f);
  const auto got = g.dataSync();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 0.05f) << "at " << i;
  }
  g.dispose();
  x.dispose();
  f.dispose();
}

TEST_P(AutodiffTest, MaxPoolRoutesGradientToArgmax) {
  Tensor x = o::tensor({1, 5, 2, 3}, Shape{1, 2, 2, 1});
  Tensor g = ad::grad(
      [](const Tensor& t) {
        return o::sum(o::maxPool(t, 2, 2, 1, 1, PadMode::kValid));
      },
      x);
  test::expectValues(g, {0, 1, 0, 0});
  g.dispose();
  x.dispose();
}

TEST_P(AutodiffTest, NativeControlFlowInTracedFunction) {
  // The eager benefit the paper highlights: plain C++ if/while in f.
  Tensor x = o::tensor({2.f}, Shape{1});
  auto f = [](const Tensor& t) {
    Tensor acc = t.clone();
    for (int i = 0; i < 3; ++i) {
      acc = o::mul(acc, t);  // acc = t^4 after loop
    }
    return o::sum(acc);
  };
  Tensor g = ad::grad(f, x);
  test::expectValues(g, {32});  // d(t^4)/dt = 4 t^3 = 32
  g.dispose();
  x.dispose();
}

// tile's adjoint adds every repetition's dy back into dx.
TEST_P(AutodiffTest, GradOfTileSumsRepetitions) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    test::expectValues(ad::grad(
                           [](const Tensor& t) {
                             return o::sum(
                                 o::tile(t, std::array<int, 2>{1, 2}));
                           },
                           x),
                       {2, 2, 2, 2});
    // Weighted: x [1, 2] tiled [2, 3] against w = 0..11, so dx[j] sums the
    // six w entries of column parity j.
    Tensor row = o::tensor({1, 2}, Shape{1, 2});
    Tensor w = o::range(0, 12).reshape(Shape{2, 6});
    Tensor g = ad::grad(
        [&w](const Tensor& t) {
          return o::sum(o::mul(o::tile(t, std::array<int, 2>{2, 3}), w));
        },
        row);
    test::expectShape(g, Shape{1, 2});
    test::expectValues(g, {30, 36});
  });
}

// gather on a non-leading axis: dx[a, c, b] sums dy[a, k, b] over every k
// with indices[k] == c.
TEST_P(AutodiffTest, GradOfGatherOnInnerAxis) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    Tensor idx = o::tensor({0, 1, 1}, Shape{3}, DType::i32);
    test::expectValues(ad::grad(
                           [&idx](const Tensor& t) {
                             return o::sum(o::gather(t, idx, 1));
                           },
                           x),
                       {1, 2, 1, 2});

    const int picks[] = {2, 0, 2, 1};
    Tensor x3 = o::range(0, 12).reshape(Shape{2, 3, 2});
    Tensor idx3 = o::tensor({2, 0, 2, 1}, Shape{4}, DType::i32);
    Tensor w = o::range(0, 16).reshape(Shape{2, 4, 2});
    Tensor g = ad::grad(
        [&](const Tensor& t) {
          return o::sum(o::mul(o::gather(t, idx3, -2), w));
        },
        x3);
    std::vector<float> want(12, 0.f);
    for (int a = 0; a < 2; ++a) {
      for (int k = 0; k < 4; ++k) {
        for (int b = 0; b < 2; ++b) {
          want[static_cast<std::size_t>((a * 3 + picks[k]) * 2 + b)] +=
              static_cast<float>((a * 4 + k) * 2 + b);
        }
      }
    }
    test::expectShape(g, Shape{2, 3, 2});
    test::expectValues(g, want);
  });
}

TEST_P(AutodiffTest, DisconnectedInputGetsZeros) {
  Tensor x = o::tensor({1, 2}, Shape{2});
  Tensor unused = o::tensor({3, 4}, Shape{2});
  auto gs = ad::grads(
      [](std::span<const Tensor> xs) { return o::sum(o::square(xs[0])); },
      std::array<Tensor, 2>{x, unused});
  test::expectValues(gs[1], {0, 0});
  for (auto& g : gs) g.dispose();
  x.dispose();
  unused.dispose();
}

TEST_P(AutodiffTest, ValueAndGradsReturnsLoss) {
  Tensor x = o::tensor({3.f}, Shape{1});
  auto [y, gs] = ad::valueAndGrads([&] { return o::sum(o::square(x)); },
                                   std::span<const Tensor>(&x, 1));
  EXPECT_FLOAT_EQ(y.scalarSync(), 9);
  test::expectValues(gs[0], {6});
  y.dispose();
  gs[0].dispose();
  x.dispose();
}

TEST_P(AutodiffTest, NestedGradThrows) {
  Tensor x = o::tensor({1.f}, Shape{1});
  EXPECT_THROW(
      ad::grad(
          [](const Tensor& t) {
            Tensor inner =
                ad::grad([](const Tensor& u) { return o::sum(u); }, t);
            return o::sum(inner);
          },
          x),
      InvalidArgumentError);
  x.dispose();
}

TEST_P(AutodiffTest, VariableGrads) {
  Variable w(o::tensor({2.f}, Shape{1}), "ad_w_" + std::string(GetParam()));
  Variable b(o::tensor({1.f}, Shape{1}), "ad_b_" + std::string(GetParam()));
  auto result = ad::variableGrads(
      [&] {
        // loss = (w*3 + b)^2 = 49; dw = 2*7*3 = 42, db = 2*7 = 14
        Tensor pred = o::add(o::mulScalar(w.value(), 3), b.value());
        return o::sum(o::square(pred));
      },
      std::array<Variable, 2>{w, b});
  EXPECT_FLOAT_EQ(result.value.scalarSync(), 49);
  test::expectValues(result.grads[0].second, {42});
  test::expectValues(result.grads[1].second, {14});
  result.value.dispose();
  for (auto& [v, g] : result.grads) g.dispose();
  w.dispose();
  b.dispose();
}

// ------------------------------------------- native backward kernels

/// Deterministic values in [-1, 1) (LCG), identical on every backend.
std::vector<float> lcgValues(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    x = static_cast<float>(s >> 8) / static_cast<float>(1u << 24) * 2.f - 1.f;
  }
  return v;
}

/// An op of the input x and a weight w (which pooling ignores).
using BinaryOpFn = std::function<Tensor(const Tensor&, const Tensor&)>;

/// Gradients of sum(op(x, w)^2) w.r.t. x and w on `backend`.
std::vector<std::vector<float>> squaredLossGrads(const char* backend,
                                                 const BinaryOpFn& op,
                                                 const Shape& xs,
                                                 const Shape& ws) {
  setBackend(backend);
  Tensor x = o::tensor(lcgValues(xs.size(), 1), xs);
  Tensor w = o::tensor(lcgValues(ws.size(), 2), ws);
  const std::array<Tensor, 2> in{x, w};
  std::vector<Tensor> gs = ad::grads(
      [&](std::span<const Tensor> t) {
        return o::sum(o::square(op(t[0], t[1])));
      },
      in);
  std::vector<std::vector<float>> out;
  for (Tensor& g : gs) {
    out.push_back(g.dataSync());
    g.dispose();
  }
  x.dispose();
  w.dispose();
  return out;
}

// Strided, dilated and padded conv, depthwise and pooling gradients on
// native (GEMM-lowered and register-tiled backward kernels) against the cpu
// backend (the reference backward loops), within rounding: native chains
// are FMA steps, the reference rounds products and sums separately.
TEST(NativeBackwardKernels, GradientsMatchCpuBackend) {
  struct Case {
    const char* name;
    Shape x, w;
    BinaryOpFn op;
  };
  const Case cases[] = {
      {"conv2d stride 2 same", Shape{2, 9, 9, 3}, Shape{3, 3, 3, 5},
       [](const Tensor& x, const Tensor& w) {
         return o::conv2d(x, w, 2, 2, PadMode::kSame);
       }},
      {"conv2d dilation 2 valid", Shape{2, 9, 10, 4}, Shape{3, 3, 4, 6},
       [](const Tensor& x, const Tensor& w) {
         return o::conv2d(x, w, 1, 1, PadMode::kValid, 2, 2);
       }},
      {"fusedConv2d relu stride 2 valid", Shape{2, 10, 9, 3},
       Shape{3, 3, 3, 7},
       [](const Tensor& x, const Tensor& w) {
         return o::fusedConv2d(x, w, Tensor{}, FusedActivation::kRelu, 2, 2,
                               PadMode::kValid);
       }},
      {"depthwise stride 2 mult 2 same", Shape{2, 9, 9, 4},
       Shape{3, 3, 4, 2},
       [](const Tensor& x, const Tensor& w) {
         return o::depthwiseConv2d(x, w, 2, 2, PadMode::kSame);
       }},
      {"depthwise dilation 2 same", Shape{2, 8, 9, 5}, Shape{3, 3, 5, 1},
       [](const Tensor& x, const Tensor& w) {
         return o::depthwiseConv2d(x, w, 1, 1, PadMode::kSame, 2, 2);
       }},
      {"maxPool 3x3 stride 2 same", Shape{2, 9, 9, 4}, Shape{1},
       [](const Tensor& x, const Tensor&) {
         return o::maxPool(x, 3, 3, 2, 2, PadMode::kSame);
       }},
      {"avgPool 3x3 stride 1 same", Shape{2, 7, 8, 3}, Shape{1},
       [](const Tensor& x, const Tensor&) {
         return o::avgPool(x, 3, 3, 1, 1, PadMode::kSame);
       }},
  };
  for (const Case& cs : cases) {
    const auto native = squaredLossGrads("native", cs.op, cs.x, cs.w);
    const auto cpu = squaredLossGrads("cpu", cs.op, cs.x, cs.w);
    for (std::size_t g = 0; g < native.size(); ++g) {
      ASSERT_EQ(native[g].size(), cpu[g].size()) << cs.name;
      for (std::size_t i = 0; i < native[g].size(); ++i) {
        const float scale =
            std::max({1.f, std::abs(native[g][i]), std::abs(cpu[g][i])});
        EXPECT_NEAR(native[g][i], cpu[g][i], 1e-4f * scale)
            << cs.name << ": gradient " << g << " at flat index " << i;
      }
    }
  }
}

/// Kernels named `name` in a profile.
std::size_t countKernels(const ProfileInfo& info, const std::string& name) {
  return static_cast<std::size_t>(std::count_if(
      info.kernels.begin(), info.kernels.end(),
      [&](const ProfileInfo::KernelRecord& k) { return k.name == name; }));
}

// A conv whose input nothing differentiates (a model's image batch) runs no
// input-gradient kernel, and its filter gradient is bitwise the one computed
// with the input watched too.
TEST(NativeBackwardKernels, UnwatchedConvInputRunsNoInputGradient) {
  setBackend("native");
  struct Case {
    const char* inputKernel;
    const char* filterKernel;
    Shape w;
    BinaryOpFn op;
  };
  const Case cases[] = {
      {"conv2dBackpropInput", "conv2dBackpropFilter", Shape{3, 3, 3, 4},
       [](const Tensor& x, const Tensor& w) {
         return o::conv2d(x, w, 1, 1, PadMode::kSame);
       }},
      {"conv2dBackpropInput", "conv2dBackpropFilter", Shape{3, 3, 3, 4},
       [](const Tensor& x, const Tensor& w) {
         return o::fusedConv2d(x, w, Tensor{}, FusedActivation::kRelu, 1, 1,
                               PadMode::kSame);
       }},
      {"depthwiseConv2dBackpropInput", "depthwiseConv2dBackpropFilter",
       Shape{3, 3, 3, 2},
       [](const Tensor& x, const Tensor& w) {
         return o::depthwiseConv2d(x, w, 1, 1, PadMode::kSame);
       }},
  };
  const Shape xs{2, 6, 7, 3};
  for (const Case& cs : cases) {
    Tensor x = o::tensor(lcgValues(xs.size(), 3), xs);
    Tensor w = o::tensor(lcgValues(cs.w.size(), 4), cs.w);
    const auto loss = [&](const Tensor& in, const Tensor& filter) {
      return o::sum(o::square(cs.op(in, filter)));
    };
    const std::array<Tensor, 2> both{x, w};
    std::vector<Tensor> gBoth = ad::grads(
        [&](std::span<const Tensor> t) { return loss(t[0], t[1]); }, both);
    Tensor gW;
    const ProfileInfo info = profile([&] {
      gW = ad::grad([&](const Tensor& filter) { return loss(x, filter); }, w);
    });
    EXPECT_EQ(countKernels(info, cs.inputKernel), 0u) << cs.inputKernel;
    EXPECT_EQ(countKernels(info, cs.filterKernel), 1u) << cs.filterKernel;
    const auto got = gW.dataSync();
    const auto want = gBoth[1].dataSync();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << cs.filterKernel << " differs from the both-watched gradient";
    for (Tensor& g : gBoth) g.dispose();
    gW.dispose();
    x.dispose();
    w.dispose();
  }
}

// ------------------------------------------------------------- optimizers

/// One quadratic-descent step sanity check per optimizer: loss must drop.
class OptimizerTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { setBackend("native"); }
};

INSTANTIATE_TEST_SUITE_P(All, OptimizerTest,
                         ::testing::Values("sgd", "momentum", "rmsprop",
                                           "adam", "adagrad"),
                         [](const auto& info) { return info.param; });

TEST_P(OptimizerTest, ConvergesOnQuadratic) {
  Variable x(o::tensor({5.f}, Shape{1}),
             std::string("opt_x_") + GetParam());
  // Adagrad's effective step decays as 1/sqrt(sum g^2); give it a larger
  // base rate so all optimizers are compared over the same 60 steps.
  const float lr = std::string(GetParam()) == "adagrad" ? 1.0f : 0.1f;
  auto optimizer = ad::makeOptimizer(GetParam(), lr);
  auto loss = [&] { return o::sum(o::square(x.value())); };
  float first = 0, last = 0;
  for (int i = 0; i < 60; ++i) {
    Tensor cost = optimizer->minimize(loss, /*returnCost=*/true,
                                      std::array<Variable, 1>{x});
    const float c = cost.scalarSync();
    if (i == 0) first = c;
    last = c;
    cost.dispose();
  }
  EXPECT_LT(last, first * 0.2f) << "optimizer " << GetParam()
                                << " failed to reduce the loss";
  x.dispose();
}

TEST_F(OptimizerTest, SgdMatchesClosedForm) {
  setBackend("native");
  Variable x(o::tensor({1.f}, Shape{1}), "opt_sgd_exact");
  ad::SGDOptimizer sgd(0.25f);
  // loss = x^2, grad = 2x, step: x <- x - 0.25*2x = 0.5x
  for (int i = 0; i < 3; ++i) {
    Tensor c = sgd.minimize([&] { return o::sum(o::square(x.value())); });
    (void)c;
  }
  EXPECT_NEAR(x.value().scalarSync(), 0.125f, 1e-6f);
  x.dispose();
}

TEST_F(OptimizerTest, MinimizeDoesNotLeak) {
  setBackend("native");
  Variable x(o::tensor({2.f}, Shape{1}), "opt_leak_check");
  ad::AdamOptimizer adam(0.01f);
  auto loss = [&] { return o::sum(o::square(x.value())); };
  // Warm-up creates the optimizer slots.
  adam.minimize(loss, false, std::array<Variable, 1>{x});
  const auto before = memory();
  for (int i = 0; i < 5; ++i) {
    adam.minimize(loss, false, std::array<Variable, 1>{x});
  }
  EXPECT_EQ(memory().numTensors, before.numTensors);
  EXPECT_EQ(memory().numBytes, before.numBytes);
  x.dispose();
}

/// An optimizer with its slots readable.
template <class Opt>
struct Exposed : Opt {
  using Opt::Opt;
  using Opt::slot;
};

/// The op-by-op update chain an optimizer's regions must match bit for
/// bit, run by the test itself: returns the new parameter and replaces
/// the chain's slots.
using Slots = std::map<std::string, Tensor>;
using Chain = std::function<Tensor(const Tensor& v, const Tensor& g,
                                   Slots& slots, int step)>;

void replaceSlot(Slots& slots, const std::string& name, const Tensor& t) {
  Tensor& s = slots[name];
  if (s.defined()) s.dispose();
  t.keep();
  s = t;
}

Tensor slotOr(Slots& slots, const std::string& name,
              const std::function<Tensor()>& init) {
  if (!slots.count(name)) replaceSlot(slots, name, init());
  return slots[name];
}

/// Runs `opt` and `chain` side by side for six steps on a [3, 5] and a
/// scalar variable, with gradients that mix negatives and zeros of both
/// signs, and compares every parameter and slot with memcmp after each.
template <class Opt>
void expectUpdatesMatchChain(const std::string& tag, Exposed<Opt>& opt,
                             const std::vector<std::string>& slotNames,
                             const Chain& chain) {
  const std::vector<Shape> shapes{Shape{3, 5}, Shape{}};
  std::vector<Variable> vars;
  std::vector<Tensor> chainVars;
  std::vector<Slots> chainSlots(shapes.size());
  std::uint32_t seed = 99;
  const auto values = [&seed](const Shape& s, float scale) {
    std::vector<float> v(s.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      seed = seed * 1664525u + 1013904223u;
      v[i] = scale * (static_cast<float>(seed >> 8) / (1u << 24) * 2 - 1);
      if (seed % 5 == 0) v[i] = seed % 2 == 0 ? 0.f : -0.f;
    }
    return v;
  };
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const std::vector<float> init = values(shapes[k], 3.f);
    vars.emplace_back(o::tensor(init, shapes[k]),
                      tag + "_var" + std::to_string(k));
    chainVars.push_back(o::tensor(init, shapes[k]));
  }
  const auto same = [](const Tensor& a, const Tensor& b) {
    const std::vector<float> av = a.dataSync(), bv = b.dataSync();
    return av.size() == bv.size() &&
           std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) == 0;
  };
  for (int step = 1; step <= 6; ++step) {
    std::vector<std::pair<Variable, Tensor>> grads;
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      // The scalar variable's first gradient is -0.
      std::vector<float> g = values(shapes[k], 2.f);
      if (shapes[k].rank() == 0 && step == 1) g[0] = -0.f;
      grads.emplace_back(vars[k], o::tensor(g, shapes[k]));
    }
    opt.applyGradients(grads);
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      Tensor next = chain(chainVars[k], grads[k].second, chainSlots[k], step);
      chainVars[k].dispose();
      chainVars[k] = next;
      const std::string at = tag + " step " + std::to_string(step) +
                             " variable " + std::to_string(k);
      EXPECT_TRUE(same(vars[k].value(), next)) << at;
      for (const std::string& name : slotNames) {
        EXPECT_TRUE(same(opt.slot(vars[k], name), chainSlots[k][name]))
            << at << " slot " << name;
      }
      grads[k].second.dispose();
    }
  }
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    vars[k].dispose();
    chainVars[k].dispose();
    for (auto& [name, t] : chainSlots[k]) t.dispose();
  }
}

TEST_F(OptimizerTest, UpdatesMatchOpChainBitwise) {
  static const bool registered = [] {
    Engine::get().registerBackend(
        "ref", [] { return std::make_unique<backends::RefBackend>(); },
        /*priority=*/0);
    backends::webgl::WebGLOptions unpacked;
    unpacked.packed = false;
    backends::webgl::registerBackendVariant("webgl-unpacked", unpacked);
    return true;
  }();
  (void)registered;
  const float lr = 0.05f;
  for (const char* backend :
       {"ref", "cpu", "native", "webgl", "webgl-unpacked"}) {
    setBackend(backend);
    const std::string b = backend;
    {
      Exposed<ad::SGDOptimizer> sgd(lr);
      expectUpdatesMatchChain(
          b + " sgd", sgd, {},
          [&](const Tensor& v, const Tensor& g, Slots&, int) {
            return tidy([&] { return o::sub(v, o::mulScalar(g, lr)); });
          });
    }
    {
      Exposed<ad::MomentumOptimizer> momentum(lr, 0.9f);
      expectUpdatesMatchChain(
          b + " momentum", momentum, {"m"},
          [&](const Tensor& v, const Tensor& g, Slots& slots, int) {
            const Tensor m =
                slotOr(slots, "m", [&] { return o::zerosLike(v); });
            Tensor newM =
                tidy([&] { return o::add(o::mulScalar(m, 0.9f), g); });
            Tensor next =
                tidy([&] { return o::sub(v, o::mulScalar(newM, lr)); });
            replaceSlot(slots, "m", newM);
            return next;
          });
    }
    {
      Exposed<ad::RMSPropOptimizer> rmsprop(lr);
      expectUpdatesMatchChain(
          b + " rmsprop", rmsprop, {"ms"},
          [&](const Tensor& v, const Tensor& g, Slots& slots, int) {
            const Tensor ms =
                slotOr(slots, "ms", [&] { return o::zerosLike(v); });
            Tensor newMs = tidy([&] {
              return o::add(o::mulScalar(ms, 0.9f),
                            o::mulScalar(o::square(g), 1.0f - 0.9f));
            });
            Tensor next = tidy([&] {
              return o::sub(v, o::div(o::mulScalar(g, lr),
                                      o::sqrt(o::addScalar(newMs, 1e-7f))));
            });
            replaceSlot(slots, "ms", newMs);
            return next;
          });
    }
    {
      Exposed<ad::AdamOptimizer> adam(lr);
      expectUpdatesMatchChain(
          b + " adam", adam, {"m", "v"},
          [&](const Tensor& v, const Tensor& g, Slots& slots, int step) {
            const float beta1 = 0.9f, beta2 = 0.999f;
            const float c1 = 1.0f - std::pow(beta1, static_cast<float>(step));
            const float c2 = 1.0f - std::pow(beta2, static_cast<float>(step));
            const Tensor m =
                slotOr(slots, "m", [&] { return o::zerosLike(v); });
            const Tensor vv =
                slotOr(slots, "v", [&] { return o::zerosLike(v); });
            Tensor newM = tidy([&] {
              return o::add(o::mulScalar(m, beta1),
                            o::mulScalar(g, 1.0f - beta1));
            });
            Tensor newV = tidy([&] {
              return o::add(o::mulScalar(vv, beta2),
                            o::mulScalar(o::square(g), 1.0f - beta2));
            });
            Tensor next = tidy([&] {
              Tensor mHat = o::divScalar(newM, c1);
              Tensor vHat = o::divScalar(newV, c2);
              return o::sub(v, o::div(o::mulScalar(mHat, lr),
                                      o::addScalar(o::sqrt(vHat), 1e-7f)));
            });
            replaceSlot(slots, "m", newM);
            replaceSlot(slots, "v", newV);
            return next;
          });
    }
    {
      Exposed<ad::AdagradOptimizer> adagrad(lr);
      expectUpdatesMatchChain(
          b + " adagrad", adagrad, {"acc"},
          [&](const Tensor& v, const Tensor& g, Slots& slots, int) {
            const Tensor acc = slotOr(slots, "acc",
                                      [&] { return o::fill(v.shape(), 0.1f); });
            Tensor newAcc = tidy([&] { return o::add(acc, o::square(g)); });
            Tensor next = tidy([&] {
              return o::sub(v, o::div(o::mulScalar(g, lr),
                                      o::addScalar(o::sqrt(newAcc), 1e-7f)));
            });
            replaceSlot(slots, "acc", newAcc);
            return next;
          });
    }
  }
  setBackend("native");
}

}  // namespace
}  // namespace tfjs
