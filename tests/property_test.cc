// Property-based test sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  * cross-backend agreement: every backend must produce the reference
//    backend's results over randomized inputs — the invariant behind the
//    paper's cross-browser testing story;
//  * broadcasting algebra (commutativity, identity, shape laws);
//  * convolution parameter grid vs the reference backend;
//  * gradient-vs-numerical checks over an op grid;
//  * serialization round-trip over quantization modes and shard limits.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "autodiff/tape.h"
#include "backends/common/ref_backend.h"
#include "core/engine.h"
#include "core/util.h"
#include "io/weights.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;

// ---------------------------------------------- cross-backend agreement

using BackendOpParam = std::tuple<const char*, const char*>;  // backend, op

class BackendAgreementTest
    : public ::testing::TestWithParam<BackendOpParam> {};

Tensor applyNamedOp(const std::string& op, const Tensor& a, const Tensor& b) {
  if (op == "add") return o::add(a, b);
  if (op == "sub") return o::sub(a, b);
  if (op == "mul") return o::mul(a, b);
  if (op == "div") return o::div(a, b);
  if (op == "maximum") return o::maximum(a, b);
  if (op == "squaredDifference") return o::squaredDifference(a, b);
  if (op == "sigmoid") return o::sigmoid(a);
  if (op == "tanh") return o::tanh(a);
  if (op == "relu") return o::relu(a);
  if (op == "exp") return o::exp(a);
  if (op == "softmax") return o::softmax(a);
  if (op == "matMul") return o::matMul(a, b);
  if (op == "transpose") return o::transpose(a);
  throw InvalidArgumentError("unknown op " + op);
}

TEST_P(BackendAgreementTest, MatchesNativeBackend) {
  const auto& [backend, op] = GetParam();
  // Reference values computed on native.
  setBackend("native");
  Tensor a = o::randomNormal(Shape{12, 12}, 0, 1, 101);
  // Divisor bounded away from zero for div.
  Tensor b = o::addScalar(o::abs(o::randomNormal(Shape{12, 12}, 0, 1, 102)),
                          0.5f);
  Tensor expected = applyNamedOp(op, a, b);
  const auto expectedVals = expected.dataSync();

  setBackend(backend);
  Tensor got = applyNamedOp(op, a, b);
  const auto gotVals = got.dataSync();
  ASSERT_EQ(gotVals.size(), expectedVals.size());
  for (std::size_t i = 0; i < gotVals.size(); ++i) {
    EXPECT_NEAR(gotVals[i], expectedVals[i], 1e-4f) << op << " at " << i;
  }
  setBackend("native");
  for (Tensor t : {a, b, expected, got}) t.dispose();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendAgreementTest,
    ::testing::Combine(
        ::testing::Values("cpu", "webgl"),
        ::testing::Values("add", "sub", "mul", "div", "maximum",
                          "squaredDifference", "sigmoid", "tanh", "relu",
                          "exp", "softmax", "matMul", "transpose")),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

// -------------------------------------------------- broadcasting algebra

struct BroadcastCase {
  const char* name;
  Shape a, b;
};

class BroadcastPropertyTest
    : public ::testing::TestWithParam<BroadcastCase> {
 protected:
  void SetUp() override { setBackend("native"); }
};

TEST_P(BroadcastPropertyTest, AddCommutesAndZeroIsIdentity) {
  const auto& p = GetParam();
  Tensor a = o::randomNormal(p.a, 0, 1, 7);
  Tensor b = o::randomNormal(p.b, 0, 1, 8);
  Tensor ab = o::add(a, b);
  Tensor ba = o::add(b, a);
  test::expectClose(ab, ba, 0);
  // The result broadcasts to the documented shape.
  EXPECT_EQ(ab.shape().toString(),
            util::broadcastShapes(p.a, p.b).toString());
  // x + 0 == x under any broadcast.
  Tensor zero = o::zeros(p.b);
  Tensor aPlus0 = o::add(a, zero);
  std::vector<int> coords(static_cast<std::size_t>(aPlus0.rank()));
  const auto av = a.dataSync();
  const auto sv = aPlus0.dataSync();
  for (std::size_t i = 0; i < sv.size(); ++i) {
    util::unravelIndex(i, aPlus0.shape(), coords);
    EXPECT_FLOAT_EQ(
        sv[i], av[util::broadcastIndex(coords, p.a, aPlus0.shape())]);
  }
  for (Tensor t : {a, b, ab, ba, zero, aPlus0}) t.dispose();
}

TEST_P(BroadcastPropertyTest, MulDistributesOverAdd) {
  const auto& p = GetParam();
  Tensor a = o::randomNormal(p.a, 0, 1, 9);
  Tensor b = o::randomNormal(p.b, 0, 1, 10);
  Tensor c = o::randomNormal(p.b, 0, 1, 11);
  Tensor lhs = o::mul(a, o::add(b, c));
  Tensor rhs = o::add(o::mul(a, b), o::mul(a, c));
  test::expectClose(lhs, rhs, 1e-4f);
  for (Tensor t : {a, b, c, lhs, rhs}) t.dispose();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastPropertyTest,
    ::testing::Values(BroadcastCase{"same", Shape{4, 5}, Shape{4, 5}},
                      BroadcastCase{"row", Shape{4, 5}, Shape{5}},
                      BroadcastCase{"col", Shape{4, 5}, Shape{4, 1}},
                      BroadcastCase{"scalar", Shape{3, 2, 4}, Shape{}},
                      BroadcastCase{"midUnit", Shape{2, 1, 3}, Shape{2, 4, 1}},
                      BroadcastCase{"rankUp", Shape{2, 3, 4}, Shape{3, 1}}),
    [](const auto& info) { return info.param.name; });

// --------------------------------------------------- conv parameter grid

// (filterSize, stride, pad, channels, backend)
using ConvParam = std::tuple<int, int, PadMode, int, const char*>;

class ConvGridTest : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvGridTest, MatchesReferenceBackend) {
  const auto& [filter, stride, pad, channels, backend] = GetParam();
  setBackend("native");
  Tensor x = o::randomNormal(Shape{2, 9, 9, channels}, 0, 1, 20);
  Tensor f = o::randomNormal(Shape{filter, filter, channels, 3}, 0, 0.5f, 21);
  Tensor expected = o::conv2d(x, f, stride, stride, pad);
  const auto expectedVals = expected.dataSync();

  setBackend(backend);
  Tensor got = o::conv2d(x, f, stride, stride, pad);
  const auto gotVals = got.dataSync();
  ASSERT_EQ(gotVals.size(), expectedVals.size());
  for (std::size_t i = 0; i < gotVals.size(); ++i) {
    EXPECT_NEAR(gotVals[i], expectedVals[i], 1e-3f) << "at " << i;
  }
  setBackend("native");
  for (Tensor t : {x, f, expected, got}) t.dispose();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvGridTest,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 2),
                       ::testing::Values(PadMode::kValid, PadMode::kSame),
                       ::testing::Values(1, 4),
                       ::testing::Values("cpu", "webgl")),
    [](const auto& info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) == PadMode::kValid ? "valid" : "same") +
             "_c" + std::to_string(std::get<3>(info.param)) + "_" +
             std::get<4>(info.param);
    });

// --------------------------------------------- gradient-vs-numerical grid

class GradCheckTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { setBackend("native"); }
};

TEST_P(GradCheckTest, AnalyticMatchesNumerical) {
  const std::string op = GetParam();
  auto f = [&op](const Tensor& t) {
    Tensor y;
    if (op == "sigmoid") {
      y = o::sigmoid(t);
    } else if (op == "tanh") {
      y = o::tanh(t);
    } else if (op == "exp") {
      y = o::exp(t);
    } else if (op == "softplus") {
      y = o::softplus(t);
    } else if (op == "square") {
      y = o::square(t);
    } else if (op == "sqrtAbs") {
      y = o::sqrt(o::addScalar(o::abs(t), 1));
    } else if (op == "logistic_loss") {
      y = o::log1p(o::exp(o::neg(t)));
    } else if (op == "swish") {
      y = o::mul(t, o::sigmoid(t));
    } else if (op == "softmaxEntropy") {
      Tensor s = o::softmax(t.reshape(Shape{1, static_cast<int>(t.size())}));
      y = o::neg(o::mul(s, o::log(o::maximum(s, o::scalar(1e-7f)))));
    } else {
      throw InvalidArgumentError("unknown " + op);
    }
    return o::sum(y);
  };
  Tensor x = o::tensor({0.3f, -0.7f, 1.2f, -0.1f, 0.9f}, Shape{5});
  Tensor analytic = autodiff::grad(f, x);

  // Central differences.
  const float eps = 1e-2f;
  const auto xv = x.dataSync();
  const auto gv = analytic.dataSync();
  for (std::size_t i = 0; i < xv.size(); ++i) {
    auto perturbed = xv;
    perturbed[i] += eps;
    Tensor xp = o::tensor(perturbed, x.shape());
    perturbed[i] -= 2 * eps;
    Tensor xm = o::tensor(perturbed, x.shape());
    Tensor yp = f(xp);
    Tensor ym = f(xm);
    const float numeric = (yp.scalarSync() - ym.scalarSync()) / (2 * eps);
    EXPECT_NEAR(gv[i], numeric, 5e-2f) << op << " at " << i;
    for (Tensor t : {xp, xm, yp, ym}) t.dispose();
  }
  x.dispose();
  analytic.dispose();
}

INSTANTIATE_TEST_SUITE_P(Ops, GradCheckTest,
                         ::testing::Values("sigmoid", "tanh", "exp",
                                           "softplus", "square", "sqrtAbs",
                                           "logistic_loss", "swish",
                                           "softmaxEntropy"),
                         [](const auto& info) { return info.param; });

// ------------------------------------------- serialization property sweep

using SerdeParam = std::tuple<io::Quantization, std::size_t>;

class SerdePropertyTest : public ::testing::TestWithParam<SerdeParam> {
 protected:
  void SetUp() override { setBackend("native"); }
};

TEST_P(SerdePropertyTest, RoundTripPreservesValuesWithinQuantError) {
  const auto& [quant, shardLimit] = GetParam();
  Tensor w1 = o::randomUniform(Shape{37, 11}, -3, 3, 30);
  Tensor w2 = o::randomNormal(Shape{129}, 5, 0.1f, 31);
  Tensor w3 = o::tensor({1, 2, 3}, Shape{3}, DType::i32);
  std::vector<std::pair<std::string, Tensor>> named = {
      {"a", w1}, {"b", w2}, {"c", w3}};
  io::WeightsManifest m = io::encodeWeights(named, quant, shardLimit);
  // Shard-size invariant: every shard except the last is exactly full.
  for (std::size_t i = 0; i + 1 < m.shards.size(); ++i) {
    EXPECT_EQ(m.shards[i].size(), shardLimit);
  }
  auto decoded = io::decodeWeights(m);
  ASSERT_EQ(decoded.size(), 3u);
  float tol = 0;
  if (quant == io::Quantization::kUint8) tol = 6.0f / 255 + 1e-5f;
  if (quant == io::Quantization::kUint16) tol = 6.0f / 65535 + 1e-6f;
  test::expectClose(decoded[0].second, w1, tol);
  test::expectClose(decoded[1].second, w2, tol);
  // Integer weights are never quantized.
  test::expectClose(decoded[2].second, w3, 0);
  EXPECT_EQ(decoded[2].second.dtype(), DType::i32);
  for (auto& [n, t] : decoded) t.dispose();
  for (Tensor t : {w1, w2, w3}) t.dispose();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerdePropertyTest,
    ::testing::Combine(::testing::Values(io::Quantization::kNone,
                                         io::Quantization::kUint8,
                                         io::Quantization::kUint16),
                       ::testing::Values(std::size_t{64}, std::size_t{1000},
                                         io::kDefaultShardBytes)),
    [](const auto& info) {
      return std::string(io::quantizationName(std::get<0>(info.param))) +
             "_shard" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------- reduction shape sweep

using ReduceParam = std::tuple<int, bool>;  // axis, keepDims

class ReduceShapeTest : public ::testing::TestWithParam<ReduceParam> {
 protected:
  void SetUp() override { setBackend("native"); }
};

TEST_P(ReduceShapeTest, SumMatchesManualAccumulation) {
  const auto& [axis, keepDims] = GetParam();
  const Shape shape{3, 4, 5};
  Tensor x = o::randomNormal(shape, 0, 1, 40);
  const std::array<int, 1> axes{axis};
  Tensor s = o::sum(x, axes, keepDims);
  // reducedShape takes canonical axes (ops normalize negatives first).
  const auto canonical = util::normalizeAxes(axes, 3);
  EXPECT_EQ(s.shape().toString(),
            util::reducedShape(shape, canonical, keepDims).toString());
  // Manual accumulation over the reduced axis.
  const auto xv = x.dataSync();
  const auto sv = s.dataSync();
  const int norm = axis < 0 ? axis + 3 : axis;
  std::vector<int> coords(3);
  std::vector<float> manual(sv.size(), 0.f);
  for (std::size_t i = 0; i < xv.size(); ++i) {
    util::unravelIndex(i, shape, coords);
    // Row-major index of the coordinates without the reduced axis (a kept
    // size-1 axis adds nothing to it).
    std::size_t out = 0;
    for (int d = 0; d < 3; ++d) {
      if (d == norm) continue;
      out = out * static_cast<std::size_t>(shape[d]) +
            static_cast<std::size_t>(coords[static_cast<std::size_t>(d)]);
    }
    manual[out] += xv[i];
  }
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_NEAR(sv[i], manual[i], 1e-4f);
  }
  x.dispose();
  s.dispose();
}

INSTANTIATE_TEST_SUITE_P(
    AxesByKeep, ReduceShapeTest,
    ::testing::Combine(::testing::Values(0, 1, 2, -1),
                       ::testing::Bool()),
    [](const auto& info) {
      const int axis = std::get<0>(info.param);
      return std::string("axis") + (axis < 0 ? "neg1" : std::to_string(axis)) +
             (std::get<1>(info.param) ? "_keep" : "_drop");
    });

}  // namespace
}  // namespace tfjs
