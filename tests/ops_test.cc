// Ops API tests, parameterized over every backend ("cpu" interpreted,
// "native" vectorized, "webgl" simulated GPU) so all kernels are checked for
// agreement on the same cases — the cross-backend consistency the paper's
// testing infrastructure enforces across browsers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backends/common/ref_backend.h"
#include "backends/webgl/webgl_backend.h"
#include "core/engine.h"
#include "core/util.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;

class OpsTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { setBackend(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, OpsTest,
                         ::testing::Values("cpu", "native", "webgl"),
                         [](const auto& info) { return info.param; });

// ----------------------------------------------------------------- binary

TEST_P(OpsTest, AddSameShape) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    Tensor b = o::tensor({10, 20, 30, 40}, Shape{2, 2});
    test::expectValues(o::add(a, b), {11, 22, 33, 44});
  });
}

TEST_P(OpsTest, AddBroadcastRowVector) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
    Tensor b = o::tensor({10, 20, 30}, Shape{3});
    test::expectValues(o::add(a, b), {11, 22, 33, 14, 25, 36});
  });
}

TEST_P(OpsTest, AddBroadcastColumnAndScalar) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    Tensor col = o::tensor({10, 20}, Shape{2, 1});
    test::expectValues(o::add(a, col), {11, 12, 23, 24});
    test::expectValues(o::addScalar(a, 100), {101, 102, 103, 104});
  });
}

TEST_P(OpsTest, SubMulDiv) {
  tidyVoid([] {
    Tensor a = o::tensor({4, 9, 16, 25}, Shape{4});
    Tensor b = o::tensor({2, 3, 4, 5}, Shape{4});
    test::expectValues(o::sub(a, b), {2, 6, 12, 20});
    test::expectValues(o::mul(a, b), {8, 27, 64, 125});
    test::expectValues(o::div(a, b), {2, 3, 4, 5});
  });
}

TEST_P(OpsTest, PowMaximumMinimum) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3}, Shape{3});
    Tensor b = o::tensor({3, 2, 1}, Shape{3});
    test::expectValues(o::pow(a, b), {1, 4, 3});
    test::expectValues(o::maximum(a, b), {3, 2, 3});
    test::expectValues(o::minimum(a, b), {1, 2, 1});
    test::expectValues(o::squaredDifference(a, b), {4, 0, 4});
  });
}

TEST_P(OpsTest, FloorDivAndMod) {
  tidyVoid([] {
    Tensor a = o::tensor({7, -7, 7.5f}, Shape{3});
    Tensor b = o::tensor({2, 2, 2}, Shape{3});
    test::expectValues(o::floorDiv(a, b), {3, -4, 3});
    test::expectValues(o::mod(a, b), {1, 1, 1.5f});  // floored mod
  });
}

TEST_P(OpsTest, Comparisons) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3}, Shape{3});
    Tensor b = o::tensor({2, 2, 2}, Shape{3});
    test::expectValues(o::equal(a, b), {0, 1, 0});
    test::expectValues(o::notEqual(a, b), {1, 0, 1});
    test::expectValues(o::greater(a, b), {0, 0, 1});
    test::expectValues(o::greaterEqual(a, b), {0, 1, 1});
    test::expectValues(o::less(a, b), {1, 0, 0});
    test::expectValues(o::lessEqual(a, b), {1, 1, 0});
    EXPECT_EQ(o::equal(a, b).dtype(), DType::b8);
  });
}

TEST_P(OpsTest, LogicalOps) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 1, 0, 0}, Shape{4}, DType::b8);
    Tensor b = o::tensor({1, 0, 1, 0}, Shape{4}, DType::b8);
    test::expectValues(o::logicalAnd(a, b), {1, 0, 0, 0});
    test::expectValues(o::logicalOr(a, b), {1, 1, 1, 0});
    test::expectValues(o::logicalXor(a, b), {0, 1, 1, 0});
    test::expectValues(o::logicalNot(a), {0, 0, 1, 1});
  });
}

TEST_P(OpsTest, Where) {
  tidyVoid([] {
    Tensor c = o::tensor({1, 0, 1, 0}, Shape{4}, DType::b8);
    Tensor a = o::tensor({1, 2, 3, 4}, Shape{4});
    Tensor b = o::tensor({10, 20, 30, 40}, Shape{4});
    test::expectValues(o::where(c, a, b), {1, 20, 3, 40});
  });
}

// ------------------------------------------------------------------ unary

TEST_P(OpsTest, BasicUnary) {
  tidyVoid([] {
    Tensor x = o::tensor({-2, -0.5f, 0, 1.5f}, Shape{4});
    test::expectValues(o::neg(x), {2, 0.5f, 0, -1.5f});
    test::expectValues(o::abs(x), {2, 0.5f, 0, 1.5f});
    test::expectValues(o::sign(x), {-1, -1, 0, 1});
    test::expectValues(o::floor(x), {-2, -1, 0, 1});
    test::expectValues(o::ceil(x), {-2, 0, 0, 2});
    test::expectValues(o::square(x), {4, 0.25f, 0, 2.25f});
  });
}

TEST_P(OpsTest, ExpLogSqrt) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 4, 9}, Shape{3});
    test::expectValues(o::sqrt(x), {1, 2, 3});
    test::expectValues(o::rsqrt(x), {1, 0.5f, 1.0f / 3}, 1e-4f);
    test::expectValues(o::log(x), {0, std::log(4.f), std::log(9.f)}, 1e-4f);
    Tensor e = o::tensor({0, 1, 2}, Shape{3});
    test::expectValues(o::exp(e), {1, std::exp(1.f), std::exp(2.f)}, 1e-3f);
  });
}

TEST_P(OpsTest, Activations) {
  tidyVoid([] {
    Tensor x = o::tensor({-3, -1, 0, 2, 8}, Shape{5});
    test::expectValues(o::relu(x), {0, 0, 0, 2, 8});
    test::expectValues(o::relu6(x), {0, 0, 0, 2, 6});
    test::expectValues(o::leakyRelu(x, 0.1f), {-0.3f, -0.1f, 0, 2, 8},
                       1e-5f);
    test::expectValues(o::sigmoid(o::tensor({0.f}, Shape{1})), {0.5f});
    test::expectValues(o::tanh(o::tensor({0.f}, Shape{1})), {0});
    test::expectValues(o::clipByValue(x, -1, 3), {-1, -1, 0, 2, 3});
    test::expectValues(o::step(x), {0, 0, 0, 1, 1});
  });
}

TEST_P(OpsTest, EluSeluSoftplusErf) {
  tidyVoid([] {
    Tensor x = o::tensor({-1, 0, 1}, Shape{3});
    test::expectValues(o::elu(x), {std::expm1(-1.f), 0, 1}, 1e-5f);
    test::expectValues(o::softplus(x),
                       {std::log1p(std::exp(-1.f)), std::log(2.f),
                        std::log1p(std::exp(1.f))},
                       1e-4f);
    test::expectValues(o::erf(x), {std::erf(-1.f), 0, std::erf(1.f)}, 1e-4f);
  });
}

TEST_P(OpsTest, NaNAndFiniteChecks) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 0, -1}, Shape{3});
    Tensor nan = o::log(o::tensor({-1.f}, Shape{1}));
    test::expectValues(o::isNaN(nan), {1});
    test::expectValues(o::isFinite(x), {1, 1, 1});
  });
}

// ----------------------------------------------------------------- matmul

TEST_P(OpsTest, MatMul2D) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
    Tensor b = o::tensor({7, 8, 9, 10, 11, 12}, Shape{3, 2});
    test::expectValues(o::matMul(a, b), {58, 64, 139, 154});
  });
}

TEST_P(OpsTest, MatMulTransposes) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});   // [2,3]
    Tensor aT = o::tensor({1, 4, 2, 5, 3, 6}, Shape{3, 2});  // a^T
    Tensor b = o::tensor({7, 8, 9, 10, 11, 12}, Shape{3, 2});
    Tensor bT = o::tensor({7, 9, 11, 8, 10, 12}, Shape{2, 3});
    Tensor expected = o::matMul(a, b);
    test::expectClose(o::matMul(aT, b, true, false), expected);
    test::expectClose(o::matMul(a, bT, false, true), expected);
    test::expectClose(o::matMul(aT, bT, true, true), expected);
  });
}

TEST_P(OpsTest, MatMulBatchedAndBroadcast) {
  tidyVoid([] {
    // batch 2: identical matrices stacked should equal twice the 2D result.
    Tensor a = o::tensor({1, 2, 3, 4, 1, 2, 3, 4}, Shape{2, 2, 2});
    Tensor b = o::tensor({5, 6, 7, 8, 5, 6, 7, 8}, Shape{2, 2, 2});
    Tensor y = o::matMul(a, b);
    test::expectValues(y, {19, 22, 43, 50, 19, 22, 43, 50});
    // broadcast: batch-1 rhs against batch-2 lhs.
    Tensor b1 = o::tensor({5, 6, 7, 8}, Shape{1, 2, 2});
    test::expectClose(o::matMul(a, b1), y);
  });
}

TEST_P(OpsTest, MatMulShapeMismatchThrows) {
  Tensor a = o::tensor({1, 2, 3, 4}, Shape{2, 2});
  Tensor b = o::tensor({1, 2, 3}, Shape{3, 1});
  EXPECT_THROW(o::matMul(a, b), InvalidArgumentError);
  a.dispose();
  b.dispose();
}

TEST_P(OpsTest, DotAndOuter) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2, 3}, Shape{3});
    Tensor b = o::tensor({4, 5, 6}, Shape{3});
    EXPECT_FLOAT_EQ(o::dot(a, b).scalarSync(), 32);
    test::expectValues(o::outerProduct(a, b),
                       {4, 5, 6, 8, 10, 12, 12, 15, 18});
  });
}

// ------------------------------------------------------------ convolution

TEST_P(OpsTest, Conv2DIdentityKernel) {
  tidyVoid([] {
    // 1x1 identity filter: output == input.
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{1, 2, 2, 1});
    Tensor f = o::tensor({1.f}, Shape{1, 1, 1, 1});
    test::expectValues(o::conv2d(x, f, 1, 1, PadMode::kValid), {1, 2, 3, 4});
  });
}

TEST_P(OpsTest, Conv2DKnownValues) {
  tidyVoid([] {
    // 3x3 input, 2x2 sum filter, valid: each output = sum of 2x2 patch.
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6, 7, 8, 9}, Shape{1, 3, 3, 1});
    Tensor f = o::ones(Shape{2, 2, 1, 1});
    test::expectValues(o::conv2d(x, f, 1, 1, PadMode::kValid),
                       {12, 16, 24, 28});
  });
}

TEST_P(OpsTest, Conv2DSamePadding) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{1, 2, 2, 1});
    Tensor f = o::ones(Shape{3, 3, 1, 1});
    // SAME keeps 2x2 output; each value sums the in-bounds 3x3 patch.
    test::expectValues(o::conv2d(x, f, 1, 1, PadMode::kSame),
                       {10, 10, 10, 10});
  });
}

TEST_P(OpsTest, Conv2DStride2) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                          16},
                         Shape{1, 4, 4, 1});
    Tensor f = o::ones(Shape{2, 2, 1, 1});
    test::expectValues(o::conv2d(x, f, 2, 2, PadMode::kValid),
                       {14, 22, 46, 54});
  });
}

TEST_P(OpsTest, Conv2DMultiChannel) {
  tidyVoid([] {
    // 2 input channels, 2 output channels, 1x1 filter = matmul over C.
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{1, 1, 2, 2});
    Tensor f = o::tensor({1, 0, 0, 1}, Shape{1, 1, 2, 2});  // identity
    test::expectValues(o::conv2d(x, f, 1, 1, PadMode::kValid), {1, 2, 3, 4});
    Tensor mix = o::tensor({0, 1, 1, 0}, Shape{1, 1, 2, 2});  // swap
    test::expectValues(o::conv2d(x, mix, 1, 1, PadMode::kValid),
                       {2, 1, 4, 3});
  });
}

TEST_P(OpsTest, DepthwiseConv2D) {
  tidyVoid([] {
    // Two channels, each with its own 2x2 sum filter scaled by 1 and 10.
    Tensor x = o::tensor({1, 1, 2, 2, 3, 3, 4, 4}, Shape{1, 2, 2, 2});
    std::vector<float> fv(2 * 2 * 2 * 1);
    // filter[fy][fx][c][0] = c == 0 ? 1 : 10
    for (int fy = 0; fy < 2; ++fy) {
      for (int fx = 0; fx < 2; ++fx) {
        fv[static_cast<std::size_t>((fy * 2 + fx) * 2 + 0)] = 1;
        fv[static_cast<std::size_t>((fy * 2 + fx) * 2 + 1)] = 10;
      }
    }
    Tensor f = o::tensor(fv, Shape{2, 2, 2, 1});
    test::expectValues(o::depthwiseConv2d(x, f, 1, 1, PadMode::kValid),
                       {10, 100});
  });
}

TEST_P(OpsTest, DepthwiseChannelMultiplier) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{1, 2, 2, 1});
    // channel multiplier 2: filter [1,1,1,2] with weights 1 and -1.
    Tensor f = o::tensor({1, -1}, Shape{1, 1, 1, 2});
    test::expectValues(o::depthwiseConv2d(x, f, 1, 1, PadMode::kValid),
                       {1, -1, 2, -2, 3, -3, 4, -4});
  });
}

TEST_P(OpsTest, SeparableConv2D) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{1, 2, 2, 1});
    Tensor dw = o::ones(Shape{2, 2, 1, 1});
    Tensor pw = o::tensor({2.f}, Shape{1, 1, 1, 1});
    test::expectValues(o::separableConv2d(x, dw, pw, 1, 1, PadMode::kValid),
                       {20});
  });
}

TEST_P(OpsTest, MaxAndAvgPool) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                          16},
                         Shape{1, 4, 4, 1});
    test::expectValues(o::maxPool(x, 2, 2, 2, 2, PadMode::kValid),
                       {6, 8, 14, 16});
    test::expectValues(o::avgPool(x, 2, 2, 2, 2, PadMode::kValid),
                       {3.5f, 5.5f, 11.5f, 13.5f});
  });
}

TEST_P(OpsTest, PoolSamePaddingExcludesPad) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{1, 2, 2, 1});
    // 3x3 SAME avg pool: corners average their in-bounds cells only.
    test::expectValues(o::avgPool(x, 3, 3, 1, 1, PadMode::kSame),
                       {2.5f, 2.5f, 2.5f, 2.5f});
  });
}

// -------------------------------------------------------------- reductions

TEST_P(OpsTest, SumAllAndAxes) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
    EXPECT_FLOAT_EQ(o::sum(x).scalarSync(), 21);
    test::expectValues(o::sum(x, std::array<int, 1>{0}), {5, 7, 9});
    test::expectValues(o::sum(x, std::array<int, 1>{1}), {6, 15});
    test::expectValues(o::sum(x, std::array<int, 1>{-1}), {6, 15});
    Tensor keep = o::sum(x, std::array<int, 1>{1}, true);
    test::expectShape(keep, Shape{2, 1});
  });
}

TEST_P(OpsTest, MeanMaxMinProd) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
    EXPECT_FLOAT_EQ(o::mean(x).scalarSync(), 3.5f);
    test::expectValues(o::mean(x, std::array<int, 1>{1}), {2, 5});
    EXPECT_FLOAT_EQ(o::max(x).scalarSync(), 6);
    EXPECT_FLOAT_EQ(o::min(x).scalarSync(), 1);
    test::expectValues(o::max(x, std::array<int, 1>{0}), {4, 5, 6});
    test::expectValues(o::prod(x, std::array<int, 1>{1}), {6, 120});
  });
}

TEST_P(OpsTest, AnyAllArgMaxArgMin) {
  tidyVoid([] {
    Tensor b = o::tensor({1, 0, 0, 1, 1, 1}, Shape{2, 3}, DType::b8);
    test::expectValues(o::any(b, std::array<int, 1>{1}), {1, 1});
    test::expectValues(o::all(b, std::array<int, 1>{1}), {0, 1});
    Tensor x = o::tensor({3, 9, 4, 8, 2, 5}, Shape{2, 3});
    test::expectValues(o::argMax(x), {1, 0});
    test::expectValues(o::argMin(x), {0, 1});
    EXPECT_EQ(o::argMax(x).dtype(), DType::i32);
    // Reduction over a non-trailing axis exercises the transpose path.
    test::expectValues(o::argMax(x, 0), {1, 0, 1});
  });
}

// -------------------------------------------------------------- transforms

TEST_P(OpsTest, ReshapeWithInference) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
    test::expectShape(o::reshape(x, Shape{3, -1}), Shape{3, 2});
    test::expectShape(o::flatten(x), Shape{6});
    EXPECT_THROW(o::reshape(x, Shape{-1, -1}), InvalidArgumentError);
  });
}

TEST_P(OpsTest, Transpose) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
    test::expectValues(o::transpose(x), {1, 4, 2, 5, 3, 6});
    Tensor x3 = o::tensor({1, 2, 3, 4, 5, 6, 7, 8}, Shape{2, 2, 2});
    test::expectValues(o::transpose(x3, std::array<int, 3>{2, 1, 0}),
                       {1, 5, 3, 7, 2, 6, 4, 8});
  });
}

TEST_P(OpsTest, SliceAndNegativeSize) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4, 5, 6, 7, 8, 9}, Shape{3, 3});
    test::expectValues(
        o::slice(x, std::array<int, 2>{1, 1}, std::array<int, 2>{2, 2}),
        {5, 6, 8, 9});
    test::expectValues(
        o::slice(x, std::array<int, 2>{0, 2}, std::array<int, 2>{-1, -1}),
        {3, 6, 9});
    EXPECT_THROW(
        o::slice(x, std::array<int, 2>{2, 2}, std::array<int, 2>{2, 2}),
        InvalidArgumentError);
  });
}

TEST_P(OpsTest, ConcatStackSplitUnstack) {
  tidyVoid([] {
    Tensor a = o::tensor({1, 2}, Shape{1, 2});
    Tensor b = o::tensor({3, 4}, Shape{1, 2});
    test::expectValues(o::concat({a, b}, 0), {1, 2, 3, 4});
    test::expectValues(o::concat({a, b}, 1), {1, 2, 3, 4});
    test::expectShape(o::concat({a, b}, 1), Shape{1, 4});

    Tensor s = o::stack(std::array<Tensor, 2>{a.reshape(Shape{2}),
                                              b.reshape(Shape{2})});
    test::expectShape(s, Shape{2, 2});
    test::expectValues(s, {1, 2, 3, 4});

    auto parts = o::split(s, 2, 0);
    test::expectValues(parts[0], {1, 2});
    test::expectValues(parts[1], {3, 4});

    auto rows = o::unstack(s, 0);
    ASSERT_EQ(rows.size(), 2u);
    test::expectShape(rows[0], Shape{2});
    test::expectValues(rows[1], {3, 4});
  });
}

TEST_P(OpsTest, PadGatherTileReverse) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    test::expectValues(
        o::pad(x, std::array<std::pair<int, int>, 2>{{{1, 0}, {0, 1}}}, 9),
        {9, 9, 9, 1, 2, 9, 3, 4, 9});

    Tensor idx = o::tensor({1, 0, 1}, Shape{3}, DType::i32);
    test::expectValues(o::gather(x, idx, 0), {3, 4, 1, 2, 3, 4});
    test::expectValues(o::gather(x, idx, 1), {2, 1, 2, 4, 3, 4});

    test::expectValues(o::tile(x, std::array<int, 2>{1, 2}),
                       {1, 2, 1, 2, 3, 4, 3, 4});
    test::expectValues(o::reverse(x, std::array<int, 1>{0}), {3, 4, 1, 2});
    test::expectValues(o::reverse(x, std::array<int, 1>{1}), {2, 1, 4, 3});
  });
}

TEST_P(OpsTest, GatherOutOfRangeThrows) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Tensor x = o::tensor({1, 2, 3, 4, 5, 6}, Shape{2, 3});
  // Each index out of range of either axis, the ones a float-to-integer
  // cast cannot represent included (a 2^31 or 1e10 index on axis 1 of a
  // [2, 3] tensor would alias a valid element after wrapping).
  for (const float bad : {5.f, 3.f, -1.f, -1.5f, kInf, -kInf, 2147483648.f,
                          1e10f, std::numeric_limits<float>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    Tensor idx = o::tensor({0, bad}, Shape{2}, DType::i32);
    EXPECT_THROW(
        {
          Tensor y = o::gather(x, idx, 1);
          y.dataSync();  // webgl validates lazily at execution
          y.dispose();
        },
        Error);
    idx.dispose();
  }
  // In range, an index truncates toward zero.
  tidyVoid([&] {
    Tensor idx = o::tensor({-0.5f, 2.7f, 1.f}, Shape{3}, DType::i32);
    test::expectValues(o::gather(x, idx, 1), {1, 3, 2, 4, 6, 5});
  });
  x.dispose();
}

TEST_P(OpsTest, ExpandSqueezeOneHot) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2}, Shape{2});
    test::expectShape(o::expandDims(x, 0), Shape{1, 2});
    test::expectShape(o::expandDims(x, -1), Shape{2, 1});
    test::expectShape(o::squeeze(o::tensor({1.f}, Shape{1, 1, 1})), Shape{});

    Tensor idx = o::tensor({0, 2}, Shape{2}, DType::i32);
    test::expectValues(o::oneHot(idx, 3), {1, 0, 0, 0, 0, 1});
    test::expectValues(o::oneHot(idx, 3, 5, -5), {5, -5, -5, -5, -5, 5});

    // Indices truncate toward zero; one outside [0, depth), NaN and ±inf
    // included, gives an all-off row.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    Tensor odd = o::tensor({-0.5f, 2.7f, -1.f, 3.f, 2147483648.f, 1e10f,
                            std::numeric_limits<float>::quiet_NaN(), kInf,
                            -kInf},
                           Shape{9}, DType::i32);
    std::vector<float> want(27, -5);
    want[0] = 5;      // -0.5 -> 0
    want[3 + 2] = 5;  // 2.7 -> 2
    test::expectValues(o::oneHot(odd, 3, 5, -5), want);
  });
}

TEST_P(OpsTest, ResizeBilinear) {
  tidyVoid([] {
    Tensor x = o::tensor({0, 2, 4, 6}, Shape{1, 2, 2, 1});
    Tensor up = o::resizeBilinear(x, 4, 4, /*alignCorners=*/true);
    const auto v = up.dataSync();
    EXPECT_FLOAT_EQ(v[0], 0);
    EXPECT_FLOAT_EQ(v[3], 2);
    EXPECT_FLOAT_EQ(v[12], 4);
    EXPECT_FLOAT_EQ(v[15], 6);
    // Downsize keeps corners under alignCorners.
    Tensor same = o::resizeBilinear(x, 2, 2, true);
    test::expectValues(same, {0, 2, 4, 6});
  });
}

// ------------------------------------------------------------- activations

TEST_P(OpsTest, SoftmaxRowsSumToOne) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 1, 1, 1}, Shape{2, 3});
    Tensor y = o::softmax(x);
    const auto v = y.dataSync();
    EXPECT_NEAR(v[0] + v[1] + v[2], 1.0f, 1e-5f);
    EXPECT_NEAR(v[3], 1.0f / 3, 1e-5f);
    EXPECT_LT(v[0], v[1]);
    EXPECT_LT(v[1], v[2]);
  });
}

TEST_P(OpsTest, SoftmaxNumericallyStableForLargeLogits) {
  tidyVoid([] {
    // Without the max-shift these logits would overflow exp().
    Tensor x = o::tensor({1000, 1001, 1002}, Shape{1, 3});
    Tensor y = o::softmax(x);
    const auto v = y.dataSync();
    EXPECT_NEAR(v[0] + v[1] + v[2], 1.0f, 1e-5f);
    EXPECT_FALSE(std::isnan(v[0]));
  });
}

TEST_P(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  tidyVoid([] {
    Tensor x = o::tensor({0.5f, -1, 2, 0, 1, -2}, Shape{2, 3});
    test::expectClose(o::logSoftmax(x), o::log(o::softmax(x)), 1e-4f);
  });
}

TEST_P(OpsTest, BatchNormInference) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    Tensor mean = o::tensor({2, 3}, Shape{2});
    Tensor variance = o::tensor({1, 4}, Shape{2});
    Tensor offset = o::tensor({0, 1}, Shape{2});
    Tensor scale = o::tensor({1, 2}, Shape{2});
    Tensor y = o::batchNorm(x, mean, variance, offset, scale, 0);
    // col0: (x-2)/1*1+0 ; col1: (x-3)/2*2+1
    test::expectValues(y, {-1, 0, 1, 2}, 1e-3f);
  });
}

TEST_P(OpsTest, DropoutZeroRateIsIdentityAndScaling) {
  tidyVoid([] {
    Tensor x = o::ones(Shape{1000});
    test::expectClose(o::dropout(x, 0), x);
    Tensor y = o::dropout(x, 0.5f, 7);
    const auto v = y.dataSync();
    int zeros = 0;
    for (float f : v) {
      EXPECT_TRUE(f == 0.f || std::fabs(f - 2.f) < 1e-6f);
      zeros += f == 0.f;
    }
    EXPECT_GT(zeros, 350);
    EXPECT_LT(zeros, 650);
  });
}

// ------------------------------------------------------------ advanced ops

TEST_P(OpsTest, Cumsum) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{4});
    test::expectValues(o::cumsum(x), {1, 3, 6, 10});
    test::expectValues(o::cumsum(x, 0, /*exclusive=*/true), {0, 1, 3, 6});
    test::expectValues(o::cumsum(x, 0, false, /*reverse=*/true),
                       {10, 9, 7, 4});
    test::expectValues(o::cumsum(x, 0, true, true), {9, 7, 4, 0});
    // Axis 0 of a matrix sums down columns (exercises the transpose path).
    Tensor m = o::tensor({1, 2, 3, 4}, Shape{2, 2});
    test::expectValues(o::cumsum(m, 0), {1, 2, 4, 6});
    test::expectValues(o::cumsum(m, 1), {1, 3, 3, 7});
  });
}

TEST_P(OpsTest, L2NormalizeAndNorm) {
  tidyVoid([] {
    Tensor x = o::tensor({3, 4}, Shape{2});
    test::expectValues(o::l2Normalize(x), {0.6f, 0.8f}, 1e-5f);
    EXPECT_NEAR(o::norm(x).scalarSync(), 5.0f, 1e-5f);
    EXPECT_NEAR(o::norm(x, 1).scalarSync(), 7.0f, 1e-5f);
    EXPECT_NEAR(o::norm(x, -1).scalarSync(), 4.0f, 1e-5f);  // inf-norm
    // Zero vectors stay finite thanks to the epsilon guard.
    Tensor zero = o::zeros(Shape{3});
    for (float v : o::l2Normalize(zero).dataSync()) EXPECT_FLOAT_EQ(v, 0);
  });
}

TEST_P(OpsTest, MomentsAndLogSumExp) {
  tidyVoid([] {
    Tensor x = o::tensor({1, 2, 3, 4}, Shape{4});
    o::Moments m = o::moments(x);
    EXPECT_NEAR(m.mean.scalarSync(), 2.5f, 1e-5f);
    EXPECT_NEAR(m.variance.scalarSync(), 1.25f, 1e-5f);
    // Stable even for logits that would overflow a naive exp.
    Tensor big = o::tensor({1000, 1001}, Shape{2});
    const float expected = 1001.0f + std::log1p(std::exp(-1.0f));
    EXPECT_NEAR(o::logSumExp(big).scalarSync(), expected, 1e-3f);
  });
}

TEST_P(OpsTest, Prelu) {
  tidyVoid([] {
    Tensor x = o::tensor({-2, -1, 0, 3}, Shape{4});
    Tensor alpha = o::scalar(0.25f);
    test::expectValues(o::prelu(x, alpha), {-0.5f, -0.25f, 0, 3});
  });
}

// ---------------------------------------------------------------- creation

TEST_P(OpsTest, CreationOps) {
  tidyVoid([] {
    test::expectValues(o::zeros(Shape{3}), {0, 0, 0});
    test::expectValues(o::ones(Shape{2}), {1, 1});
    test::expectValues(o::fill(Shape{2}, 3.5f), {3.5f, 3.5f});
    test::expectValues(o::eye(2), {1, 0, 0, 1});
    test::expectValues(o::range(0, 5, 2), {0, 2, 4});
    test::expectValues(o::range(3, 0, -1), {3, 2, 1});
    test::expectValues(o::linspace(0, 1, 3), {0, 0.5f, 1});
    Tensor n = o::randomNormal(Shape{1000}, 0, 1, 1);
    EXPECT_NEAR(o::mean(n).scalarSync(), 0, 0.1);
    Tensor u = o::randomUniform(Shape{1000}, -1, 1, 2);
    EXPECT_NEAR(o::mean(u).scalarSync(), 0, 0.1);
    // Determinism: same seed, same values.
    test::expectClose(o::randomNormal(Shape{8}, 0, 1, 3),
                      o::randomNormal(Shape{8}, 0, 1, 3));
  });
}

TEST_P(OpsTest, OperatorOverloads) {
  using namespace tfjs::ops;  // NOLINT: operators
  tidyVoid([] {
    Tensor a = o::tensor({6, 8}, Shape{2});
    Tensor b = o::tensor({2, 4}, Shape{2});
    test::expectValues(a + b, {8, 12});
    test::expectValues(a - b, {4, 4});
    test::expectValues(a * b, {12, 32});
    test::expectValues(a / b, {3, 2});
  });
}

// ------------------------------------------ one-instruction region oracle
//
// Every elementwise op is a one-instruction program through
// Backend::fusedRegion, whose kernels resolve each input to a dense,
// scalar, suffix or generic access path. These tests hold every path to
// the naive per-element oracle — unravel the output index, broadcastIndex
// into each input, apply the scalar formula — bit for bit, for every
// UnaryOp and BinaryOp code and for select.

/// test_main registers cpu/native/webgl; the reference backend and the
/// unpacked webgl variant are added here.
void ensureOracleBackendsRegistered() {
  static const bool once = [] {
    Engine::get().registerBackend(
        "ref", [] { return std::make_unique<backends::RefBackend>(); },
        /*priority=*/0);
    backends::webgl::WebGLOptions unpacked;
    unpacked.packed = false;
    backends::webgl::registerBackendVariant("webgl-unpacked", unpacked);
    return true;
  }();
  (void)once;
}

/// Deterministic values in [lo, hi] (LCG), with exact zeros of both signs
/// mixed in so comparisons, sign, step and the logical ops see them.
std::vector<float> oracleData(const Shape& s, std::uint32_t seed, float lo,
                              float hi) {
  std::vector<float> v(s.size());
  std::uint32_t x = seed * 2654435761u + 7u;
  for (std::size_t i = 0; i < v.size(); ++i) {
    x = x * 1664525u + 1013904223u;
    v[i] = lo + (hi - lo) * static_cast<float>(x >> 8) /
                    static_cast<float>(1u << 24);
    if (i % 7 == 3) v[i] = i % 2 == 0 ? 0.f : -0.f;
  }
  return v;
}

struct OracleInput {
  Shape shape;
  std::vector<float> data;
};

/// The naive oracle's load: input `in`'s element for flat output index i.
float oracleLoad(const OracleInput& in, const Shape& out, std::size_t i) {
  std::vector<int> coords(static_cast<std::size_t>(out.rank()));
  util::unravelIndex(i, out, coords);
  return in.data[util::broadcastIndex(coords, in.shape, out)];
}

class RegionOracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ensureOracleBackendsRegistered();
    setBackend(GetParam());
  }

  /// Runs `program` over `inputs` on the active backend and checks every
  /// output element bitwise against `oracle(i)` (two NaNs compare equal:
  /// their payloads are not part of any op's contract). With `inPlace` the
  /// first input's buffer is offered as the destination.
  template <typename Oracle>
  void expectMatchesOracle(std::span<const RegionInstr> program,
                           const std::vector<OracleInput>& inputs,
                           const Shape& out, Oracle oracle,
                           bool inPlace = false) {
    Backend& be = Engine::get().backend();
    std::vector<TensorSpec> specs;
    for (const OracleInput& in : inputs) {
      specs.push_back({be.write(in.data, in.shape), in.shape, DType::f32});
    }
    const DataId dst = inPlace ? specs[0].id : 0;
    const DataId id = be.fusedRegion(program, specs, out, dst);
    if (inPlace && !std::string(GetParam()).starts_with("webgl")) {
      EXPECT_EQ(id, dst) << "the CPU backends write in place";
    }
    const std::vector<float> got = be.read(id);
    be.disposeData(id);
    for (const TensorSpec& s : specs) {
      if (s.id != id) be.disposeData(s.id);
    }
    ASSERT_EQ(got.size(), out.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const float want = oracle(i);
      if (std::isnan(got[i]) && std::isnan(want)) continue;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want))
          << "flat index " << i << ": got " << got[i] << ", want " << want;
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, RegionOracleTest,
                         ::testing::Values("ref", "cpu", "native", "webgl",
                                           "webgl-unpacked"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name;
                         });

// topk is one Backend::topk kernel returning values and indices. Its order
// is the same on every backend: descending, NaN above every number, equal
// values (NaN and ±0 included) in ascending index order.
using TopKTest = RegionOracleTest;

INSTANTIATE_TEST_SUITE_P(Backends, TopKTest,
                         ::testing::Values("ref", "cpu", "native", "webgl",
                                           "webgl-unpacked"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name;
                         });

TEST_P(TopKTest, TiesAndNaNBitwise) {
  tidyVoid([] {
    Tensor x = o::tensor({3, 9, 4, 8, 2, 5}, Shape{2, 3});
    o::TopK top = o::topk(x, 2);
    test::expectShape(top.values, Shape{2, 2});
    test::expectValues(top.values, {9, 4, 8, 5});
    test::expectValues(top.indices, {1, 2, 0, 2});
    EXPECT_EQ(top.indices.dtype(), DType::i32);
    // k == lastDim returns a full descending sort.
    o::TopK full = o::topk(x, 3);
    test::expectValues(full.values, {9, 4, 3, 8, 5, 2});
    EXPECT_THROW(o::topk(x, 4), InvalidArgumentError);

    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    Tensor special = o::tensor({3, kNaN, 7, 7, kNaN, -kInf,  //
                                0, -0.f, 2, 2, -1, 5},
                               Shape{2, 6});
    const auto expectBits = [](const Tensor& t,
                               const std::vector<float>& want) {
      const std::vector<float> got = t.dataSync();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::isnan(got[i]) && std::isnan(want[i])) continue;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << "element " << i << ": got " << got[i] << ", want " << want[i];
      }
    };
    o::TopK part = o::topk(special, 4);
    expectBits(part.values, {kNaN, kNaN, 7, 7, 5, 2, 2, 0});
    expectBits(part.indices, {1, 4, 2, 3, 5, 2, 3, 0});
    o::TopK sorted = o::topk(special, 6);
    expectBits(sorted.values,
               {kNaN, kNaN, 7, 7, 3, -kInf, 5, 2, 2, 0, -0.f, -1});
    expectBits(sorted.indices, {1, 4, 2, 3, 0, 5, 5, 2, 3, 0, 1, 4});
  });
}

TEST_P(RegionOracleTest, EveryUnaryOpCode) {
  // Shape{3, 29} cycles through special values (±0, ±inf, NaN, negatives,
  // denormals, the extremes) in whole vectors and in a ragged tail.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.f,
                            -0.f,
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::quiet_NaN(),
                            -1.f,
                            -2.5f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            -3e-39f,
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            0.5f,
                            4.f,
                            -0.25f};
  for (const Shape& shape : {Shape{3, 5}, Shape{}, Shape{700}, Shape{0},
                             Shape{4, 0, 2}, Shape{3, 29}}) {
    OracleInput x{shape, oracleData(shape, 1, -3.f, 3.f)};
    if (shape == Shape{3, 29}) {
      for (std::size_t i = 0; i < x.data.size(); ++i) {
        x.data[i] = specials[i % std::size(specials)];
      }
    }
    for (int op = 0; op <= static_cast<int>(UnaryOp::kMulScalar); ++op) {
      SCOPED_TRACE("unary op " + std::to_string(op) + " over " +
                   shape.toString());
      // alpha/beta parameterize leakyRelu, clip, step, pow, add and mul.
      const RegionInstr instr{.kind = RegionInstr::Kind::kUnary,
                              .op = op,
                              .a = -1,
                              .alpha = -0.25f,
                              .beta = 0.5f};
      expectMatchesOracle({&instr, 1}, {x}, shape, [&](std::size_t i) {
        return backends::applyUnary(static_cast<UnaryOp>(op),
                                    oracleLoad(x, shape, i), -0.25f, 0.5f);
      });
    }
  }
}

TEST_P(RegionOracleTest, EveryBinaryOpCodeOverBroadcastClasses) {
  const std::pair<Shape, Shape> cases[] = {
      {Shape{3, 5}, Shape{3, 5}},        // dense
      {Shape{3, 5}, Shape{}},            // scalar second operand
      {Shape{}, Shape{3, 5}},            // scalar first operand
      {Shape{1, 1}, Shape{2, 3, 5}},     // size-1, rank-2 scalar
      {Shape{4, 3, 5}, Shape{5}},        // suffix [C] bias
      {Shape{3, 5}, Shape{4, 3, 5}},     // suffix first operand
      {Shape{2, 1, 5}, Shape{1, 5}},     // suffix with leading 1s
      {Shape{3, 700}, Shape{700}},       // suffix longer than a 512 block
      {Shape{600, 3}, Shape{3}},         // short suffix over many blocks
      {Shape{3, 1}, Shape{1, 5}},        // generic [N,1] x [1,M]
      {Shape{2, 3, 1}, Shape{3, 4}},     // generic, rank mismatch
      {Shape{4, 1, 5}, Shape{4, 3, 5}},  // generic middle broadcast
      {Shape{0, 5}, Shape{5}},           // zero-size suffix
      {Shape{0, 5}, Shape{0, 5}},        // zero-size dense
      {Shape{3, 0}, Shape{}},            // zero-size scalar
      {Shape{0, 1}, Shape{1, 4}},        // zero-size generic
  };
  for (const auto& [aShape, bShape] : cases) {
    const Shape out = util::broadcastShapes(aShape, bShape);
    const OracleInput a{aShape, oracleData(aShape, 2, -3.f, 3.f)};
    const OracleInput b{bShape, oracleData(bShape, 3, -2.f, 2.f)};
    for (int op = 0; op <= static_cast<int>(BinaryOp::kLogicalXor); ++op) {
      SCOPED_TRACE("binary op " + std::to_string(op) + ": " +
                   aShape.toString() + " x " + bShape.toString());
      const RegionInstr instr{
          .kind = RegionInstr::Kind::kBinary, .op = op, .a = -1, .b = -2};
      expectMatchesOracle({&instr, 1}, {a, b}, out, [&](std::size_t i) {
        return backends::applyBinary(static_cast<BinaryOp>(op),
                                     oracleLoad(a, out, i),
                                     oracleLoad(b, out, i));
      });
    }
  }
}

// Every op code twice more: as the interior instruction of a two-instruction
// program (native's scratch-row path; a negation, exact for every value,
// reads it back) and as a one-instruction program offered its first input
// as the destination (the in-place path), at lengths on both sides of
// native's 512-element block and of its 32768-element parallel grain.
TEST_P(RegionOracleTest, EveryOpCodeInteriorAndInPlace) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.f, -0.f, kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(), -2.5f};
  const RegionInstr neg = RegionInstr::unary(UnaryOp::kNeg, 0);
  const auto negate = [](float v) {
    return backends::applyUnary(UnaryOp::kNeg, v, 0, 0);
  };
  for (const int len : {511, 513, 32767, 32769}) {
    const Shape shape{len};
    OracleInput a{shape, oracleData(shape, 7, -3.f, 3.f)};
    OracleInput b{shape, oracleData(shape, 8, -2.f, 2.f)};
    for (std::size_t i = 0; i < a.data.size(); i += 11) {
      a.data[i] = specials[i / 11 % std::size(specials)];
      b.data[i] = specials[i / 11 * 3 % std::size(specials)];
    }
    for (int op = 0; op <= static_cast<int>(UnaryOp::kMulScalar); ++op) {
      SCOPED_TRACE("unary op " + std::to_string(op) + " over " +
                   std::to_string(len));
      const RegionInstr instr{.kind = RegionInstr::Kind::kUnary,
                              .op = op,
                              .a = -1,
                              .alpha = -0.25f,
                              .beta = 0.5f};
      const auto want = [&](std::size_t i) {
        return backends::applyUnary(static_cast<UnaryOp>(op), a.data[i],
                                    -0.25f, 0.5f);
      };
      const RegionInstr interior[] = {instr, neg};
      expectMatchesOracle(interior, {a}, shape,
                          [&](std::size_t i) { return negate(want(i)); });
      expectMatchesOracle({&instr, 1}, {a}, shape, want, /*inPlace=*/true);
    }
    for (int op = 0; op <= static_cast<int>(BinaryOp::kLogicalXor); ++op) {
      SCOPED_TRACE("binary op " + std::to_string(op) + " over " +
                   std::to_string(len));
      const RegionInstr instr = RegionInstr::binary(static_cast<BinaryOp>(op),
                                                    RegionInstr::input(0),
                                                    RegionInstr::input(1));
      const auto want = [&](std::size_t i) {
        return backends::applyBinary(static_cast<BinaryOp>(op), a.data[i],
                                     b.data[i]);
      };
      const RegionInstr interior[] = {instr, neg};
      expectMatchesOracle(interior, {a, b}, shape,
                          [&](std::size_t i) { return negate(want(i)); });
      expectMatchesOracle({&instr, 1}, {a, b}, shape, want, /*inPlace=*/true);
    }
  }
}

TEST_P(RegionOracleTest, SelectOverBroadcastClasses) {
  struct Case {
    Shape cond, a, b;
  };
  const Case cases[] = {
      {Shape{3, 5}, Shape{3, 5}, Shape{3, 5}},        // dense
      {Shape{}, Shape{3, 5}, Shape{3, 5}},            // scalar cond
      {Shape{3, 5}, Shape{}, Shape{3, 5}},            // scalar branch
      {Shape{4, 3, 5}, Shape{5}, Shape{4, 3, 5}},     // suffix branch
      {Shape{5}, Shape{4, 3, 5}, Shape{}},            // suffix cond
      {Shape{3, 700}, Shape{700}, Shape{700}},        // suffix > one block
      {Shape{3, 1}, Shape{1, 5}, Shape{3, 5}},        // generic
      {Shape{1, 5}, Shape{3, 1}, Shape{}},            // generic, scalar b
      {Shape{0, 5}, Shape{5}, Shape{0, 5}},           // zero-size
  };
  for (const Case& cs : cases) {
    const Shape out =
        util::broadcastShapes(util::broadcastShapes(cs.cond, cs.a), cs.b);
    // Conditions mix nonzero values, +0, -0 (false) and NaN (true).
    OracleInput c{cs.cond, oracleData(cs.cond, 4, -1.f, 1.f)};
    for (std::size_t i = 0; i < c.data.size(); ++i) {
      if (i % 3 == 0) c.data[i] = i % 2 == 0 ? 0.f : -0.f;
      if (i % 5 == 1) c.data[i] = std::numeric_limits<float>::quiet_NaN();
    }
    const OracleInput a{cs.a, oracleData(cs.a, 5, -3.f, 3.f)};
    const OracleInput b{cs.b, oracleData(cs.b, 6, -3.f, 3.f)};
    SCOPED_TRACE(cs.cond.toString() + " ? " + cs.a.toString() + " : " +
                 cs.b.toString());
    const RegionInstr instr{
        .kind = RegionInstr::Kind::kSelect, .a = -1, .b = -2, .c = -3};
    expectMatchesOracle({&instr, 1}, {c, a, b}, out, [&](std::size_t i) {
      return oracleLoad(c, out, i) != 0 ? oracleLoad(a, out, i)
                                        : oracleLoad(b, out, i);
    });
  }
}


// ------------------------------------------------- data-movement oracle
//
// transpose, slice, concat, pad, tile, reverse and fill are all one
// Backend::copyStrided call. This test holds each to a naive per-element
// loop over the output — unravel the output index, find the input element
// (or the fill value) that lands there, ravel its coordinates — bit for
// bit, over random ranks 0-5 with size-1 and zero-size dims.

/// Row-major coordinates of flat index i in `dims`.
std::vector<int> unravelCoords(std::size_t i, const std::vector<int>& dims) {
  std::vector<int> c(dims.size());
  for (std::size_t d = dims.size(); d-- > 0;) {
    const auto n = static_cast<std::size_t>(dims[d]);
    c[d] = static_cast<int>(i % n);
    i /= n;
  }
  return c;
}

std::size_t ravelCoords(const std::vector<int>& c,
                        const std::vector<int>& dims) {
  std::size_t flat = 0;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    flat = flat * static_cast<std::size_t>(dims[d]) +
           static_cast<std::size_t>(c[d]);
  }
  return flat;
}

TEST_P(RegionOracleTest, DataMovementMatchesIndexOracle) {
  std::uint32_t seed = 12345u;
  const auto next = [&seed](int bound) {
    seed = seed * 1664525u + 1013904223u;
    return static_cast<int>((seed >> 8) % static_cast<std::uint32_t>(bound));
  };
  const char* const kOps[] = {"transpose", "slice", "concat", "pad",
                              "tile",      "reverse", "fill"};
  for (int trial = 0; trial < 210; ++trial) {
    const std::string op = kOps[trial % 7];
    // concat needs an axis; every other op also runs rank 0.
    const int rank = op == "concat" ? 1 + next(5) : next(6);
    const auto r = static_cast<std::size_t>(rank);
    std::vector<int> dims(r);
    for (int& d : dims) d = 1 + next(5);
    // One trial in five has a zero-size dim.
    if (rank > 0 && trial % 5 == 1) {
      dims[static_cast<std::size_t>(next(rank))] = 0;
    }

    std::vector<std::vector<int>> inDims{dims};
    std::vector<int> outDims = dims;
    const float fillValue = -1.5f - static_cast<float>(trial);
    // Maps output coordinates to (input, its coordinates); -1 = fill value.
    std::function<int(const std::vector<int>&, std::vector<int>&)> source;
    std::function<Tensor(const std::vector<Tensor>&)> run;

    if (op == "transpose") {
      std::vector<int> perm(r);
      for (int d = 0; d < rank; ++d) perm[static_cast<std::size_t>(d)] = d;
      for (int d = rank - 1; d > 0; --d) {
        std::swap(perm[static_cast<std::size_t>(d)],
                  perm[static_cast<std::size_t>(next(d + 1))]);
      }
      for (std::size_t d = 0; d < r; ++d) {
        outDims[d] = dims[static_cast<std::size_t>(perm[d])];
      }
      source = [perm, r](const std::vector<int>& out, std::vector<int>& in) {
        for (std::size_t d = 0; d < r; ++d) {
          in[static_cast<std::size_t>(perm[d])] = out[d];
        }
        return 0;
      };
      run = [perm](const std::vector<Tensor>& xs) {
        return o::transpose(xs[0], perm);
      };
    } else if (op == "slice") {
      std::vector<int> begin(r), size(r);
      for (std::size_t d = 0; d < r; ++d) {  // empty only on a zero dim
        begin[d] = dims[d] == 0 ? 0 : next(dims[d]);
        size[d] = dims[d] == 0 ? 0 : 1 + next(dims[d] - begin[d]);
      }
      outDims = size;
      source = [begin, r](const std::vector<int>& out, std::vector<int>& in) {
        for (std::size_t d = 0; d < r; ++d) in[d] = out[d] + begin[d];
        return 0;
      };
      run = [begin, size](const std::vector<Tensor>& xs) {
        return o::slice(xs[0], begin, size);
      };
    } else if (op == "concat") {
      const int axis = next(rank);
      const auto a = static_cast<std::size_t>(axis);
      inDims.clear();
      outDims[a] = 0;
      for (int j = 0, n = 2 + next(2); j < n; ++j) {
        inDims.push_back(dims);
        inDims.back()[a] = next(4);
        outDims[a] += inDims.back()[a];
      }
      source = [inDims, a](const std::vector<int>& out, std::vector<int>& in) {
        in = out;
        for (std::size_t j = 0;; ++j) {
          if (in[a] < inDims[j][a]) return static_cast<int>(j);
          in[a] -= inDims[j][a];
        }
      };
      run = [axis](const std::vector<Tensor>& xs) {
        return o::concat(xs, axis);
      };
    } else if (op == "pad") {
      std::vector<std::pair<int, int>> pads(r);
      for (std::size_t d = 0; d < r; ++d) {
        pads[d] = {next(3), next(3)};
        outDims[d] += pads[d].first + pads[d].second;
      }
      source = [pads, dims, r](const std::vector<int>& out,
                               std::vector<int>& in) {
        for (std::size_t d = 0; d < r; ++d) {
          in[d] = out[d] - pads[d].first;
          if (in[d] < 0 || in[d] >= dims[d]) return -1;
        }
        return 0;
      };
      run = [pads, fillValue](const std::vector<Tensor>& xs) {
        return o::pad(xs[0], pads, fillValue);
      };
    } else if (op == "tile") {
      std::vector<int> reps(r);
      for (std::size_t d = 0; d < r; ++d) {
        reps[d] = 1 + next(3);
        outDims[d] *= reps[d];
      }
      source = [dims, r](const std::vector<int>& out, std::vector<int>& in) {
        for (std::size_t d = 0; d < r; ++d) in[d] = out[d] % dims[d];
        return 0;
      };
      run = [reps](const std::vector<Tensor>& xs) {
        return o::tile(xs[0], reps);
      };
    } else if (op == "reverse") {
      // Each axis flips with probability 1/2, named by a positive or a
      // negative index.
      std::vector<int> axes;
      std::vector<bool> flip(r, false);
      for (int d = 0; d < rank; ++d) {
        if (next(2) == 0) continue;
        flip[static_cast<std::size_t>(d)] = true;
        axes.push_back(next(2) == 0 ? d : d - rank);
      }
      source = [flip, dims, r](const std::vector<int>& out,
                               std::vector<int>& in) {
        for (std::size_t d = 0; d < r; ++d) {
          in[d] = flip[d] ? dims[d] - 1 - out[d] : out[d];
        }
        return 0;
      };
      run = [axes](const std::vector<Tensor>& xs) {
        return o::reverse(xs[0], axes);
      };
    } else {
      inDims.clear();
      source = [](const std::vector<int>&, std::vector<int>&) { return -1; };
      run = [outDims, fillValue](const std::vector<Tensor>&) {
        return o::fill(Shape(outDims), fillValue);
      };
    }

    // Distinct values per input, with negative zeros mixed in so a copy
    // that went through arithmetic would show.
    std::vector<std::vector<float>> data;
    for (std::size_t j = 0; j < inDims.size(); ++j) {
      std::vector<float> v(Shape(inDims[j]).size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = i % 5 == 2 ? -0.f
                          : static_cast<float>(j * 1000 + i) + 0.25f;
      }
      data.push_back(std::move(v));
    }
    std::vector<float> want(Shape(outDims).size());
    std::vector<int> in(r);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const int j = source(unravelCoords(i, outDims), in);
      want[i] = j < 0 ? fillValue
                      : data[static_cast<std::size_t>(j)][ravelCoords(
                            in, inDims[static_cast<std::size_t>(j)])];
    }

    tidyVoid([&] {
      std::vector<Tensor> xs;
      for (std::size_t j = 0; j < inDims.size(); ++j) {
        xs.push_back(o::tensor(data[j], Shape(inDims[j])));
      }
      const Tensor y = run(xs);
      test::expectShape(y, Shape(outDims));
      const std::vector<float> got = y.dataSync();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << op << " of " << Shape(inDims.empty() ? outDims : inDims[0])
                                   .toString()
            << " trial " << trial << " flat index " << i;
      }
    });
    if (HasFailure()) return;
  }
}

// ----------------------------------------------------- reduce oracle
//
// Every reduce is one Backend::reduce over x viewed as [outer, n, inner]
// with the reduced axes as the middle block. This holds all seven ops, for
// every axis subset of ranks 0-5 with size-1 and zero-size dims, bit for
// bit to the transpose-then-reduce path: the reduced axes moved last on
// the host, then the backend's reduce of rows (inner = 1).

TEST_P(RegionOracleTest, ReduceMatchesTransposeOracle) {
  using Fn = Tensor (*)(const Tensor&, std::span<const int>, bool);
  const std::pair<ReduceOp, Fn> kOps[] = {
      {ReduceOp::kSum, &o::sum},   {ReduceOp::kMean, &o::mean},
      {ReduceOp::kProd, &o::prod}, {ReduceOp::kMax, &o::max},
      {ReduceOp::kMin, &o::min},   {ReduceOp::kAny, &o::any},
      {ReduceOp::kAll, &o::all}};
  Backend& be = Engine::get().backend();
  std::uint32_t seed = 4242u;
  const auto next = [&seed](int bound) {
    seed = seed * 1664525u + 1013904223u;
    return static_cast<int>((seed >> 8) % static_cast<std::uint32_t>(bound));
  };
  for (int rank = 0; rank <= 5; ++rank) {
    // Two shapes per rank (dims 1-4), the second with a zero-size dim.
    for (int variant = rank == 0 ? 1 : 0; variant < 2; ++variant) {
      std::vector<int> dims(static_cast<std::size_t>(rank));
      for (int& d : dims) d = 1 + next(4);
      if (variant == 0) dims[static_cast<std::size_t>(next(rank))] = 0;
      const Shape shape(dims);
      const std::vector<float> data =
          oracleData(shape, 40u + static_cast<std::uint32_t>(rank), -2.f, 2.f);
      // Rank 0 reduces its empty axis set (the ops read it as all axes).
      for (unsigned mask = rank == 0 ? 0u : 1u; mask < (1u << rank); ++mask) {
        std::vector<int> axes, perm;
        for (int d = 0; d < rank; ++d) {
          if (!(mask >> d & 1u)) perm.push_back(d);
        }
        for (int d = 0; d < rank; ++d) {
          if (mask >> d & 1u) axes.push_back(d);
        }
        perm.insert(perm.end(), axes.begin(), axes.end());
        std::vector<int> tDims;
        std::size_t outer = 1, n = 1;
        for (std::size_t k = 0; k < perm.size(); ++k) {
          const int d = dims[static_cast<std::size_t>(perm[k])];
          tDims.push_back(d);
          (k + axes.size() < perm.size() ? outer : n) *=
              static_cast<std::size_t>(d);
        }
        // The transposed copy: element t of it is x at the permuted coords.
        std::vector<float> transposed(data.size());
        std::vector<int> xc(static_cast<std::size_t>(rank));
        for (std::size_t t = 0; t < transposed.size(); ++t) {
          const std::vector<int> tc = unravelCoords(t, tDims);
          for (std::size_t k = 0; k < perm.size(); ++k) {
            xc[static_cast<std::size_t>(perm[k])] = tc[k];
          }
          transposed[t] = data[ravelCoords(xc, dims)];
        }
        for (const auto& [op, fn] : kOps) {
          SCOPED_TRACE("reduce op " + std::to_string(static_cast<int>(op)) +
                       " of " + shape.toString() + " over mask " +
                       std::to_string(mask));
          const TensorSpec spec{be.write(transposed, Shape(tDims)),
                                Shape(tDims), DType::f32};
          const DataId id = be.reduce(op, spec, outer, n, 1);
          const std::vector<float> want = be.read(id);
          be.disposeData(id);
          be.disposeData(spec.id);
          tidyVoid([&] {
            const Tensor y = fn(o::tensor(data, shape), axes, false);
            test::expectShape(y, util::reducedShape(shape, axes, false));
            const std::vector<float> got = y.dataSync();
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
              if (std::isnan(got[i]) && std::isnan(want[i])) continue;
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                        std::bit_cast<std::uint32_t>(want[i]))
                  << "flat index " << i << ": got " << got[i] << ", want "
                  << want[i];
            }
          });
          if (HasFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tfjs
