// Parity tests for the parallel NativeBackend kernels.
//
// Two guarantees are asserted, on odd sizes that do not divide the parallel
// chunk grain (so ragged last chunks are exercised):
//  * parallel == serial, bitwise: the fixed chunk partition makes the
//    multi-threaded result byte-identical to the TFJS_NUM_THREADS=1 path;
//  * native == ref: elementwise (one-instruction unary, binary and select
//    programs through fusedRegion) and pooling kernels perform the
//    identical scalar operations, so values match exactly
//    (float ==). The multiply-accumulate kernels (GEMM/conv/depthwise/
//    reduce) are compared within a tight tolerance instead: under
//    -march=native the native GEMM's ascending-k chains are FMA steps and
//    depthwise contracts a*b+c likewise, while the reference backend rounds
//    the product and the sum separately (and reduce splits its sum over
//    four accumulators), so last-ulp differences are expected and correct.
//    Those kernels' own bitwise contracts — the GEMM's one ascending-k chain
//    per element, then bias and activation, and depthwise's one +0-seeded
//    FMA chain per element over its in-bounds taps in (fy, fx) order — are
//    checked against scalar oracles in native_gemm_test.cc. The determinism
//    guarantee of the thread pool is the *bitwise* one above.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "backends/common/ref_backend.h"
#include "backends/native/native_backend.h"
#include "core/conv_util.h"
#include "core/thread_pool.h"
#include "core/util.h"

namespace {

using tfjs::BinaryOp;
using tfjs::Conv2DInfo;
using tfjs::DataId;
using tfjs::FusedActivation;
using tfjs::PadMode;
using tfjs::Pool2DInfo;
using tfjs::PoolMode;
using tfjs::ReduceOp;
using tfjs::RegionInstr;
using tfjs::Shape;
using tfjs::TensorSpec;
using tfjs::UnaryOp;
using tfjs::backends::RefBackend;
using tfjs::backends::native::NativeBackend;
using tfjs::core::ThreadPool;

/// Deterministic pseudo-random values in [-1, 1] (LCG; no libc rand state).
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

class NativeParityTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ThreadPool::get().numThreads(); }
  void TearDown() override { ThreadPool::get().setNumThreads(saved_); }

  TensorSpec put(tfjs::Backend& b, const std::vector<float>& v,
                 const Shape& shape) {
    return TensorSpec{b.write(v, shape), shape, tfjs::DType::f32};
  }

  /// Runs `kernel` on the native backend at 4 threads and at 1 thread, and
  /// on the reference backend; asserts parallel==serial bitwise. Returns
  /// {parallelResult, refResult} for the caller's value comparison.
  template <typename KernelFn>
  std::pair<std::vector<float>, std::vector<float>> runBoth(
      KernelFn&& kernel) {
    ThreadPool::get().setNumThreads(4);
    const std::vector<float> parallel = kernel(native_);
    ThreadPool::get().setNumThreads(1);
    const std::vector<float> serial = kernel(native_);
    const std::vector<float> ref = kernel(ref_);
    EXPECT_EQ(parallel.size(), serial.size());
    EXPECT_TRUE(parallel.empty() ||
                std::memcmp(parallel.data(), serial.data(),
                            parallel.size() * sizeof(float)) == 0)
        << "parallel native result differs bitwise from serial native";
    return {parallel, ref};
  }

  static void expectExactlyEqual(const std::vector<float>& a,
                                 const std::vector<float>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "at flat index " << i;
    }
  }

  /// Equality up to FMA-contraction rounding (native is built with
  /// -march=native; ref is not).
  static void expectFmaClose(const std::vector<float>& a,
                             const std::vector<float>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const float scale =
          std::max({1.f, std::abs(a[i]), std::abs(b[i])});
      EXPECT_NEAR(a[i], b[i], 1e-5f * scale) << "at flat index " << i;
    }
  }

  NativeBackend native_;
  RefBackend ref_;

 private:
  int saved_ = 1;
};

TEST_F(NativeParityTest, MatMulOddSizes) {
  // 1000 rows = 15 full kMC=64 panels + a ragged one.
  const int m = 1000, k = 129, n = 65;
  const auto aData = randomData(static_cast<std::size_t>(m) * k, 1);
  const auto bData = randomData(static_cast<std::size_t>(k) * n, 2);
  auto [par, ref] = runBoth([&](tfjs::Backend& be) {
    const TensorSpec a = put(be, aData, Shape{1, m, k});
    const TensorSpec b = put(be, bData, Shape{1, k, n});
    return be.read(
        be.matMul(a, b, false, false, nullptr, FusedActivation::kNone));
  });
  expectFmaClose(par, ref);
}

TEST_F(NativeParityTest, MatMulTransposedOperands) {
  const int m = 67, k = 35, n = 33;
  for (const bool tA : {false, true}) {
    for (const bool tB : {false, true}) {
      const auto aData = randomData(static_cast<std::size_t>(m) * k, 3);
      const auto bData = randomData(static_cast<std::size_t>(k) * n, 4);
      auto [par, ref] = runBoth([&](tfjs::Backend& be) {
        const TensorSpec a =
            put(be, aData, tA ? Shape{1, k, m} : Shape{1, m, k});
        const TensorSpec b =
            put(be, bData, tB ? Shape{1, n, k} : Shape{1, k, n});
        return be.read(
            be.matMul(a, b, tA, tB, nullptr, FusedActivation::kNone));
      });
      expectFmaClose(par, ref);
    }
  }
}

TEST_F(NativeParityTest, MatMulWideOutputUsesColumnPanels) {
  // n = 1100 > 2 * kNC column panels while m = 33 is a single row panel.
  const int m = 33, k = 47, n = 1100;
  const auto aData = randomData(static_cast<std::size_t>(m) * k, 5);
  const auto bData = randomData(static_cast<std::size_t>(k) * n, 6);
  auto [par, ref] = runBoth([&](tfjs::Backend& be) {
    const TensorSpec a = put(be, aData, Shape{1, m, k});
    const TensorSpec b = put(be, bData, Shape{1, k, n});
    return be.read(
        be.matMul(a, b, false, false, nullptr, FusedActivation::kNone));
  });
  expectFmaClose(par, ref);
}

TEST_F(NativeParityTest, Conv2dGeneralPath) {
  // Multi-chunk: 64 output rows split into ~14-row chunks.
  const Shape x{1, 64, 64, 8}, f{3, 3, 8, 8};
  const Conv2DInfo ci =
      tfjs::conv_util::computeConv2DInfo(x, f, 1, 1, PadMode::kSame);
  const auto xData = randomData(x.size(), 7);
  const auto fData = randomData(f.size(), 8);
  auto [par, ref] = runBoth([&](tfjs::Backend& be) {
    return be.read(be.conv2d(put(be, xData, x), put(be, fData, f), ci, nullptr,
                                FusedActivation::kNone));
  });
  expectFmaClose(par, ref);
}

TEST_F(NativeParityTest, Conv2dOddStridedDilated) {
  const Shape x{2, 13, 11, 3}, f{3, 5, 3, 7};
  const Conv2DInfo ci =
      tfjs::conv_util::computeConv2DInfo(x, f, 2, 2, PadMode::kSame, 2, 1);
  const auto xData = randomData(x.size(), 9);
  const auto fData = randomData(f.size(), 10);
  auto [par, ref] = runBoth([&](tfjs::Backend& be) {
    return be.read(be.conv2d(put(be, xData, x), put(be, fData, f), ci, nullptr,
                                FusedActivation::kNone));
  });
  expectFmaClose(par, ref);
}

TEST_F(NativeParityTest, Conv2dOneByOneGemmPath) {
  const Shape x{2, 9, 7, 5}, f{1, 1, 5, 6};
  const Conv2DInfo ci =
      tfjs::conv_util::computeConv2DInfo(x, f, 1, 1, PadMode::kValid);
  const auto xData = randomData(x.size(), 11);
  const auto fData = randomData(f.size(), 12);
  auto [par, ref] = runBoth([&](tfjs::Backend& be) {
    return be.read(be.conv2d(put(be, xData, x), put(be, fData, f), ci, nullptr,
                                FusedActivation::kNone));
  });
  expectFmaClose(par, ref);
}

TEST_F(NativeParityTest, DepthwiseConv2d) {
  const Shape x{1, 40, 32, 6}, f{3, 3, 6, 2};
  const Conv2DInfo ci = tfjs::conv_util::computeConv2DInfo(
      x, f, 1, 1, PadMode::kSame, 1, 1, /*depthwise=*/true);
  const auto xData = randomData(x.size(), 13);
  const auto fData = randomData(f.size(), 14);
  auto [par, ref] = runBoth([&](tfjs::Backend& be) {
    return be.read(
        be.depthwiseConv2d(put(be, xData, x), put(be, fData, f), ci, nullptr,
                           FusedActivation::kNone));
  });
  expectFmaClose(par, ref);
}

TEST_F(NativeParityTest, Pool2dMaxAndAvg) {
  const Shape x{1, 40, 32, 8};
  const Pool2DInfo pi =
      tfjs::conv_util::computePool2DInfo(x, 3, 2, 2, 2, PadMode::kSame);
  const auto xData = randomData(x.size(), 15);
  for (const PoolMode mode : {PoolMode::kMax, PoolMode::kAvg}) {
    auto [par, ref] = runBoth([&](tfjs::Backend& be) {
      return be.read(be.pool2d(mode, put(be, xData, x), pi));
    });
    expectExactlyEqual(par, ref);
  }
}

TEST_F(NativeParityTest, ElementwiseBinaryOddCount) {
  // Odd element counts (ragged last 32K-float chunks) over every broadcast
  // class the native region kernel resolves differently.
  const std::pair<Shape, Shape> cases[] = {
      {Shape{100003}, Shape{100003}},  // dense: 3 full chunks + a ragged one
      {Shape{100003}, Shape{}},        // scalar second operand
      {Shape{3001, 32}, Shape{32}},    // per-channel suffix, span 32
      {Shape{2003, 37}, Shape{37}},    // suffix span not dividing a block
      {Shape{101, 1000}, Shape{1000}},  // suffix longer than a 512 block
      {Shape{32}, Shape{3001, 32}},    // suffix first operand
      {Shape{}, Shape{100003}},        // scalar first operand
      {Shape{317, 1}, Shape{1, 331}},  // generic [N,1] x [1,M]
      {Shape{0, 32}, Shape{32}},       // zero elements
  };
  for (const auto& [aShape, bShape] : cases) {
    const Shape out = tfjs::util::broadcastShapes(aShape, bShape);
    auto aData = randomData(aShape.size(), 16);
    for (auto& v : aData) v += 1.5f;  // positive bases keep kPow finite
    auto bData = randomData(bShape.size(), 17);
    for (auto& v : bData) v += 2.f;  // keep divisors away from zero
    for (const BinaryOp op :
         {BinaryOp::kAdd, BinaryOp::kMul, BinaryOp::kDiv, BinaryOp::kPow}) {
      SCOPED_TRACE(aShape.toString() + " op " + bShape.toString());
      auto [par, ref] = runBoth([&](tfjs::Backend& be) {
        const RegionInstr instr{.kind = RegionInstr::Kind::kBinary,
                                .op = static_cast<int>(op),
                                .a = -1,
                                .b = -2};
        const TensorSpec ins[] = {put(be, aData, aShape),
                                  put(be, bData, bShape)};
        return be.read(be.fusedRegion({&instr, 1}, ins, out, 0));
      });
      EXPECT_EQ(par.size(), out.size());
      expectExactlyEqual(par, ref);
    }
  }
}

TEST_F(NativeParityTest, SelectOverBroadcastClasses) {
  // Shapes of {cond, a, b}: each broadcast class in each operand slot.
  struct Case {
    Shape cond, a, b;
  };
  const Case cases[] = {
      {Shape{100003}, Shape{100003}, Shape{100003}},  // dense, ragged chunk
      {Shape{}, Shape{100003}, Shape{100003}},        // scalar cond
      {Shape{100003}, Shape{}, Shape{100003}},        // scalar branch
      {Shape{3001, 32}, Shape{32}, Shape{3001, 32}},  // suffix branch
      {Shape{37}, Shape{2003, 37}, Shape{}},          // suffix cond
      {Shape{101, 1000}, Shape{1000}, Shape{1000}},   // suffix > one block
      {Shape{317, 1}, Shape{1, 331}, Shape{317, 331}},  // generic [N,1]x[1,M]
      {Shape{1, 331}, Shape{317, 1}, Shape{}},        // generic, scalar b
      {Shape{0, 32}, Shape{32}, Shape{0, 32}},        // zero elements
  };
  for (const Case& cs : cases) {
    const Shape out = tfjs::util::broadcastShapes(
        tfjs::util::broadcastShapes(cs.cond, cs.a), cs.b);
    // Conditions mix nonzero values, +0, -0 (false) and NaN (true).
    auto condData = randomData(cs.cond.size(), 20);
    for (std::size_t i = 0; i < condData.size(); ++i) {
      if (i % 3 == 0) condData[i] = i % 2 == 0 ? 0.f : -0.f;
      if (i % 11 == 5) condData[i] = std::numeric_limits<float>::quiet_NaN();
    }
    const auto aData = randomData(cs.a.size(), 21);
    const auto bData = randomData(cs.b.size(), 22);
    SCOPED_TRACE(cs.cond.toString() + " ? " + cs.a.toString() + " : " +
                 cs.b.toString());
    auto [par, ref] = runBoth([&](tfjs::Backend& be) {
      const RegionInstr instr{
          .kind = RegionInstr::Kind::kSelect, .a = -1, .b = -2, .c = -3};
      const TensorSpec ins[] = {put(be, condData, cs.cond),
                                put(be, aData, cs.a), put(be, bData, cs.b)};
      return be.read(be.fusedRegion({&instr, 1}, ins, out, 0));
    });
    EXPECT_EQ(par.size(), out.size());
    expectExactlyEqual(par, ref);
  }
}

TEST_F(NativeParityTest, ElementwiseUnaryOddCount) {
  const std::size_t n = 70001;
  const Shape shape{static_cast<int>(n)};
  const auto xData = randomData(n, 18);
  // alpha/beta feed the parameterized ops (leakyRelu slope, clip range).
  for (const UnaryOp op :
       {UnaryOp::kRelu, UnaryOp::kSquare, UnaryOp::kExp, UnaryOp::kSigmoid,
        UnaryOp::kTanh, UnaryOp::kLeakyRelu, UnaryOp::kClipByValue}) {
    auto [par, ref] = runBoth([&](tfjs::Backend& be) {
      const RegionInstr instr{.kind = RegionInstr::Kind::kUnary,
                              .op = static_cast<int>(op),
                              .a = -1,
                              .alpha = -0.25f,
                              .beta = 0.5f};
      const TensorSpec x = put(be, xData, shape);
      return be.read(be.fusedRegion({&instr, 1}, {&x, 1}, shape, 0));
    });
    expectExactlyEqual(par, ref);
  }
}

TEST_F(NativeParityTest, ReduceSumMeanRowParallel) {
  // 77 rows of 1023: rows chunk by 16, the row length not a multiple of the
  // 4-way accumulator split. runBoth() asserts the bitwise parallel==serial
  // guarantee; against ref only closeness holds (the 4-accumulator order
  // differs from ref's strictly sequential sum — a pre-existing property of
  // the native backend, not introduced by parallelisation).
  const std::size_t outer = 77, n = 1023;
  const Shape shape{static_cast<int>(outer), static_cast<int>(n)};
  const auto xData = randomData(outer * n, 19);
  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMean}) {
    auto [par, ref] = runBoth([&](tfjs::Backend& be) {
      return be.read(be.reduce(op, put(be, xData, shape), outer, n, 1));
    });
    ASSERT_EQ(par.size(), ref.size());
    for (std::size_t i = 0; i < par.size(); ++i) {
      EXPECT_NEAR(par[i], ref[i], 1e-3f) << "at row " << i;
    }
  }
}

TEST_F(NativeParityTest, ReduceColumnSumsParallel) {
  // Column sums of [outer, n, inner] views: inner 37 leaves a masked tail
  // block of 5 (AVX-512), 5 (AVX) or 1 (SSE) lanes, and n = 1023 a tail
  // after the 4-way split. The units chunk over (outer, column block), so
  // 4 threads must match 1 bitwise; each column's chain must also equal
  // the row sum of the same values laid out as a row (the split is per
  // lane).
  for (const auto& [outer, n, inner] :
       {std::array<std::size_t, 3>{1, 1023, 37},
        std::array<std::size_t, 3>{3, 300, 37},
        std::array<std::size_t, 3>{2, 7, 100}}) {
    const Shape shape{static_cast<int>(outer), static_cast<int>(n),
                      static_cast<int>(inner)};
    const auto xData = randomData(outer * n * inner, 23);
    // The same values with the middle axis last, reduced as rows.
    std::vector<float> rows(xData.size());
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < inner; ++j) {
          rows[(o * inner + j) * n + i] = xData[(o * n + i) * inner + j];
        }
      }
    }
    const Shape rowShape{static_cast<int>(outer * inner), static_cast<int>(n)};
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMean}) {
      SCOPED_TRACE(shape.toString());
      auto [par, ref] = runBoth([&](tfjs::Backend& be) {
        return be.read(be.reduce(op, put(be, xData, shape), outer, n, inner));
      });
      ThreadPool::get().setNumThreads(1);
      const TensorSpec asRowsIn = put(native_, rows, rowShape);
      const std::vector<float> asRows =
          native_.read(native_.reduce(op, asRowsIn, outer * inner, n, 1));
      ASSERT_EQ(par.size(), outer * inner);
      ASSERT_EQ(asRows.size(), par.size());
      EXPECT_EQ(std::memcmp(par.data(), asRows.data(),
                            par.size() * sizeof(float)),
                0);
      for (std::size_t i = 0; i < par.size(); ++i) {
        EXPECT_NEAR(par[i], ref[i], 1e-3f) << "at output " << i;
      }
    }
  }
}

}  // namespace
