// The scalar formula of every elementwise op and of the fused epilogue,
// each written once. RefBackend's interpreter, webgl-sim's shaders and the
// cpu backend's ScalarVM evaluate them through the out-of-line applyUnary /
// applyBinary (ref_backend.cc); the native region kernel instantiates a
// row loop per op through unaryOf<Op> / binaryOf<Op>. No formula has an
// `a * b + c` that a contracting translation unit could fuse, and the
// transcendentals are the same libm calls everywhere, so every backend
// gets the same bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/backend.h"
#include "core/error.h"

namespace tfjs::backends {

inline constexpr int kNumUnaryOps = static_cast<int>(UnaryOp::kMulScalar) + 1;
inline constexpr int kNumBinaryOps =
    static_cast<int>(BinaryOp::kLogicalXor) + 1;

/// Scalar semantics of each BinaryOp. The comparisons and logical ops give
/// 1.0 or 0.0; mod is floored, as TensorFlow's tf.mod.
[[gnu::always_inline]] inline float binaryFormula(BinaryOp op, float a,
                                                  float b) {
  switch (op) {
    case BinaryOp::kAdd: return a + b;
    case BinaryOp::kSub: return a - b;
    case BinaryOp::kMul: return a * b;
    case BinaryOp::kDiv: return a / b;
    case BinaryOp::kFloorDiv: return std::floor(a / b);
    case BinaryOp::kMod: {
      const float r = std::fmod(a, b);
      return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
    }
    case BinaryOp::kPow: return std::pow(a, b);
    case BinaryOp::kMaximum: return std::max(a, b);
    case BinaryOp::kMinimum: return std::min(a, b);
    case BinaryOp::kSquaredDiff: return (a - b) * (a - b);
    case BinaryOp::kAtan2: return std::atan2(a, b);
    case BinaryOp::kEqual: return a == b ? 1.f : 0.f;
    case BinaryOp::kNotEqual: return a != b ? 1.f : 0.f;
    case BinaryOp::kGreater: return a > b ? 1.f : 0.f;
    case BinaryOp::kGreaterEqual: return a >= b ? 1.f : 0.f;
    case BinaryOp::kLess: return a < b ? 1.f : 0.f;
    case BinaryOp::kLessEqual: return a <= b ? 1.f : 0.f;
    case BinaryOp::kLogicalAnd: return (a != 0 && b != 0) ? 1.f : 0.f;
    case BinaryOp::kLogicalOr: return (a != 0 || b != 0) ? 1.f : 0.f;
    case BinaryOp::kLogicalXor: return ((a != 0) != (b != 0)) ? 1.f : 0.f;
  }
  throw InternalError("Unhandled BinaryOp");
}

/// Scalar semantics of each UnaryOp; `alpha` and `beta` parameterize the
/// ops after kNotZero (see core/backend.h).
[[gnu::always_inline]] inline float unaryFormula(UnaryOp op, float x,
                                                 float alpha, float beta) {
  switch (op) {
    case UnaryOp::kNeg: return -x;
    case UnaryOp::kAbs: return std::fabs(x);
    case UnaryOp::kExp: return std::exp(x);
    case UnaryOp::kExpm1: return std::expm1(x);
    case UnaryOp::kLog: return std::log(x);
    case UnaryOp::kLog1p: return std::log1p(x);
    case UnaryOp::kSqrt: return std::sqrt(x);
    case UnaryOp::kRsqrt: return 1.0f / std::sqrt(x);
    case UnaryOp::kSquare: return x * x;
    case UnaryOp::kReciprocal: return 1.0f / x;
    case UnaryOp::kFloor: return std::floor(x);
    case UnaryOp::kCeil: return std::ceil(x);
    case UnaryOp::kRound: return std::nearbyint(x);
    case UnaryOp::kSign: return x > 0 ? 1.f : (x < 0 ? -1.f : 0.f);
    case UnaryOp::kTrunc: return std::trunc(x);
    case UnaryOp::kSin: return std::sin(x);
    case UnaryOp::kCos: return std::cos(x);
    case UnaryOp::kTan: return std::tan(x);
    case UnaryOp::kAsin: return std::asin(x);
    case UnaryOp::kAcos: return std::acos(x);
    case UnaryOp::kAtan: return std::atan(x);
    case UnaryOp::kSinh: return std::sinh(x);
    case UnaryOp::kCosh: return std::cosh(x);
    case UnaryOp::kTanh: return std::tanh(x);
    case UnaryOp::kRelu: return x > 0 ? x : 0;
    // std::min(std::max(x, 0.f), 6.f) spelled as one select chain: the same
    // value for every x (NaN and -0 pass through), in fewer vector
    // instructions than GCC makes of the nested calls.
    case UnaryOp::kRelu6: return x < 0.f ? 0.f : (6.f < x ? 6.f : x);
    case UnaryOp::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case UnaryOp::kSoftplus: return std::log1p(std::exp(-std::fabs(x))) +
                                    std::max(x, 0.f);
    case UnaryOp::kElu: return x >= 0 ? x : std::expm1(x);
    case UnaryOp::kSelu: {
      constexpr float kAlpha = 1.6732632423543772f;
      constexpr float kScale = 1.0507009873554805f;
      return x >= 0 ? kScale * x : kScale * kAlpha * std::expm1(x);
    }
    case UnaryOp::kErf: return std::erf(x);
    case UnaryOp::kLogicalNot: return x == 0 ? 1.f : 0.f;
    case UnaryOp::kIsNan: return std::isnan(x) ? 1.f : 0.f;
    case UnaryOp::kIsFinite: return std::isfinite(x) ? 1.f : 0.f;
    case UnaryOp::kNotZero: return x != 0 ? 1.f : 0.f;
    case UnaryOp::kLeakyRelu: return x >= 0 ? x : alpha * x;
    case UnaryOp::kClipByValue: return std::min(std::max(x, alpha), beta);
    case UnaryOp::kStep: return x > 0 ? 1.f : (x < 0 ? 0.f : alpha);
    case UnaryOp::kPowScalar: return std::pow(x, alpha);
    case UnaryOp::kAddScalar: return x + alpha;
    case UnaryOp::kMulScalar: return x * alpha;
  }
  throw InternalError("Unhandled UnaryOp");
}

/// The formula of one op fixed at compile time: the switch folds away.
template <UnaryOp Op>
[[gnu::always_inline]] inline float unaryOf(float x, float alpha,
                                            float beta) {
  return unaryFormula(Op, x, alpha, beta);
}
template <BinaryOp Op>
[[gnu::always_inline]] inline float binaryOf(float a, float b) {
  return binaryFormula(Op, a, b);
}

/// Fused-epilogue activation: the matching unary formula, so fused and
/// unfused results cannot drift apart bitwise.
[[gnu::always_inline]] inline float applyFusedActivation(FusedActivation act,
                                                         float v) {
  switch (act) {
    case FusedActivation::kNone: return v;
    case FusedActivation::kRelu: return unaryOf<UnaryOp::kRelu>(v, 0, 0);
    case FusedActivation::kRelu6: return unaryOf<UnaryOp::kRelu6>(v, 0, 0);
    case FusedActivation::kSigmoid:
      return unaryOf<UnaryOp::kSigmoid>(v, 0, 0);
  }
  throw InternalError("Unhandled FusedActivation");
}

/// The fused epilogue of matMul, conv2d and depthwiseConv2d on one finished
/// value of output channel c: `v + bias[c]` (when bias is non-null), then
/// the activation — the standalone add and activation kernels' formulas in
/// their order, so a fused producer equals its op-by-op chain bitwise.
[[gnu::always_inline]] inline float fusedEpilogue(float v, const float* bias,
                                                  std::size_t c,
                                                  FusedActivation act) {
  if (bias != nullptr) v = binaryOf<BinaryOp::kAdd>(v, bias[c]);
  return applyFusedActivation(act, v);
}

}  // namespace tfjs::backends
