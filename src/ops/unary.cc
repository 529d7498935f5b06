// Element-wise unary ops and their gradients.
#include "ops/common.h"

namespace tfjs::ops {

using internal::record;

namespace {

RegionInstr unaryInstr(UnaryOp op, float alpha, float beta) {
  return {.kind = RegionInstr::Kind::kUnary,
          .op = static_cast<int>(op),
          .a = -1,
          .alpha = alpha,
          .beta = beta};
}

Tensor dispatch(const char* name, UnaryOp op, const Tensor& x, float alpha = 0,
                float beta = 0, DType outDtype = DType::f32) {
  internal::CaptureFrame frame;
  const RegionInstr instr = unaryInstr(op, alpha, beta);
  Tensor y = internal::elementwiseKernel(name, {&instr, 1}, {&x, 1},
                                         x.shape(), outDtype);
  internal::observeOp(OpId::kUnary, {x}, y,
                      {static_cast<double>(op), alpha, beta,
                       static_cast<double>(outDtype)});
  return y;
}

/// Move-consuming form of a unary op: in place through
/// internal::tryRegionInPlace when it allows it; otherwise the allocating
/// overload `copying` runs and the consumed input is disposed.
template <typename Copying>
Tensor consume(const char* name, UnaryOp op, Tensor&& x, DType outDtype,
               Copying copying, float alpha = 0, float beta = 0) {
  const Tensor arg = std::move(x);
  const RegionInstr instr = unaryInstr(op, alpha, beta);
  if (Tensor y = internal::tryRegionInPlace(name, {&instr, 1}, {&arg, 1},
                                            arg.shape(), outDtype);
      y.defined()) {
    return y;
  }
  Tensor y = copying(arg);
  arg.dispose();
  return y;
}

}  // namespace

Tensor neg(const Tensor& x) {
  Tensor y = dispatch("neg", UnaryOp::kNeg, x, 0, 0, x.dtype());
  record("neg", {x}, y,
         [](const Tensor& dy) { return std::vector<Tensor>{neg(dy)}; });
  return y;
}

Tensor abs(const Tensor& x) {
  Tensor y = dispatch("abs", UnaryOp::kAbs, x, 0, 0, x.dtype());
  record("abs", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, sign(x))};
  });
  return y;
}

Tensor exp(const Tensor& x) {
  Tensor y = dispatch("exp", UnaryOp::kExp, x);
  record("exp", {x}, y, [y](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, y)};
  });
  return y;
}

Tensor expm1(const Tensor& x) {
  Tensor y = dispatch("expm1", UnaryOp::kExpm1, x);
  record("expm1", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, exp(x))};
  });
  return y;
}

Tensor log(const Tensor& x) {
  Tensor y = dispatch("log", UnaryOp::kLog, x);
  record("log", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{div(dy, x)};
  });
  return y;
}

Tensor log1p(const Tensor& x) {
  Tensor y = dispatch("log1p", UnaryOp::kLog1p, x);
  record("log1p", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{div(dy, addScalar(x, 1))};
  });
  return y;
}

Tensor sqrt(const Tensor& x) {
  Tensor y = dispatch("sqrt", UnaryOp::kSqrt, x);
  record("sqrt", {x}, y, [y](const Tensor& dy) {
    return std::vector<Tensor>{div(dy, mulScalar(y, 2))};
  });
  return y;
}

Tensor rsqrt(const Tensor& x) {
  Tensor y = dispatch("rsqrt", UnaryOp::kRsqrt, x);
  record("rsqrt", {x}, y, [x](const Tensor& dy) {
    // d/dx x^{-1/2} = -1/2 x^{-3/2}
    return std::vector<Tensor>{
        neg(div(dy, mulScalar(mul(x, sqrt(x)), 2)))};
  });
  return y;
}

Tensor square(const Tensor& x) {
  Tensor y = dispatch("square", UnaryOp::kSquare, x, 0, 0, x.dtype());
  record("square", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, mulScalar(x, 2))};
  });
  return y;
}

Tensor reciprocal(const Tensor& x) {
  Tensor y = dispatch("reciprocal", UnaryOp::kReciprocal, x);
  record("reciprocal", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{neg(div(dy, mul(x, x)))};
  });
  return y;
}

Tensor floor(const Tensor& x) { return dispatch("floor", UnaryOp::kFloor, x, 0, 0, x.dtype()); }
Tensor ceil(const Tensor& x) { return dispatch("ceil", UnaryOp::kCeil, x, 0, 0, x.dtype()); }
Tensor round(const Tensor& x) { return dispatch("round", UnaryOp::kRound, x, 0, 0, x.dtype()); }
Tensor sign(const Tensor& x) { return dispatch("sign", UnaryOp::kSign, x, 0, 0, x.dtype()); }

Tensor sin(const Tensor& x) {
  Tensor y = dispatch("sin", UnaryOp::kSin, x);
  record("sin", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, cos(x))};
  });
  return y;
}

Tensor cos(const Tensor& x) {
  Tensor y = dispatch("cos", UnaryOp::kCos, x);
  record("cos", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{neg(mul(dy, sin(x)))};
  });
  return y;
}

Tensor tan(const Tensor& x) {
  Tensor y = dispatch("tan", UnaryOp::kTan, x);
  record("tan", {x}, y, [x](const Tensor& dy) {
    Tensor c = cos(x);
    return std::vector<Tensor>{div(dy, mul(c, c))};
  });
  return y;
}

Tensor asin(const Tensor& x) { return dispatch("asin", UnaryOp::kAsin, x); }
Tensor acos(const Tensor& x) { return dispatch("acos", UnaryOp::kAcos, x); }
Tensor atan(const Tensor& x) { return dispatch("atan", UnaryOp::kAtan, x); }
Tensor sinh(const Tensor& x) { return dispatch("sinh", UnaryOp::kSinh, x); }
Tensor cosh(const Tensor& x) { return dispatch("cosh", UnaryOp::kCosh, x); }

Tensor tanh(const Tensor& x) {
  Tensor y = dispatch("tanh", UnaryOp::kTanh, x);
  record("tanh", {x}, y, [y](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, sub(scalar(1), mul(y, y)))};
  });
  return y;
}

Tensor erf(const Tensor& x) {
  Tensor y = dispatch("erf", UnaryOp::kErf, x);
  record("erf", {x}, y, [x](const Tensor& dy) {
    // d erf / dx = 2/sqrt(pi) * exp(-x^2)
    constexpr float kTwoOverSqrtPi = 1.1283791670955126f;
    return std::vector<Tensor>{
        mul(dy, mulScalar(exp(neg(mul(x, x))), kTwoOverSqrtPi))};
  });
  return y;
}

Tensor relu(const Tensor& x) {
  Tensor y = dispatch("relu", UnaryOp::kRelu, x);
  record("relu", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, step(x))};
  });
  return y;
}

Tensor relu6(const Tensor& x) {
  Tensor y = dispatch("relu6", UnaryOp::kRelu6, x);
  record("relu6", {x}, y, [x](const Tensor& dy) {
    Tensor inRange = logicalAnd(greater(x, scalar(0)), less(x, scalar(6)));
    return std::vector<Tensor>{mul(dy, cast(inRange, DType::f32))};
  });
  return y;
}

Tensor leakyRelu(const Tensor& x, float alpha) {
  Tensor y = dispatch("leakyRelu", UnaryOp::kLeakyRelu, x, alpha);
  record("leakyRelu", {x}, y, [x, alpha](const Tensor& dy) {
    Tensor slope =
        where(greaterEqual(x, scalar(0)), onesLike(x), fill(x.shape(), alpha));
    return std::vector<Tensor>{mul(dy, slope)};
  });
  return y;
}

Tensor elu(const Tensor& x) {
  Tensor y = dispatch("elu", UnaryOp::kElu, x);
  record("elu", {x}, y, [x, y](const Tensor& dy) {
    Tensor slope =
        where(greaterEqual(x, scalar(0)), onesLike(x), addScalar(y, 1));
    return std::vector<Tensor>{mul(dy, slope)};
  });
  return y;
}

Tensor selu(const Tensor& x) {
  Tensor y = dispatch("selu", UnaryOp::kSelu, x);
  record("selu", {x}, y, [x](const Tensor& dy) {
    constexpr float kAlpha = 1.6732632423543772f;
    constexpr float kScale = 1.0507009873554805f;
    Tensor slope = where(greaterEqual(x, scalar(0)),
                         fill(x.shape(), kScale),
                         mulScalar(exp(x), kScale * kAlpha));
    return std::vector<Tensor>{mul(dy, slope)};
  });
  return y;
}

Tensor sigmoid(const Tensor& x) {
  Tensor y = dispatch("sigmoid", UnaryOp::kSigmoid, x);
  record("sigmoid", {x}, y, [y](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, mul(y, sub(scalar(1), y)))};
  });
  return y;
}

Tensor softplus(const Tensor& x) {
  Tensor y = dispatch("softplus", UnaryOp::kSoftplus, x);
  record("softplus", {x}, y, [x](const Tensor& dy) {
    return std::vector<Tensor>{mul(dy, sigmoid(x))};
  });
  return y;
}

Tensor clipByValue(const Tensor& x, float lo, float hi) {
  TFJS_ARG_CHECK(lo <= hi, "clipByValue requires lo <= hi, got " << lo << ", "
                                                                 << hi);
  Tensor y = dispatch("clipByValue", UnaryOp::kClipByValue, x, lo, hi,
                      x.dtype());
  record("clipByValue", {x}, y, [x, lo, hi](const Tensor& dy) {
    Tensor inRange = logicalAnd(greaterEqual(x, scalar(lo)),
                                lessEqual(x, scalar(hi)));
    return std::vector<Tensor>{mul(dy, cast(inRange, DType::f32))};
  });
  return y;
}

Tensor step(const Tensor& x, float alpha) {
  return dispatch("step", UnaryOp::kStep, x, alpha);
}

Tensor powScalar(const Tensor& a, float exponent) {
  Tensor y = dispatch("powScalar", UnaryOp::kPowScalar, a, exponent);
  record("powScalar", {a}, y, [a, exponent](const Tensor& dy) {
    return std::vector<Tensor>{
        mul(dy, mulScalar(powScalar(a, exponent - 1), exponent))};
  });
  return y;
}

Tensor isNaN(const Tensor& x) {
  return dispatch("isNaN", UnaryOp::kIsNan, x, 0, 0, DType::b8);
}
Tensor isFinite(const Tensor& x) {
  return dispatch("isFinite", UnaryOp::kIsFinite, x, 0, 0, DType::b8);
}
Tensor logicalNot(const Tensor& x) {
  return dispatch("logicalNot", UnaryOp::kLogicalNot, x, 0, 0, DType::b8);
}

// Move-consuming overloads. No tape recording is needed on the in-place
// path: tryRegionInPlace refuses whenever a tape watches an input, so a
// watched input always takes the copying overload (which records normally).

Tensor neg(Tensor&& x) {
  const DType dtype = x.dtype();
  return consume("neg", UnaryOp::kNeg, std::move(x), dtype,
                 [](const Tensor& t) { return neg(t); });
}

Tensor exp(Tensor&& x) {
  return consume("exp", UnaryOp::kExp, std::move(x), DType::f32,
                 [](const Tensor& t) { return exp(t); });
}

Tensor sqrt(Tensor&& x) {
  return consume("sqrt", UnaryOp::kSqrt, std::move(x), DType::f32,
                 [](const Tensor& t) { return sqrt(t); });
}

Tensor square(Tensor&& x) {
  const DType dtype = x.dtype();
  return consume("square", UnaryOp::kSquare, std::move(x), dtype,
                 [](const Tensor& t) { return square(t); });
}

Tensor tanh(Tensor&& x) {
  return consume("tanh", UnaryOp::kTanh, std::move(x), DType::f32,
                 [](const Tensor& t) { return tanh(t); });
}

Tensor relu(Tensor&& x) {
  return consume("relu", UnaryOp::kRelu, std::move(x), DType::f32,
                 [](const Tensor& t) { return relu(t); });
}

Tensor relu6(Tensor&& x) {
  return consume("relu6", UnaryOp::kRelu6, std::move(x), DType::f32,
                 [](const Tensor& t) { return relu6(t); });
}

Tensor sigmoid(Tensor&& x) {
  return consume("sigmoid", UnaryOp::kSigmoid, std::move(x), DType::f32,
                 [](const Tensor& t) { return sigmoid(t); });
}

Tensor clipByValue(Tensor&& x, float lo, float hi) {
  TFJS_ARG_CHECK(lo <= hi, "clipByValue requires lo <= hi, got " << lo << ", "
                                                                 << hi);
  const DType dtype = x.dtype();
  return consume(
      "clipByValue", UnaryOp::kClipByValue, std::move(x), dtype,
      [lo, hi](const Tensor& t) { return clipByValue(t, lo, hi); }, lo, hi);
}

Tensor cast(const Tensor& x, DType dtype) {
  // Widening casts are aliases and record their identity gradient in
  // Engine::makeAlias; narrowing casts are not differentiable. Either way
  // capture records one kCast node (the frame suppresses the alias event).
  internal::CaptureFrame frame;
  Tensor y = x.cast(dtype);
  internal::observeOp(OpId::kCast, {x}, y, {static_cast<double>(dtype)});
  return y;
}

}  // namespace tfjs::ops
