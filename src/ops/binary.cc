// Element-wise binary ops with NumPy-style broadcasting, plus their
// gradients (adjoint of broadcasting = sum over the expanded axes).
#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::record;
using internal::reduceGradTo;

namespace {

RegionInstr binaryInstr(BinaryOp op) {
  return {.kind = RegionInstr::Kind::kBinary,
          .op = static_cast<int>(op),
          .a = -1,
          .b = -2};
}

/// Dispatches a binary op with broadcasting; outDtype defaults to the
/// promoted input dtype.
Tensor dispatch(const char* name, BinaryOp op, const Tensor& a,
                const Tensor& b, DType outDtype) {
  internal::CaptureFrame frame;
  const RegionInstr instr = binaryInstr(op);
  const Tensor ins[] = {a, b};
  Tensor y = internal::elementwiseKernel(
      name, {&instr, 1}, ins, util::broadcastShapes(a.shape(), b.shape()),
      outDtype);
  internal::observeOp(OpId::kBinary, {a, b}, y,
                      {static_cast<double>(op),
                       static_cast<double>(outDtype)});
  return y;
}

Tensor dispatchNum(const char* name, BinaryOp op, const Tensor& a,
                   const Tensor& b) {
  return dispatch(name, op, a, b, promoteTypes(a.dtype(), b.dtype()));
}

Tensor dispatchBool(const char* name, BinaryOp op, const Tensor& a,
                    const Tensor& b) {
  return dispatch(name, op, a, b, DType::b8);
}

/// Gradient mask helper: dy * (bool mask as float).
Tensor maskedGrad(const Tensor& dy, const Tensor& mask, const Shape& target) {
  return reduceGradTo(mul(dy, cast(mask, DType::f32)), target);
}

/// Move-consuming form of a binary op; see `consume` in unary.cc. The
/// in-place path additionally requires that broadcasting leaves the first
/// operand's shape unchanged (the output must fit exactly in its buffer).
template <typename Copying>
Tensor consume(const char* name, BinaryOp op, Tensor&& a, const Tensor& b,
               DType outDtype, Copying copying) {
  const Tensor arg = std::move(a);
  const RegionInstr instr = binaryInstr(op);
  const Tensor ins[] = {arg, b};
  if (Tensor y = internal::tryRegionInPlace(
          name, {&instr, 1}, ins,
          util::broadcastShapes(arg.shape(), b.shape()), outDtype);
      y.defined()) {
    return y;
  }
  Tensor y = copying(arg, b);
  arg.dispose();
  return y;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor y = dispatchNum("add", BinaryOp::kAdd, a, b);
  record("add", {a, b}, y, [a, b](const Tensor& dy) {
    return std::vector<Tensor>{reduceGradTo(dy, a.shape()),
                               reduceGradTo(dy, b.shape())};
  });
  return y;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor y = dispatchNum("sub", BinaryOp::kSub, a, b);
  record("sub", {a, b}, y, [a, b](const Tensor& dy) {
    return std::vector<Tensor>{reduceGradTo(dy, a.shape()),
                               reduceGradTo(neg(dy), b.shape())};
  });
  return y;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor y = dispatchNum("mul", BinaryOp::kMul, a, b);
  record("mul", {a, b}, y, [a, b](const Tensor& dy) {
    return std::vector<Tensor>{reduceGradTo(mul(dy, b), a.shape()),
                               reduceGradTo(mul(dy, a), b.shape())};
  });
  return y;
}

Tensor div(const Tensor& a, const Tensor& b) {
  Tensor y = dispatch("div", BinaryOp::kDiv, a, b, DType::f32);
  record("div", {a, b}, y, [a, b](const Tensor& dy) {
    Tensor da = reduceGradTo(div(dy, b), a.shape());
    Tensor db = reduceGradTo(neg(div(mul(dy, a), mul(b, b))), b.shape());
    return std::vector<Tensor>{da, db};
  });
  return y;
}

Tensor floorDiv(const Tensor& a, const Tensor& b) {
  return dispatchNum("floorDiv", BinaryOp::kFloorDiv, a, b);
}

Tensor mod(const Tensor& a, const Tensor& b) {
  return dispatchNum("mod", BinaryOp::kMod, a, b);
}

Tensor pow(const Tensor& a, const Tensor& b) {
  Tensor y = dispatch("pow", BinaryOp::kPow, a, b, DType::f32);
  record("pow", {a, b}, y, [a, b, y](const Tensor& dy) {
    // da = dy * b * a^(b-1);  db = dy * y * ln(a), with ln(a) zeroed for
    // a <= 0 (matching the upstream convention).
    Tensor da = reduceGradTo(
        mul(dy, mul(b, pow(a, sub(b, scalar(1))))), a.shape());
    Tensor safeLog = where(greater(a, scalar(0)), log(maximum(a, scalar(1e-30f))),
                           zerosLike(a));
    Tensor db = reduceGradTo(mul(dy, mul(y, safeLog)), b.shape());
    return std::vector<Tensor>{da, db};
  });
  return y;
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  Tensor y = dispatchNum("maximum", BinaryOp::kMaximum, a, b);
  record("maximum", {a, b}, y, [a, b](const Tensor& dy) {
    Tensor aWins = greaterEqual(a, b);
    return std::vector<Tensor>{maskedGrad(dy, aWins, a.shape()),
                               maskedGrad(dy, logicalNot(aWins), b.shape())};
  });
  return y;
}

Tensor minimum(const Tensor& a, const Tensor& b) {
  Tensor y = dispatchNum("minimum", BinaryOp::kMinimum, a, b);
  record("minimum", {a, b}, y, [a, b](const Tensor& dy) {
    Tensor aWins = lessEqual(a, b);
    return std::vector<Tensor>{maskedGrad(dy, aWins, a.shape()),
                               maskedGrad(dy, logicalNot(aWins), b.shape())};
  });
  return y;
}

Tensor squaredDifference(const Tensor& a, const Tensor& b) {
  Tensor y = dispatchNum("squaredDifference", BinaryOp::kSquaredDiff, a, b);
  record("squaredDifference", {a, b}, y, [a, b](const Tensor& dy) {
    Tensor two = scalar(2);
    Tensor d = mul(dy, mul(two, sub(a, b)));
    return std::vector<Tensor>{reduceGradTo(d, a.shape()),
                               reduceGradTo(neg(d), b.shape())};
  });
  return y;
}

Tensor atan2(const Tensor& a, const Tensor& b) {
  return dispatch("atan2", BinaryOp::kAtan2, a, b, DType::f32);
}

// Move-consuming overloads; when a tape watches either operand they fall
// back to the copying overload, which records normally.

Tensor add(Tensor&& a, const Tensor& b) {
  const DType dtype = promoteTypes(a.dtype(), b.dtype());
  return consume("add", BinaryOp::kAdd, std::move(a), b, dtype,
                 [](const Tensor& x, const Tensor& y) { return add(x, y); });
}

Tensor sub(Tensor&& a, const Tensor& b) {
  const DType dtype = promoteTypes(a.dtype(), b.dtype());
  return consume("sub", BinaryOp::kSub, std::move(a), b, dtype,
                 [](const Tensor& x, const Tensor& y) { return sub(x, y); });
}

Tensor mul(Tensor&& a, const Tensor& b) {
  const DType dtype = promoteTypes(a.dtype(), b.dtype());
  return consume("mul", BinaryOp::kMul, std::move(a), b, dtype,
                 [](const Tensor& x, const Tensor& y) { return mul(x, y); });
}

Tensor div(Tensor&& a, const Tensor& b) {
  return consume("div", BinaryOp::kDiv, std::move(a), b, DType::f32,
                 [](const Tensor& x, const Tensor& y) { return div(x, y); });
}

Tensor addScalar(const Tensor& a, float s) { return add(a, scalar(s)); }
Tensor subScalar(const Tensor& a, float s) { return sub(a, scalar(s)); }
Tensor mulScalar(const Tensor& a, float s) { return mul(a, scalar(s)); }
Tensor divScalar(const Tensor& a, float s) { return div(a, scalar(s)); }

Tensor equal(const Tensor& a, const Tensor& b) {
  return dispatchBool("equal", BinaryOp::kEqual, a, b);
}
Tensor notEqual(const Tensor& a, const Tensor& b) {
  return dispatchBool("notEqual", BinaryOp::kNotEqual, a, b);
}
Tensor greater(const Tensor& a, const Tensor& b) {
  return dispatchBool("greater", BinaryOp::kGreater, a, b);
}
Tensor greaterEqual(const Tensor& a, const Tensor& b) {
  return dispatchBool("greaterEqual", BinaryOp::kGreaterEqual, a, b);
}
Tensor less(const Tensor& a, const Tensor& b) {
  return dispatchBool("less", BinaryOp::kLess, a, b);
}
Tensor lessEqual(const Tensor& a, const Tensor& b) {
  return dispatchBool("lessEqual", BinaryOp::kLessEqual, a, b);
}
Tensor logicalAnd(const Tensor& a, const Tensor& b) {
  return dispatchBool("logicalAnd", BinaryOp::kLogicalAnd, a, b);
}
Tensor logicalOr(const Tensor& a, const Tensor& b) {
  return dispatchBool("logicalOr", BinaryOp::kLogicalOr, a, b);
}
Tensor logicalXor(const Tensor& a, const Tensor& b) {
  return dispatchBool("logicalXor", BinaryOp::kLogicalXor, a, b);
}

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  internal::CaptureFrame frame;
  const RegionInstr instr{
      .kind = RegionInstr::Kind::kSelect, .a = -1, .b = -2, .c = -3};
  const Tensor ins[] = {cond, a, b};
  Tensor y = internal::elementwiseKernel(
      "where", {&instr, 1}, ins,
      util::broadcastShapes(util::broadcastShapes(cond.shape(), a.shape()),
                            b.shape()),
      promoteTypes(a.dtype(), b.dtype()));
  internal::observeOp(OpId::kSelect, {cond, a, b}, y);
  record("where", {a, b}, y, [cond, a, b](const Tensor& dy) {
    Tensor zero = zerosLike(dy);
    return std::vector<Tensor>{
        reduceGradTo(where(cond, dy, zero), a.shape()),
        reduceGradTo(where(cond, zero, dy), b.shape())};
  });
  return y;
}

}  // namespace tfjs::ops
