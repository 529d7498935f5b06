// Fused matMul/conv2d/depthwiseConv2d: bias add + activation folded into
// the producing kernel, mirroring tf.fused.matMul / the upstream fused conv
// paths that Layers' Dense, Conv2D and DepthwiseConv2D emit. Every backend
// runs the epilogue inside its matMul/conv2d/depthwiseConv2d kernel (the
// Backend virtuals take the bias and the activation), through the same
// dispatch body as the plain ops; the result is bit-identical to the
// unfused chain on the active backend — the epilogue applies exactly the
// same scalar formulas after the full accumulation (see DESIGN.md "Memory
// reuse").
#include "ops/common.h"

namespace tfjs::ops {

using internal::record;
using internal::reduceGradTo;

namespace {

/// dL/d(pre-activation) from dy and the fused output y. Every supported
/// activation's derivative is expressible from its own output, so the
/// pre-activation values never need to be materialized.
Tensor activationGrad(FusedActivation act, const Tensor& dy, const Tensor& y) {
  switch (act) {
    case FusedActivation::kNone:
      return dy.clone();
    case FusedActivation::kRelu:
      return mul(dy, cast(greater(y, scalar(0)), DType::f32));
    case FusedActivation::kRelu6:
      return mul(dy, cast(logicalAnd(greater(y, scalar(0)),
                                     less(y, scalar(6))),
                          DType::f32));
    case FusedActivation::kSigmoid:
      return mul(dy, mul(y, sub(scalar(1), y)));
  }
  throw InternalError("unknown FusedActivation");
}

/// Reports the fused op to a capture observer and records its pullback:
/// dL/d(pre-activation) from the fused output, then `operandGrads(dt)` for
/// the two operands and, with a bias, the bias's reduced gradient.
void finishFused(
    OpId id, const char* name, const Tensor& x, const Tensor& w,
    const Tensor& bias, const Tensor& y, FusedActivation act,
    std::span<const double> attrs,
    std::function<std::vector<Tensor>(const Tensor&)> operandGrads) {
  if (bias.defined()) {
    internal::observeOp(id, {x, w, bias}, y, attrs);
  } else {
    internal::observeOp(id, {x, w}, y, attrs);
  }
  const auto pullback = [bias, y, act, operandGrads](const Tensor& dy) {
    Tensor dt = activationGrad(act, dy, y);
    std::vector<Tensor> grads = operandGrads(dt);
    if (bias.defined()) grads.push_back(reduceGradTo(dt, bias.shape()));
    dt.dispose();
    return grads;
  };
  if (bias.defined()) {
    record(name, {x, w, bias}, y, pullback);
  } else {
    record(name, {x, w}, y, pullback);
  }
}

}  // namespace

std::optional<FusedActivation> fusibleActivation(const std::string& name) {
  if (name.empty() || name == "linear") return FusedActivation::kNone;
  if (name == "relu") return FusedActivation::kRelu;
  if (name == "relu6") return FusedActivation::kRelu6;
  if (name == "sigmoid") return FusedActivation::kSigmoid;
  return std::nullopt;
}

Tensor fusedMatMul(const Tensor& a, const Tensor& b, const Tensor& bias,
                   FusedActivation act, bool transposeA, bool transposeB) {
  // Int8 weights route to the quantized kernel (inference-only; the
  // transposed cases fall back to dequantized f32 weights).
  if (b.dtype() == DType::i8 && b.quantParams() != nullptr) {
    if (!transposeA && !transposeB) return quantizedMatMul(a, b, bias, act);
    Tensor bf = dequantize(b);
    Tensor y = fusedMatMul(a, bf, bias, act, transposeA, transposeB);
    bf.dispose();
    return y;
  }

  internal::CaptureFrame frame;
  Tensor y = internal::matMulKernel("fusedMatMul", a, b, transposeA,
                                    transposeB, bias, act);
  const double attrs[] = {static_cast<double>(act),
                          static_cast<double>(transposeA),
                          static_cast<double>(transposeB),
                          static_cast<double>(bias.defined())};
  finishFused(OpId::kFusedMatMul, "fusedMatMul", a, b, bias, y, act, attrs,
              [a, b, transposeA, transposeB, needA = internal::watched(a),
               needB = internal::watched(b)](const Tensor& dt) {
                return internal::matMulGrads(a, b, transposeA, transposeB,
                                             dt, needA, needB);
              });
  return y;
}

Tensor fusedConv2d(const Tensor& x, const Tensor& filter, const Tensor& bias,
                   FusedActivation act, int strideH, int strideW, PadMode pad,
                   int dilationH, int dilationW) {
  if (filter.dtype() == DType::i8 && filter.quantParams() != nullptr) {
    return quantizedConv2d(x, filter, bias, act, strideH, strideW, pad,
                           dilationH, dilationW);
  }

  internal::CaptureFrame frame;
  const Conv2DInfo info = conv_util::computeConv2DInfo(
      x.shape(), filter.shape(), strideH, strideW, pad, dilationH, dilationW,
      /*depthwise=*/false);
  Tensor y = internal::conv2dKernel("fusedConv2d", x, filter, info, bias, act);
  const double attrs[] = {
      static_cast<double>(act),     static_cast<double>(bias.defined()),
      static_cast<double>(strideH), static_cast<double>(strideW),
      static_cast<double>(pad),     static_cast<double>(dilationH),
      static_cast<double>(dilationW)};
  finishFused(OpId::kFusedConv2d, "fusedConv2d", x, filter, bias, y, act,
              attrs,
              [x, filter, info, needX = internal::watched(x),
               needF = internal::watched(filter)](const Tensor& dt) {
                return internal::convGrads(x, filter, info, dt, needX, needF);
              });
  return y;
}

Tensor fusedDepthwiseConv2d(const Tensor& x, const Tensor& filter,
                            const Tensor& bias, FusedActivation act,
                            int strideH, int strideW, PadMode pad,
                            int dilationH, int dilationW) {
  if (filter.dtype() == DType::i8 && filter.quantParams() != nullptr) {
    Tensor ff = dequantize(filter);
    Tensor y = fusedDepthwiseConv2d(x, ff, bias, act, strideH, strideW, pad,
                                    dilationH, dilationW);
    ff.dispose();
    return y;
  }

  internal::CaptureFrame frame;
  const Conv2DInfo info = conv_util::computeConv2DInfo(
      x.shape(), filter.shape(), strideH, strideW, pad, dilationH, dilationW,
      /*depthwise=*/true);
  Tensor y = internal::depthwiseKernel(x, filter, info, bias, act);
  const double attrs[] = {
      static_cast<double>(act),     static_cast<double>(bias.defined()),
      static_cast<double>(strideH), static_cast<double>(strideW),
      static_cast<double>(pad),     static_cast<double>(dilationH),
      static_cast<double>(dilationW)};
  finishFused(OpId::kFusedDepthwiseConv2d, "fusedDepthwiseConv2d", x, filter,
              bias, y, act, attrs,
              [x, filter, info, needX = internal::watched(x),
               needF = internal::watched(filter)](const Tensor& dt) {
                return internal::depthwiseGrads(x, filter, info, dt, needX,
                                                 needF);
              });
  return y;
}

}  // namespace tfjs::ops
