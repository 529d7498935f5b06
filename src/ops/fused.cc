// The producer ops: matMul, conv2d and depthwiseConv2d with an optional bias
// add + activation epilogue, mirroring tf.fused.matMul / the upstream fused
// conv paths that Layers' Dense, Conv2D and DepthwiseConv2D emit. One body
// per producer kernel serves the plain op (no bias, kNone), the fused op and
// the graph executor; it runs the backend kernel with its epilogue, records
// one graph node (attrs ending in {act, hasBias}) and the pullback. An int8
// weight is a dtype of the same kernel: the backend decides between its
// int8 kernel and the dequantized f32 one (core/backend.h), the op span
// reads quantizedMatMul/quantizedConv2d, and no pullback is recorded. Every
// backend runs the epilogue inside its matMul/conv2d/depthwiseConv2d
// kernel; the result is bit-identical to the unfused chain on the active
// backend — the epilogue applies exactly the same scalar formulas after the
// full accumulation (see DESIGN.md "Memory reuse").
#include <array>
#include <initializer_list>
#include <vector>

#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::record;
using internal::reduceGradTo;
using internal::to3d;

namespace {

bool int8Weights(const Tensor& w) {
  return w.dtype() == DType::i8 && w.quantParams() != nullptr;
}

/// dL/d(pre-activation) from dy and the fused output y for an activation
/// other than kNone. Every supported activation's derivative is expressible
/// from its own output, so the pre-activation values never need to be
/// materialized. Each is one region (relu: dy * (y > 0), relu6:
/// dy * ((y > 0) && (y < 6)), sigmoid: dy * (y * (1 - y))), bitwise the
/// same values as those ops dispatched one at a time.
Tensor activationGrad(FusedActivation act, const Tensor& dy, const Tensor& y) {
  using I = RegionInstr;
  constexpr int kDy = I::input(0), kY = I::input(1), kC0 = I::input(2),
                kC1 = I::input(3);
  const auto region = [&](std::vector<RegionInstr> instrs,
                          std::initializer_list<float> constants) {
    std::vector<Tensor> inputs{dy, y};
    for (float c : constants) inputs.push_back(scalar(c));
    const RegionProgram program{static_cast<int>(inputs.size()),
                                std::move(instrs)};
    Tensor dt = fusedRegion(program, inputs);
    for (std::size_t j = 2; j < inputs.size(); ++j) inputs[j].dispose();
    return dt;
  };
  switch (act) {
    case FusedActivation::kRelu:
      return region({I::binary(BinaryOp::kGreater, kY, kC0),
                     I::binary(BinaryOp::kMul, kDy, 0)},
                    {0.f});
    case FusedActivation::kRelu6:
      return region({I::binary(BinaryOp::kGreater, kY, kC0),
                     I::binary(BinaryOp::kLess, kY, kC1),
                     I::binary(BinaryOp::kLogicalAnd, 0, 1),
                     I::binary(BinaryOp::kMul, kDy, 2)},
                    {0.f, 6.f});
    case FusedActivation::kSigmoid:
      return region({I::binary(BinaryOp::kSub, kC0, kY),
                     I::binary(BinaryOp::kMul, kY, 0),
                     I::binary(BinaryOp::kMul, kDy, 1)},
                    {1.f});
    case FusedActivation::kNone:
      break;
  }
  throw InternalError("no activation gradient for this FusedActivation");
}

/// Reports the producer op to a capture observer and records its pullback
/// under `name`: dL/d(pre-activation) from the output, then
/// `operandGrads(dt)` for the two operands and, with a bias, the bias's
/// reduced gradient. Builds no closure when no tape is recording (every
/// plain matMul and conv2d runs through here) or the weight is int8
/// (inference only).
template <typename OperandGrads>
void finishFused(OpId id, const char* name, const Tensor& x, const Tensor& w,
                 const Tensor& bias, const Tensor& y, FusedActivation act,
                 std::span<const double> layout, OperandGrads operandGrads) {
  internal::observeProducer(id, x, w, bias, y, act, layout);
  if (E().tape() == nullptr || int8Weights(w)) return;
  const auto pullback = [bias, y, act,
                         operandGrads = std::move(operandGrads)](
                            const Tensor& dy) {
    const bool plain = act == FusedActivation::kNone;
    Tensor dt = plain ? dy : activationGrad(act, dy, y);
    std::vector<Tensor> grads = operandGrads(dt);
    if (bias.defined()) grads.push_back(reduceGradTo(dt, bias.shape()));
    if (!plain) dt.dispose();
    return grads;
  };
  if (bias.defined()) {
    record(name, {x, w, bias}, y, pullback);
  } else {
    record(name, {x, w}, y, pullback);
  }
}

/// The matMul kernel dispatch: checks ranks, inner and batch dims and the
/// bias (rank 1, length n) before any tensor is made, views both operands
/// as rank 3, runs `kernel(sa, sb, biasSpec)` under the op span `name` and
/// returns the [batch, m, n] product, rank 2 for rank-2 operands.
template <typename Kernel>
Tensor matMulDispatch(const char* name, const Tensor& a, const Tensor& b,
                      bool transposeA, bool transposeB, const Tensor& bias,
                      Kernel kernel) {
  TFJS_SHAPE_CHECK(a.rank() == 2 || a.rank() == 3,
                   name << " expects rank 2 or 3 for a, got " << a.rank());
  TFJS_SHAPE_CHECK(b.rank() == 2 || b.rank() == 3,
                   name << " expects rank 2 or 3 for b, got " << b.rank());
  // Every check runs on the rank-3 dims before any tensor is made.
  const auto dims3 = [](const Tensor& t) {
    const Shape& s = t.shape();
    return t.rank() == 3 ? std::array<int, 3>{s[0], s[1], s[2]}
                         : std::array<int, 3>{1, s[0], s[1]};
  };
  const std::array<int, 3> a3s = dims3(a), b3s = dims3(b);
  const int kA = transposeA ? a3s[1] : a3s[2];
  const int kB = transposeB ? b3s[2] : b3s[1];
  TFJS_SHAPE_CHECK(kA == kB, name << " inner dimensions must agree: "
                                  << a.shape().toString() << " x "
                                  << b.shape().toString());
  const int bA = a3s[0], bB = b3s[0];
  TFJS_SHAPE_CHECK(bA == bB || bA == 1 || bB == 1,
                   name << " batch dims must match or broadcast");
  const int m = transposeA ? a3s[2] : a3s[1];
  const int n = transposeB ? b3s[1] : b3s[2];
  internal::checkBias(name, bias, n);

  internal::KernelScope k(name);
  Tensor y;
  {
    internal::TapePause pause;
    Tensor a3 = to3d(a);
    Tensor b3 = to3d(b);
    const TensorSpec sa = E().prepareInput(a3);
    const TensorSpec sb = E().prepareInput(b3);
    TensorSpec sbias;
    if (bias.defined()) sbias = E().prepareInput(bias);
    const DataId id = kernel(sa, sb, bias.defined() ? &sbias : nullptr);
    Tensor y3 =
        E().makeTensorFromDataId(id, Shape{std::max(bA, bB), m, n}, DType::f32);
    if (a.rank() == 2 && b.rank() == 2) {
      y = y3.reshape(Shape{m, n});
      y3.dispose();
    } else {
      y = y3;
    }
    a3.dispose();
    b3.dispose();
  }
  k.notify(y);
  return y;
}

/// The conv kernel dispatch of conv2d and depthwiseConv2d: checks the bias
/// (rank 1, length outC), runs `kernel(sx, sf, biasSpec)` under the op span
/// `name` and wraps the NHWC output.
template <typename Kernel>
Tensor convDispatch(const char* name, const Tensor& x, const Tensor& filter,
                    const Tensor& bias, const Conv2DInfo& info,
                    Kernel kernel) {
  internal::checkBias(name, bias, info.outC);
  internal::KernelScope k(name);
  const TensorSpec sx = E().prepareInput(x);
  const TensorSpec sf = E().prepareInput(filter);
  TensorSpec sbias;
  if (bias.defined()) sbias = E().prepareInput(bias);
  return k.wrap(kernel(sx, sf, bias.defined() ? &sbias : nullptr),
                Shape{info.batch, info.outH, info.outW, info.outC},
                DType::f32);
}

}  // namespace

void internal::observeProducer(OpId id, const Tensor& x, const Tensor& w,
                               const Tensor& bias, const Tensor& y,
                               FusedActivation act,
                               std::span<const double> layout) {
  if (!observing()) return;
  std::vector<double> attrs(layout.begin(), layout.end());
  attrs.push_back(static_cast<double>(act));
  attrs.push_back(bias.defined() ? 1.0 : 0.0);
  if (bias.defined()) {
    observeOp(id, {x, w, bias}, y, attrs);
  } else {
    observeOp(id, {x, w}, y, attrs);
  }
}

std::optional<FusedActivation> fusibleActivation(const std::string& name) {
  if (name.empty() || name == "linear") return FusedActivation::kNone;
  if (name == "relu") return FusedActivation::kRelu;
  if (name == "relu6") return FusedActivation::kRelu6;
  if (name == "sigmoid") return FusedActivation::kSigmoid;
  return std::nullopt;
}

Tensor internal::fusedMatMul(const char* name, const Tensor& a,
                             const Tensor& b, const Tensor& bias,
                             FusedActivation act, bool transposeA,
                             bool transposeB) {
  CaptureFrame frame;
  Tensor y = matMulDispatch(
      int8Weights(b) ? "quantizedMatMul" : name, a, b, transposeA, transposeB,
      bias,
      [&](const TensorSpec& sa, const TensorSpec& sb, const TensorSpec* sbias) {
        return E().backend().matMul(sa, sb, transposeA, transposeB, sbias,
                                    act);
      });
  const double layout[] = {static_cast<double>(transposeA),
                           static_cast<double>(transposeB)};
  finishFused(OpId::kMatMul, name, a, b, bias, y, act, layout,
              [a, b, transposeA, transposeB, needA = watched(a),
               needB = watched(b)](const Tensor& dt) {
                return matMulGrads(a, b, transposeA, transposeB, dt, needA,
                                   needB);
              });
  return y;
}

Tensor internal::fusedConv2d(const char* name, const Tensor& x,
                             const Tensor& filter, const Tensor& bias,
                             FusedActivation act, int strideH, int strideW,
                             PadMode pad, int dilationH, int dilationW) {
  const Conv2DInfo info = conv_util::computeConv2DInfo(
      x.shape(), filter.shape(), strideH, strideW, pad, dilationH, dilationW,
      /*depthwise=*/false);
  CaptureFrame frame;
  Tensor y = convDispatch(
      int8Weights(filter) ? "quantizedConv2d" : name, x, filter, bias, info,
      [&](const TensorSpec& sx, const TensorSpec& sf, const TensorSpec* sbias) {
        return E().backend().conv2d(sx, sf, info, sbias, act);
      });
  finishFused(OpId::kConv2d, name, x, filter, bias, y, act,
              convLayout(strideH, strideW, pad, dilationH, dilationW),
              [x, filter, info, needX = watched(x),
               needF = watched(filter)](const Tensor& dt) {
                return convGrads(x, filter, info, dt, needX, needF);
              });
  return y;
}

Tensor internal::fusedDepthwiseConv2d(const char* name, const Tensor& x,
                                      const Tensor& filter, const Tensor& bias,
                                      FusedActivation act, int strideH,
                                      int strideW, PadMode pad, int dilationH,
                                      int dilationW) {
  // Depthwise filters are not quantized (their per-channel reuse is too low
  // to pay for the codec); an int8 filter is dequantized up front.
  if (int8Weights(filter)) {
    Tensor ff = dequantize(filter);
    Tensor y = fusedDepthwiseConv2d(name, x, ff, bias, act, strideH, strideW,
                                    pad, dilationH, dilationW);
    ff.dispose();
    return y;
  }

  const Conv2DInfo info = conv_util::computeConv2DInfo(
      x.shape(), filter.shape(), strideH, strideW, pad, dilationH, dilationW,
      /*depthwise=*/true);
  CaptureFrame frame;
  // One span name for the plain and the fused op: the epilogue is part of
  // the depthwise kernel, as profiles and per-layer breakdowns see it.
  Tensor y = convDispatch(
      "depthwiseConv2d", x, filter, bias, info,
      [&](const TensorSpec& sx, const TensorSpec& sf, const TensorSpec* sbias) {
        return E().backend().depthwiseConv2d(sx, sf, info, sbias, act);
      });
  finishFused(OpId::kDepthwiseConv2d, name, x, filter, bias, y, act,
              convLayout(strideH, strideW, pad, dilationH, dilationW),
              [x, filter, info, needX = watched(x),
               needF = watched(filter)](const Tensor& dt) {
                return depthwiseGrads(x, filter, info, dt, needX, needF);
              });
  return y;
}

Tensor fusedMatMul(const Tensor& a, const Tensor& b, const Tensor& bias,
                   FusedActivation act, bool transposeA, bool transposeB) {
  return internal::fusedMatMul("fusedMatMul", a, b, bias, act, transposeA,
                               transposeB);
}

Tensor fusedConv2d(const Tensor& x, const Tensor& filter, const Tensor& bias,
                   FusedActivation act, int strideH, int strideW, PadMode pad,
                   int dilationH, int dilationW) {
  return internal::fusedConv2d("fusedConv2d", x, filter, bias, act, strideH,
                               strideW, pad, dilationH, dilationW);
}

Tensor fusedDepthwiseConv2d(const Tensor& x, const Tensor& filter,
                            const Tensor& bias, FusedActivation act,
                            int strideH, int strideW, PadMode pad,
                            int dilationH, int dilationW) {
  return internal::fusedDepthwiseConv2d("fusedDepthwiseConv2d", x, filter,
                                        bias, act, strideH, strideW, pad,
                                        dilationH, dilationW);
}

}  // namespace tfjs::ops
