// Quantization ops: int8 weight/activation codecs and the quantized
// matMul/conv2d entry points (DESIGN.md "Quantized execution").
//
// The quantized kernels are inference-only — none of these ops record a
// gradient. Weight quantization runs on the host (it happens once, at
// conversion or load time); dequantize composes on-device ops so device
// backends keep their dataflow.
#include <cmath>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::to3d;

namespace {

float clampCode(float code) {
  return std::min(std::max(code, static_cast<float>(kInt8Min)),
                  static_cast<float>(kInt8Max));
}

}  // namespace

Tensor quantizePerChannel(const Tensor& w) {
  TFJS_ARG_CHECK(w.dtype() == DType::f32,
                 "quantizePerChannel expects an f32 tensor, got "
                     << dtypeName(w.dtype()));
  TFJS_SHAPE_CHECK(w.rank() >= 2,
                   "quantizePerChannel expects rank >= 2, got " << w.rank());
  const std::vector<float> data = w.dataSync();
  const int n = w.shape()[w.rank() - 1];
  const std::size_t rows = data.size() / static_cast<std::size_t>(n);

  auto params = std::make_shared<QuantParams>();
  params->axis = w.rank() - 1;
  params->scale.assign(static_cast<std::size_t>(n), 0.f);
  params->zeroPoint.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = data.data() + r * n;
    for (int j = 0; j < n; ++j) {
      params->scale[j] = std::max(params->scale[j], std::fabs(row[j]));
    }
  }
  for (int j = 0; j < n; ++j) {
    params->scale[j] =
        params->scale[j] > 0 ? params->scale[j] / kInt8Max : 0.f;
  }

  std::vector<float> codes(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float s = params->scale[i % static_cast<std::size_t>(n)];
    codes[i] =
        s > 0 ? clampCode(static_cast<float>(std::lround(data[i] / s))) : 0.f;
  }
  Tensor q = tensor(codes, w.shape(), DType::i8);
  q.setQuantParams(std::move(params));
  return q;
}

Tensor quantize(const Tensor& x, float scale, std::int32_t zeroPoint) {
  TFJS_ARG_CHECK(x.dtype() == DType::f32,
                 "quantize expects an f32 tensor, got "
                     << dtypeName(x.dtype()));
  TFJS_ARG_CHECK(scale > 0, "quantize scale must be positive, got " << scale);
  internal::CaptureFrame frame;
  const std::vector<float> data = x.dataSync();
  std::vector<float> codes(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    codes[i] = clampCode(static_cast<float>(
        std::lround(data[i] / scale) + zeroPoint));
  }
  Tensor q = tensor(codes, x.shape(), DType::i8);
  q.setQuantParams(
      std::make_shared<QuantParams>(QuantParams::perTensor(scale, zeroPoint)));
  internal::observeOp(OpId::kQuantize, {x}, q,
                      {static_cast<double>(scale),
                       static_cast<double>(zeroPoint)});
  return q;
}

Tensor dequantize(const Tensor& q) {
  TFJS_ARG_CHECK(q.dtype() == DType::i8 && q.quantParams() != nullptr,
                 "dequantize expects an int8 tensor with attached "
                 "quantization parameters");
  const QuantParamsPtr qp = q.quantParams();
  qp->validate();
  internal::CaptureFrame frame;
  internal::KernelScope k("dequantize");
  Tensor y;
  {
    internal::TapePause pause;
    Tensor qf = cast(q, DType::f32);  // alias; drops the quant metadata
    if (!qp->perChannel()) {
      Tensor shifted = qp->zeroPointFor(0) != 0
                           ? addScalar(qf, -static_cast<float>(
                                               qp->zeroPointFor(0)))
                           : qf.clone();
      y = mulScalar(shifted, qp->scaleFor(0));
      shifted.dispose();
    } else {
      TFJS_SHAPE_CHECK(
          qp->channels() ==
              static_cast<std::size_t>(q.shape()[q.rank() - 1]),
          "dequantize per-channel parameter count must match the last axis");
      Tensor scaleT = tensor1d(qp->scale);
      if (qp->symmetric()) {
        y = mul(qf, scaleT);
      } else {
        std::vector<float> zps(qp->zeroPoint.begin(), qp->zeroPoint.end());
        Tensor zpT = tensor1d(zps);
        Tensor centered = sub(qf, zpT);
        y = mul(centered, scaleT);
        centered.dispose();
        zpT.dispose();
      }
      scaleT.dispose();
    }
    qf.dispose();
  }
  k.notify(y);
  internal::observeOp(OpId::kDequantize, {q}, y);
  return y;
}

Tensor quantizedMatMul(const Tensor& a, const Tensor& b, const Tensor& bias,
                       FusedActivation act, const OutQuant* outQ) {
  TFJS_ARG_CHECK(a.dtype() == DType::f32,
                 "quantizedMatMul expects f32 activations, got "
                     << dtypeName(a.dtype()));
  TFJS_ARG_CHECK(b.dtype() == DType::i8 && b.quantParams() != nullptr,
                 "quantizedMatMul expects int8 weights with attached "
                 "quantization parameters");
  TFJS_SHAPE_CHECK(a.rank() == 2 || a.rank() == 3,
                   "quantizedMatMul expects rank 2 or 3 for a, got "
                       << a.rank());
  TFJS_SHAPE_CHECK(b.rank() == 2 || b.rank() == 3,
                   "quantizedMatMul expects rank 2 or 3 for b, got "
                       << b.rank());

  // One recorded node whether the backend has quantized kernels or falls
  // back to dequantize + fused f32.
  internal::CaptureFrame frame;
  const auto observe = [&](const Tensor& y) {
    const std::initializer_list<double> attrs{
        static_cast<double>(act), static_cast<double>(bias.defined()),
        static_cast<double>(outQ != nullptr),
        outQ != nullptr ? static_cast<double>(outQ->scale) : 0.0,
        outQ != nullptr ? static_cast<double>(outQ->zeroPoint) : 0.0};
    if (bias.defined()) {
      internal::observeOp(OpId::kQuantMatMul, {a, b, bias}, y, attrs);
    } else {
      internal::observeOp(OpId::kQuantMatMul, {a, b}, y, attrs);
    }
  };

  if (!E().backend().supportsQuantizedKernels()) {
    // Device backends keep their f32 dataflow: dequantize the weights once
    // and run the fused path, requantizing at the edge if requested.
    Tensor bf = dequantize(b);
    Tensor y = fusedMatMul(a, bf, bias, act);
    bf.dispose();
    if (outQ != nullptr) {
      Tensor qy = quantize(y, outQ->scale, outQ->zeroPoint);
      y.dispose();
      observe(qy);
      return qy;
    }
    observe(y);
    return y;
  }

  internal::KernelScope k("quantizedMatMul");
  Tensor y;
  {
    internal::TapePause pause;
    Tensor a3 = to3d(a);
    Tensor b3 = to3d(b);  // alias: per-channel params survive (last axis kept)
    TFJS_SHAPE_CHECK(a3.shape()[2] == b3.shape()[1],
                     "quantizedMatMul inner dimensions must agree: "
                         << a.shape().toString() << " x "
                         << b.shape().toString());
    TFJS_SHAPE_CHECK(b3.shape()[0] == 1,
                     "quantizedMatMul weights cannot be batched");
    const int m = a3.shape()[1], n = b3.shape()[2];
    const TensorSpec sa = E().prepareInput(a3);
    const TensorSpec sb = E().prepareInput(b3);
    TensorSpec sbias;
    const TensorSpec* biasPtr = nullptr;
    if (bias.defined()) {
      TFJS_SHAPE_CHECK(bias.rank() == 1 && bias.shape()[0] == n,
                       "quantizedMatMul bias must be rank 1 of length "
                           << n << ", got " << bias.shape().toString());
      sbias = E().prepareInput(bias);
      biasPtr = &sbias;
    }
    const DataId id = E().backend().quantizedMatMul(
        sa, sb, *b3.quantParams(), biasPtr, act, outQ);
    const Shape out3{a3.shape()[0], m, n};
    const DType outDtype = outQ != nullptr ? DType::i8 : DType::f32;
    Tensor y3 = E().makeTensorFromDataId(id, out3, outDtype);
    if (outQ != nullptr) {
      y3.setQuantParams(std::make_shared<QuantParams>(
          QuantParams::perTensor(outQ->scale, outQ->zeroPoint)));
    }
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
  observe(y);
  return y;
}

Tensor quantizedConv2d(const Tensor& x, const Tensor& filter,
                       const Tensor& bias, FusedActivation act, int strideH,
                       int strideW, PadMode pad, int dilationH, int dilationW,
                       const OutQuant* outQ) {
  TFJS_ARG_CHECK(x.dtype() == DType::f32,
                 "quantizedConv2d expects f32 activations, got "
                     << dtypeName(x.dtype()));
  TFJS_ARG_CHECK(filter.dtype() == DType::i8 &&
                     filter.quantParams() != nullptr,
                 "quantizedConv2d expects an int8 filter with attached "
                 "quantization parameters");

  internal::CaptureFrame frame;
  const auto observe = [&](const Tensor& y) {
    const std::initializer_list<double> attrs{
        static_cast<double>(act), static_cast<double>(bias.defined()),
        static_cast<double>(outQ != nullptr),
        outQ != nullptr ? static_cast<double>(outQ->scale) : 0.0,
        outQ != nullptr ? static_cast<double>(outQ->zeroPoint) : 0.0,
        static_cast<double>(strideH), static_cast<double>(strideW),
        static_cast<double>(pad), static_cast<double>(dilationH),
        static_cast<double>(dilationW)};
    if (bias.defined()) {
      internal::observeOp(OpId::kQuantConv2d, {x, filter, bias}, y, attrs);
    } else {
      internal::observeOp(OpId::kQuantConv2d, {x, filter}, y, attrs);
    }
  };

  if (!E().backend().supportsQuantizedKernels()) {
    Tensor ff = dequantize(filter);
    Tensor y = fusedConv2d(x, ff, bias, act, strideH, strideW, pad, dilationH,
                           dilationW);
    ff.dispose();
    if (outQ != nullptr) {
      Tensor qy = quantize(y, outQ->scale, outQ->zeroPoint);
      y.dispose();
      observe(qy);
      return qy;
    }
    observe(y);
    return y;
  }

  const Conv2DInfo info = conv_util::computeConv2DInfo(
      x.shape(), filter.shape(), strideH, strideW, pad, dilationH, dilationW,
      /*depthwise=*/false);
  internal::KernelScope k("quantizedConv2d");
  Tensor y;
  {
    internal::TapePause pause;
    const TensorSpec sx = E().prepareInput(x);
    const TensorSpec sf = E().prepareInput(filter);
    TensorSpec sbias;
    const TensorSpec* biasPtr = nullptr;
    if (bias.defined()) {
      TFJS_SHAPE_CHECK(bias.rank() == 1 && bias.shape()[0] == info.outC,
                       "quantizedConv2d bias must be rank 1 of length "
                           << info.outC << ", got "
                           << bias.shape().toString());
      sbias = E().prepareInput(bias);
      biasPtr = &sbias;
    }
    const DataId id = E().backend().quantizedConv2d(
        sx, sf, info, *filter.quantParams(), biasPtr, act, outQ);
    const DType outDtype = outQ != nullptr ? DType::i8 : DType::f32;
    y = E().makeTensorFromDataId(
        id, Shape{info.batch, info.outH, info.outW, info.outC}, outDtype);
    if (outQ != nullptr) {
      y.setQuantParams(std::make_shared<QuantParams>(
          QuantParams::perTensor(outQ->scale, outQ->zeroPoint)));
    }
  }
  k.notify(y);
  observe(y);
  return y;
}

}  // namespace tfjs::ops
