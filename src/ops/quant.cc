// Quantization ops: the int8 weight/activation codecs (DESIGN.md
// "Quantized execution"). matMul/conv2d take an int8 weight as a dtype of
// their one op body (fused.cc).
//
// Weight quantization runs on the host (it happens once, at conversion or
// load time); dequantize composes on-device ops so device backends keep
// their dataflow.
#include <cmath>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

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

}  // namespace tfjs::ops
