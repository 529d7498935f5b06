// Convolutions and pooling. Geometry (SAME/VALID padding, strides,
// dilations) is resolved here into an explicit Conv2DInfo/Pool2DInfo; the
// backends only ever see resolved numbers. conv2d and depthwiseConv2d are
// the bodies of fusedConv2d and fusedDepthwiseConv2d (fused.cc) with no bias
// and no activation; their adjoints live here.
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;
using internal::record;

namespace {

Tensor convBackpropInput(const Tensor& dy, const Tensor& filter,
                         const Conv2DInfo& info) {
  internal::KernelScope k("conv2dBackpropInput");
  const TensorSpec sdy = E().prepareInput(dy);
  const TensorSpec sf = E().prepareInput(filter);
  const DataId id = E().backend().conv2dBackpropInput(sdy, sf, info);
  return k.wrap(id, Shape{info.batch, info.inH, info.inW, info.inC},
                DType::f32);
}

Tensor convBackpropFilter(const Tensor& x, const Tensor& dy,
                          const Conv2DInfo& info) {
  internal::KernelScope k("conv2dBackpropFilter");
  const TensorSpec sx = E().prepareInput(x);
  const TensorSpec sdy = E().prepareInput(dy);
  const DataId id = E().backend().conv2dBackpropFilter(sx, sdy, info);
  return k.wrap(id, Shape{info.filterH, info.filterW, info.inC, info.outC},
                DType::f32);
}

Tensor dwBackpropInput(const Tensor& dy, const Tensor& filter,
                       const Conv2DInfo& info) {
  internal::KernelScope k("depthwiseConv2dBackpropInput");
  const TensorSpec sdy = E().prepareInput(dy);
  const TensorSpec sf = E().prepareInput(filter);
  const DataId id = E().backend().depthwiseConv2dBackpropInput(sdy, sf, info);
  return k.wrap(id, Shape{info.batch, info.inH, info.inW, info.inC},
                DType::f32);
}

Tensor dwBackpropFilter(const Tensor& x, const Tensor& dy,
                        const Conv2DInfo& info) {
  internal::KernelScope k("depthwiseConv2dBackpropFilter");
  const TensorSpec sx = E().prepareInput(x);
  const TensorSpec sdy = E().prepareInput(dy);
  const DataId id = E().backend().depthwiseConv2dBackpropFilter(sx, sdy, info);
  return k.wrap(id,
                Shape{info.filterH, info.filterW, info.inC, info.channelMult},
                DType::f32);
}

}  // namespace

std::vector<Tensor> internal::convGrads(const Tensor& x, const Tensor& filter,
                                        const Conv2DInfo& info,
                                        const Tensor& dy, bool needX,
                                        bool needF) {
  return {needX ? convBackpropInput(dy, filter, info) : Tensor{},
          needF ? convBackpropFilter(x, dy, info) : Tensor{}};
}

std::vector<Tensor> internal::depthwiseGrads(const Tensor& x,
                                             const Tensor& filter,
                                             const Conv2DInfo& info,
                                             const Tensor& dy, bool needX,
                                             bool needF) {
  return {needX ? dwBackpropInput(dy, filter, info) : Tensor{},
          needF ? dwBackpropFilter(x, dy, info) : Tensor{}};
}

Tensor conv2d(const Tensor& x, const Tensor& filter, int strideH, int strideW,
              PadMode pad, int dilationH, int dilationW) {
  return internal::fusedConv2d("conv2d", x, filter, Tensor{},
                               FusedActivation::kNone, strideH, strideW, pad,
                               dilationH, dilationW);
}

Tensor depthwiseConv2d(const Tensor& x, const Tensor& filter, int strideH,
                       int strideW, PadMode pad, int dilationH,
                       int dilationW) {
  return internal::fusedDepthwiseConv2d("depthwiseConv2d", x, filter,
                                        Tensor{}, FusedActivation::kNone,
                                        strideH, strideW, pad, dilationH,
                                        dilationW);
}

Tensor separableConv2d(const Tensor& x, const Tensor& depthwiseFilter,
                       const Tensor& pointwiseFilter, int strideH, int strideW,
                       PadMode pad) {
  Tensor dw = depthwiseConv2d(x, depthwiseFilter, strideH, strideW, pad);
  Tensor y = conv2d(dw, pointwiseFilter, 1, 1, PadMode::kValid);
  dw.dispose();
  return y;
}

Tensor maxPool(const Tensor& x, int filterH, int filterW, int strideH,
               int strideW, PadMode pad) {
  const Pool2DInfo info = conv_util::computePool2DInfo(
      x.shape(), filterH, filterW, strideH, strideW, pad);
  internal::CaptureFrame frame;
  internal::KernelScope k("maxPool");
  const TensorSpec sx = E().prepareInput(x);
  const DataId id = E().backend().pool2d(PoolMode::kMax, sx, info);
  Tensor y =
      k.wrap(id, Shape{info.batch, info.outH, info.outW, info.channels},
             DType::f32);
  internal::observeOp(OpId::kPool, {x}, y,
                      {static_cast<double>(PoolMode::kMax),
                       static_cast<double>(filterH),
                       static_cast<double>(filterW),
                       static_cast<double>(strideH),
                       static_cast<double>(strideW),
                       static_cast<double>(pad)});
  record("maxPool", {x}, y, [x, info](const Tensor& dy) {
    internal::KernelScope kg("maxPoolBackprop");
    const TensorSpec sdy = E().prepareInput(dy);
    const TensorSpec sxIn = E().prepareInput(x);
    const DataId gid = E().backend().maxPoolBackprop(sdy, sxIn, info);
    return std::vector<Tensor>{kg.wrap(
        gid, Shape{info.batch, info.inH, info.inW, info.channels},
        DType::f32)};
  });
  return y;
}

Tensor avgPool(const Tensor& x, int filterH, int filterW, int strideH,
               int strideW, PadMode pad) {
  const Pool2DInfo info = conv_util::computePool2DInfo(
      x.shape(), filterH, filterW, strideH, strideW, pad);
  internal::CaptureFrame frame;
  internal::KernelScope k("avgPool");
  const TensorSpec sx = E().prepareInput(x);
  const DataId id = E().backend().pool2d(PoolMode::kAvg, sx, info);
  Tensor y =
      k.wrap(id, Shape{info.batch, info.outH, info.outW, info.channels},
             DType::f32);
  internal::observeOp(OpId::kPool, {x}, y,
                      {static_cast<double>(PoolMode::kAvg),
                       static_cast<double>(filterH),
                       static_cast<double>(filterW),
                       static_cast<double>(strideH),
                       static_cast<double>(strideW),
                       static_cast<double>(pad)});
  record("avgPool", {x}, y, [info](const Tensor& dy) {
    internal::KernelScope kg("avgPoolBackprop");
    const TensorSpec sdy = E().prepareInput(dy);
    const DataId gid = E().backend().avgPoolBackprop(sdy, info);
    return std::vector<Tensor>{kg.wrap(
        gid, Shape{info.batch, info.inH, info.inW, info.channels},
        DType::f32)};
  });
  return y;
}

}  // namespace tfjs::ops
