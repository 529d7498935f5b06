#include "layers/conv_layers.h"

#include "core/conv_util.h"
#include "core/engine.h"
#include "ops/common.h"
#include "ops/ops.h"

namespace tfjs::layers {

namespace o = tfjs::ops;

namespace {
io::JsonArray pair(int a, int b) {
  io::JsonArray arr;
  arr.emplace_back(a);
  arr.emplace_back(b);
  return arr;
}
}  // namespace

// ------------------------------------------------------------------- Conv2D

Conv2D::Conv2D(Conv2DOptions opts)
    : Layer(opts.name), opts_(std::move(opts)),
      activation_(makeActivation(opts_.activation)) {
  TFJS_ARG_CHECK(opts_.filters > 0, "Conv2D requires filters > 0");
  TFJS_ARG_CHECK(opts_.kernelH > 0 && opts_.kernelW > 0,
                 "Conv2D kernel size must be positive");
}

void Conv2D::build(const Shape& inputShape) {
  TFJS_ARG_CHECK(inputShape.rank() == 4,
                 "Conv2D expects NHWC input, got " << inputShape.toString());
  const int inC = inputShape[3];
  const int fanIn = opts_.kernelH * opts_.kernelW * inC;
  const int fanOut = opts_.kernelH * opts_.kernelW * opts_.filters;
  kernel_ = addWeight("kernel",
                      Shape{opts_.kernelH, opts_.kernelW, inC, opts_.filters},
                      *makeInitializer(opts_.kernelInitializer), fanIn, fanOut);
  if (opts_.useBias) {
    bias_ = addWeight("bias", Shape{opts_.filters}, *zerosInitializer(),
                      fanIn, fanOut);
  }
  built_ = true;
}

Tensor Conv2D::call(const Tensor& x, bool) {
  return Engine::get().tidy([&] {
    // conv2d -> add -> activation matches the fused kernel's epilogue;
    // see Dense::call for the bit-identity contract.
    const auto act = o::fusibleActivation(opts_.activation);
    Tensor y = o::fusedConv2d(x, kernel_.value(),
                              opts_.useBias ? bias_.value() : Tensor(),
                              act.value_or(FusedActivation::kNone),
                              opts_.strideH, opts_.strideW,
                              padModeFromName(opts_.padding));
    if (act) return y;
    return activation_(y);
  });
}

Shape Conv2D::computeOutputShape(const Shape& in) const {
  const PadMode pad = padModeFromName(opts_.padding);
  const int outH = conv_util::outputSize(in[1], opts_.kernelH, opts_.strideH,
                                         1, pad);
  const int outW = conv_util::outputSize(in[2], opts_.kernelW, opts_.strideW,
                                         1, pad);
  return Shape{in[0], outH, outW, opts_.filters};
}

io::Json Conv2D::getConfig() const {
  io::Json j = Layer::getConfig();
  j["filters"] = opts_.filters;
  j["kernel_size"] = io::Json(pair(opts_.kernelH, opts_.kernelW));
  j["strides"] = io::Json(pair(opts_.strideH, opts_.strideW));
  j["padding"] = opts_.padding;
  j["activation"] = opts_.activation;
  j["use_bias"] = opts_.useBias;
  return j;
}

// ---------------------------------------------------------- DepthwiseConv2D

DepthwiseConv2D::DepthwiseConv2D(DepthwiseConv2DOptions opts)
    : Layer(opts.name), opts_(std::move(opts)),
      activation_(makeActivation(opts_.activation)) {
  TFJS_ARG_CHECK(opts_.depthMultiplier > 0,
                 "DepthwiseConv2D depthMultiplier must be > 0");
}

void DepthwiseConv2D::build(const Shape& inputShape) {
  TFJS_ARG_CHECK(inputShape.rank() == 4, "DepthwiseConv2D expects NHWC input");
  const int inC = inputShape[3];
  const int fanIn = opts_.kernelH * opts_.kernelW;
  const int fanOut = fanIn * opts_.depthMultiplier;
  kernel_ = addWeight(
      "depthwise_kernel",
      Shape{opts_.kernelH, opts_.kernelW, inC, opts_.depthMultiplier},
      *makeInitializer(opts_.kernelInitializer), fanIn, fanOut);
  if (opts_.useBias) {
    bias_ = addWeight("bias", Shape{inC * opts_.depthMultiplier},
                      *zerosInitializer(), fanIn, fanOut);
  }
  built_ = true;
}

Tensor DepthwiseConv2D::call(const Tensor& x, bool) {
  return Engine::get().tidy([&] {
    // As Conv2D::call: the fused kernel's epilogue is the add + activation.
    const auto act = o::fusibleActivation(opts_.activation);
    Tensor y = o::fusedDepthwiseConv2d(
        x, kernel_.value(), opts_.useBias ? bias_.value() : Tensor(),
        act.value_or(FusedActivation::kNone), opts_.strideH, opts_.strideW,
        padModeFromName(opts_.padding));
    if (act) return y;
    return activation_(y);
  });
}

Shape DepthwiseConv2D::computeOutputShape(const Shape& in) const {
  const PadMode pad = padModeFromName(opts_.padding);
  const int outH = conv_util::outputSize(in[1], opts_.kernelH, opts_.strideH,
                                         1, pad);
  const int outW = conv_util::outputSize(in[2], opts_.kernelW, opts_.strideW,
                                         1, pad);
  return Shape{in[0], outH, outW, in[3] * opts_.depthMultiplier};
}

io::Json DepthwiseConv2D::getConfig() const {
  io::Json j = Layer::getConfig();
  j["kernel_size"] = io::Json(pair(opts_.kernelH, opts_.kernelW));
  j["strides"] = io::Json(pair(opts_.strideH, opts_.strideW));
  j["depth_multiplier"] = opts_.depthMultiplier;
  j["padding"] = opts_.padding;
  j["activation"] = opts_.activation;
  j["use_bias"] = opts_.useBias;
  return j;
}

// ------------------------------------------------------------------ pooling

MaxPooling2D::MaxPooling2D(Pool2DOptions opts)
    : Layer(opts.name), opts_(std::move(opts)) {}

Tensor MaxPooling2D::call(const Tensor& x, bool) {
  return o::maxPool(x, opts_.poolH, opts_.poolW, opts_.strideH, opts_.strideW,
                    padModeFromName(opts_.padding));
}

Shape MaxPooling2D::computeOutputShape(const Shape& in) const {
  const PadMode pad = padModeFromName(opts_.padding);
  return Shape{in[0],
               conv_util::outputSize(in[1], opts_.poolH, opts_.strideH, 1, pad),
               conv_util::outputSize(in[2], opts_.poolW, opts_.strideW, 1, pad),
               in[3]};
}

io::Json MaxPooling2D::getConfig() const {
  io::Json j = Layer::getConfig();
  j["pool_size"] = io::Json(pair(opts_.poolH, opts_.poolW));
  j["strides"] = io::Json(pair(opts_.strideH, opts_.strideW));
  j["padding"] = opts_.padding;
  return j;
}

AveragePooling2D::AveragePooling2D(Pool2DOptions opts)
    : Layer(opts.name), opts_(std::move(opts)) {}

Tensor AveragePooling2D::call(const Tensor& x, bool) {
  return o::avgPool(x, opts_.poolH, opts_.poolW, opts_.strideH, opts_.strideW,
                    padModeFromName(opts_.padding));
}

Shape AveragePooling2D::computeOutputShape(const Shape& in) const {
  const PadMode pad = padModeFromName(opts_.padding);
  return Shape{in[0],
               conv_util::outputSize(in[1], opts_.poolH, opts_.strideH, 1, pad),
               conv_util::outputSize(in[2], opts_.poolW, opts_.strideW, 1, pad),
               in[3]};
}

io::Json AveragePooling2D::getConfig() const {
  io::Json j = Layer::getConfig();
  j["pool_size"] = io::Json(pair(opts_.poolH, opts_.poolW));
  j["strides"] = io::Json(pair(opts_.strideH, opts_.strideW));
  j["padding"] = opts_.padding;
  return j;
}

GlobalAveragePooling2D::GlobalAveragePooling2D(std::string name)
    : Layer(std::move(name)) {}

Tensor GlobalAveragePooling2D::call(const Tensor& x, bool) {
  TFJS_ARG_CHECK(x.rank() == 4, "GlobalAveragePooling2D expects NHWC input");
  return o::mean(x, std::array<int, 2>{1, 2});
}

Shape GlobalAveragePooling2D::computeOutputShape(const Shape& in) const {
  return Shape{in[0], in[3]};
}

// ------------------------------------------------------- BatchNormalization

BatchNormalization::BatchNormalization(BatchNormOptions opts)
    : Layer(opts.name), opts_(std::move(opts)) {}

void BatchNormalization::build(const Shape& inputShape) {
  const int channels = inputShape[inputShape.rank() - 1];
  const Shape s{channels};
  gamma_ = addWeight("gamma", s, *onesInitializer(), channels, channels,
                     opts_.scale);
  beta_ = addWeight("beta", s, *zerosInitializer(), channels, channels,
                    opts_.center);
  movingMean_ = addWeight("moving_mean", s, *zerosInitializer(), channels,
                          channels, /*trainable=*/false);
  movingVar_ = addWeight("moving_variance", s, *onesInitializer(), channels,
                         channels, /*trainable=*/false);
  built_ = true;
}

Tensor BatchNormalization::call(const Tensor& x, bool training) {
  if (!training) {
    return o::batchNorm(x, movingMean_.value(), movingVar_.value(),
                        beta_.value(), gamma_.value(), opts_.epsilon);
  }
  // Training: normalize with batch statistics; update moving averages as a
  // side effect (outside the gradient tape — they are not differentiated).
  // Intermediates are NOT disposed here: when a tape is active they feed
  // backward; otherwise the caller's tidy scope collects them.
  std::vector<int> reduceAxes;
  for (int d = 0; d < x.rank() - 1; ++d) reduceAxes.push_back(d);
  Tensor batchMean = o::mean(x, reduceAxes);
  Tensor centered = o::sub(x, batchMean);
  Tensor batchVar = o::mean(o::square(centered), reduceAxes);

  {
    // Moving-average update: m = momentum*m + (1-momentum)*batch.
    ops::internal::TapePause pause;
    Tensor newMean = Engine::get().tidy([&] {
      return o::add(o::mulScalar(movingMean_.value(), opts_.momentum),
                    o::mulScalar(batchMean, 1 - opts_.momentum));
    });
    Tensor newVar = Engine::get().tidy([&] {
      return o::add(o::mulScalar(movingVar_.value(), opts_.momentum),
                    o::mulScalar(batchVar, 1 - opts_.momentum));
    });
    movingMean_.assign(newMean);
    movingVar_.assign(newVar);
  }

  return o::batchNorm(x, batchMean, batchVar, beta_.value(), gamma_.value(),
                      opts_.epsilon);
}

Shape BatchNormalization::computeOutputShape(const Shape& in) const {
  return in;
}

io::Json BatchNormalization::getConfig() const {
  io::Json j = Layer::getConfig();
  j["momentum"] = static_cast<double>(opts_.momentum);
  j["epsilon"] = static_cast<double>(opts_.epsilon);
  return j;
}

}  // namespace tfjs::layers
