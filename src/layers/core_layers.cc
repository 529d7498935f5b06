#include "layers/core_layers.h"

#include "core/engine.h"
#include "ops/ops.h"

namespace tfjs::layers {

namespace o = tfjs::ops;

// -------------------------------------------------------------------- Dense

Dense::Dense(DenseOptions opts)
    : Layer(opts.name), opts_(std::move(opts)),
      activation_(makeActivation(opts_.activation)) {
  TFJS_ARG_CHECK(opts_.units > 0, "Dense requires units > 0");
}

void Dense::build(const Shape& inputShape) {
  TFJS_ARG_CHECK(inputShape.rank() >= 2,
                 "Dense expects at least rank-2 input (batch, features), got "
                     << inputShape.toString());
  const int inFeatures = inputShape[inputShape.rank() - 1];
  kernel_ = addWeight("kernel", Shape{inFeatures, opts_.units},
                      *makeInitializer(opts_.kernelInitializer), inFeatures,
                      opts_.units);
  if (opts_.useBias) {
    bias_ = addWeight("bias", Shape{opts_.units},
                      *makeInitializer(opts_.biasInitializer), inFeatures,
                      opts_.units);
  }
  built_ = true;
}

Tensor Dense::call(const Tensor& x, bool) {
  return Engine::get().tidy([&] {
    // matMul -> add -> activation is the fused kernel's epilogue (bit-
    // identical to that composition on every backend); an activation the
    // epilogue does not cover runs after it.
    const auto act = o::fusibleActivation(opts_.activation);
    Tensor y = o::fusedMatMul(x, kernel_.value(),
                              opts_.useBias ? bias_.value() : Tensor(),
                              act.value_or(FusedActivation::kNone));
    if (act) return y;
    return activation_(y);
  });
}

Shape Dense::computeOutputShape(const Shape& inputShape) const {
  std::vector<int> dims = inputShape.dims();
  dims.back() = opts_.units;
  return Shape(dims);
}

io::Json Dense::getConfig() const {
  io::Json j = Layer::getConfig();
  j["units"] = opts_.units;
  j["activation"] = opts_.activation;
  j["use_bias"] = opts_.useBias;
  return j;
}

// ------------------------------------------------------------------ Flatten

Flatten::Flatten(std::string name) : Layer(std::move(name)) {}

Tensor Flatten::call(const Tensor& x, bool) {
  return x.reshape(computeOutputShape(x.shape()));
}

Shape Flatten::computeOutputShape(const Shape& inputShape) const {
  int features = 1;
  for (int d = 1; d < inputShape.rank(); ++d) features *= inputShape[d];
  return Shape{inputShape[0], features};
}

// ------------------------------------------------------------------ Reshape

Reshape::Reshape(Shape targetShape, std::string name)
    : Layer(std::move(name)), target_(std::move(targetShape)) {}

Tensor Reshape::call(const Tensor& x, bool) {
  return x.reshape(computeOutputShape(x.shape()));
}

Shape Reshape::computeOutputShape(const Shape& inputShape) const {
  std::vector<int> dims{inputShape[0]};
  for (int d : target_.dims()) dims.push_back(d);
  return Shape(dims);
}

io::Json Reshape::getConfig() const {
  io::Json j = Layer::getConfig();
  io::JsonArray dims;
  for (int d : target_.dims()) dims.emplace_back(d);
  j["target_shape"] = io::Json(std::move(dims));
  return j;
}

// --------------------------------------------------------------- Activation

Activation::Activation(std::string activation, std::string name)
    : Layer(std::move(name)), activationName_(std::move(activation)),
      activation_(makeActivation(activationName_)) {}

Tensor Activation::call(const Tensor& x, bool) { return activation_(x); }

Shape Activation::computeOutputShape(const Shape& inputShape) const {
  return inputShape;
}

io::Json Activation::getConfig() const {
  io::Json j = Layer::getConfig();
  j["activation"] = activationName_;
  return j;
}

// ------------------------------------------------------------------ Dropout

Dropout::Dropout(float rate, std::string name)
    : Layer(std::move(name)), rate_(rate) {
  TFJS_ARG_CHECK(rate >= 0 && rate < 1, "Dropout rate must be in [0, 1)");
}

Tensor Dropout::call(const Tensor& x, bool training) {
  if (!training || rate_ == 0) return x.clone();
  return o::dropout(x, rate_, /*seed=*/0x5eed + step_++);
}

Shape Dropout::computeOutputShape(const Shape& inputShape) const {
  return inputShape;
}

io::Json Dropout::getConfig() const {
  io::Json j = Layer::getConfig();
  j["rate"] = static_cast<double>(rate_);
  return j;
}

}  // namespace tfjs::layers
