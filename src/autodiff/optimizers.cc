#include "autodiff/optimizers.h"

#include <cmath>
#include <initializer_list>

#include "ops/ops.h"

namespace tfjs::autodiff {

namespace o = tfjs::ops;

Tensor Optimizer::minimize(const std::function<Tensor()>& f, bool returnCost,
                           std::span<const Variable> varList) {
  VariableGradients vg = variableGrads(f, varList);
  applyGradients(vg.grads);
  for (auto& [v, g] : vg.grads) g.dispose();
  if (returnCost) {
    vg.value.keep();
    return vg.value;
  }
  vg.value.dispose();
  return Tensor();
}

Tensor& Optimizer::slot(const Variable& v, const std::string& slotName) {
  return slots_[v.name() + "/" + slotName];
}

void Optimizer::setSlot(const Variable& v, const std::string& slotName,
                        const Tensor& t) {
  auto& s = slots_[v.name() + "/" + slotName];
  if (s.defined() && !s.isDisposed()) s.dispose();
  t.keep();
  s = t;
}

bool Optimizer::hasSlot(const Variable& v, const std::string& slotName) const {
  auto it = slots_.find(v.name() + "/" + slotName);
  return it != slots_.end() && it->second.defined() &&
         !it->second.isDisposed();
}

// Every update below computes each state tensor (slot or variable) as one
// elementwise region, one kernel per state tensor. A region runs the same
// scalar steps as the equivalent op-by-op chain, in its order, so the
// values are bitwise that chain's on every backend (see
// Backend::fusedRegion; OptimizerTest.UpdatesMatchOpChainBitwise).
namespace {

using I = RegionInstr;
constexpr int in0 = I::input(0), in1 = I::input(1), in2 = I::input(2),
              in3 = I::input(3), in4 = I::input(4);

Tensor region(std::vector<RegionInstr> instrs,
              std::initializer_list<Tensor> inputs) {
  const RegionProgram program{static_cast<int>(inputs.size()),
                              std::move(instrs)};
  return o::fusedRegion(program,
                        std::span<const Tensor>(inputs.begin(), inputs.size()));
}

/// v - g * lr, on inputs {v, g}.
std::vector<RegionInstr> descent(float lr) {
  return {I::unary(UnaryOp::kMulScalar, in1, lr),
          I::binary(BinaryOp::kSub, in0, 0)};
}

/// a * decay + square(g) * (1 - decay), on inputs {a, g}.
std::vector<RegionInstr> decayedSquare(float decay) {
  return {I::unary(UnaryOp::kMulScalar, in0, decay),
          I::unary(UnaryOp::kSquare, in1),
          I::unary(UnaryOp::kMulScalar, 1, 1.0f - decay),
          I::binary(BinaryOp::kAdd, 0, 2)};
}

}  // namespace

void SGDOptimizer::applyGradients(
    std::span<const std::pair<Variable, Tensor>> grads) {
  for (const auto& [v, g] : grads) {
    v.assign(region(descent(lr_), {v.value(), g}));
  }
}

void MomentumOptimizer::applyGradients(
    std::span<const std::pair<Variable, Tensor>> grads) {
  for (const auto& [v, g] : grads) {
    if (!hasSlot(v, "m")) setSlot(v, "m", o::zerosLike(v.value()));
    // m * momentum + g
    Tensor newM = region({I::unary(UnaryOp::kMulScalar, in0, momentum_),
                          I::binary(BinaryOp::kAdd, 0, in1)},
                         {slot(v, "m"), g});
    Tensor next = region(descent(lr_), {v.value(), newM});
    setSlot(v, "m", newM);
    v.assign(next);
  }
}

void RMSPropOptimizer::applyGradients(
    std::span<const std::pair<Variable, Tensor>> grads) {
  for (const auto& [v, g] : grads) {
    if (!hasSlot(v, "ms")) setSlot(v, "ms", o::zerosLike(v.value()));
    Tensor newMs = region(decayedSquare(decay_), {slot(v, "ms"), g});
    // v - g * lr / sqrt(ms + eps)
    Tensor next = region({I::unary(UnaryOp::kAddScalar, in2, eps_),
                          I::unary(UnaryOp::kSqrt, 0),
                          I::unary(UnaryOp::kMulScalar, in1, lr_),
                          I::binary(BinaryOp::kDiv, 2, 1),
                          I::binary(BinaryOp::kSub, in0, 3)},
                         {v.value(), g, newMs});
    setSlot(v, "ms", newMs);
    v.assign(next);
  }
}

void AdamOptimizer::applyGradients(
    std::span<const std::pair<Variable, Tensor>> grads) {
  ++step_;
  const float correction1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float correction2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  // The bias corrections divide, so they are inputs (x / c is not x * 1/c).
  Tensor c1 = o::scalar(correction1), c2 = o::scalar(correction2);
  for (const auto& [v, g] : grads) {
    if (!hasSlot(v, "m")) setSlot(v, "m", o::zerosLike(v.value()));
    if (!hasSlot(v, "v")) setSlot(v, "v", o::zerosLike(v.value()));
    // m * beta1 + g * (1 - beta1)
    Tensor newM = region({I::unary(UnaryOp::kMulScalar, in0, beta1_),
                          I::unary(UnaryOp::kMulScalar, in1, 1.0f - beta1_),
                          I::binary(BinaryOp::kAdd, 0, 1)},
                         {slot(v, "m"), g});
    Tensor newV = region(decayedSquare(beta2_), {slot(v, "v"), g});
    // v - (m / c1) * lr / (sqrt(v / c2) + eps)
    Tensor next = region({I::binary(BinaryOp::kDiv, in1, in3),
                          I::binary(BinaryOp::kDiv, in2, in4),
                          I::unary(UnaryOp::kMulScalar, 0, lr_),
                          I::unary(UnaryOp::kSqrt, 1),
                          I::unary(UnaryOp::kAddScalar, 3, eps_),
                          I::binary(BinaryOp::kDiv, 2, 4),
                          I::binary(BinaryOp::kSub, in0, 5)},
                         {v.value(), newM, newV, c1, c2});
    setSlot(v, "m", newM);
    setSlot(v, "v", newV);
    v.assign(next);
  }
  c1.dispose();
  c2.dispose();
}

void AdagradOptimizer::applyGradients(
    std::span<const std::pair<Variable, Tensor>> grads) {
  for (const auto& [v, g] : grads) {
    if (!hasSlot(v, "acc")) {
      setSlot(v, "acc", o::fill(v.value().shape(), initial_));
    }
    // acc + square(g)
    Tensor newAcc = region({I::unary(UnaryOp::kSquare, in1),
                            I::binary(BinaryOp::kAdd, in0, 0)},
                           {slot(v, "acc"), g});
    // v - g * lr / (sqrt(acc) + 1e-7)
    Tensor next = region({I::unary(UnaryOp::kMulScalar, in1, lr_),
                          I::unary(UnaryOp::kSqrt, in2),
                          I::unary(UnaryOp::kAddScalar, 1, 1e-7f),
                          I::binary(BinaryOp::kDiv, 0, 2),
                          I::binary(BinaryOp::kSub, in0, 3)},
                         {v.value(), g, newAcc});
    setSlot(v, "acc", newAcc);
    v.assign(next);
  }
}

std::unique_ptr<Optimizer> makeOptimizer(const std::string& name,
                                         float learningRate) {
  if (name == "sgd") return std::make_unique<SGDOptimizer>(learningRate);
  if (name == "momentum") {
    return std::make_unique<MomentumOptimizer>(learningRate, 0.9f);
  }
  if (name == "rmsprop") return std::make_unique<RMSPropOptimizer>(learningRate);
  if (name == "adam") return std::make_unique<AdamOptimizer>(learningRate);
  if (name == "adagrad") return std::make_unique<AdagradOptimizer>(learningRate);
  throw InvalidArgumentError("Unknown optimizer: " + name);
}

}  // namespace tfjs::autodiff
