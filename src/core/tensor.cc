#include "core/tensor.h"

#include <cmath>
#include <iostream>
#include <sstream>

#include "core/engine.h"

namespace tfjs {

internal::TensorInfo& Tensor::info() const {
  TFJS_ARG_CHECK(info_ != nullptr, "Use of a null (default-constructed) Tensor");
  if (info_->disposed) {
    throw DisposedError("Tensor " + std::to_string(info_->id) +
                        " is disposed and can no longer be used");
  }
  return *info_;
}

DataId Tensor::dataId() const { return info().container->dataId; }

std::vector<float> Tensor::dataSync() const {
  auto& i = info();
  return i.container->backend->read(i.container->dataId);
}

std::future<std::vector<float>> Tensor::data() const {
  auto& i = info();
  return i.container->backend->readAsync(i.container->dataId);
}

float Tensor::scalarSync() const {
  TFJS_ARG_CHECK(size() == 1, "scalarSync() requires a single-element tensor, "
                                  << "got shape " << shape().toString());
  return dataSync()[0];
}

Tensor Tensor::reshape(const Shape& newShape) const {
  TFJS_ARG_CHECK(newShape.size() == size(),
                 "reshape: cannot view " << shape().toString() << " ("
                     << size() << " elements) as " << newShape.toString()
                     << " (" << newShape.size() << " elements)");
  return Engine::get().makeAlias(*this, newShape, dtype());
}

Tensor Tensor::clone() const {
  return Engine::get().makeAlias(*this, shape(), dtype());
}

Tensor Tensor::flatten() const {
  return reshape(Shape{static_cast<int>(size())});
}

Tensor Tensor::cast(DType target) const {
  auto& i = info();
  if (target == i.dtype) return clone();
  auto& engine = Engine::get();
  const bool widening =
      (i.dtype == DType::b8) ||
      (i.dtype == DType::i32 && target == DType::f32) ||
      (i.dtype == DType::i8 &&
       (target == DType::i32 || target == DType::f32));
  if (widening) {
    return engine.makeAlias(*this, i.shape, target);
  }
  // Narrowing materializes new data on the tensor's own backend: a
  // one-instruction elementwise program (-> i32: trunc; -> bool: 1.0 where
  // x != 0).
  Backend* backend = i.container->backend;
  const TensorSpec spec{i.container->dataId, i.shape, i.dtype};
  const UnaryOp op =
      target == DType::i32 ? UnaryOp::kTrunc : UnaryOp::kNotZero;
  const RegionInstr instr{.kind = RegionInstr::Kind::kUnary,
                          .op = static_cast<int>(op),
                          .a = -1};
  const DataId out = backend->fusedRegion({&instr, 1}, {&spec, 1}, i.shape, 0);
  return engine.makeTensorFromDataId(out, i.shape, target, backend);
}

void Tensor::dispose() const {
  if (!info_ || info_->disposed) return;
  Engine::get().disposeTensor(*info_);
}

const Tensor& Tensor::keep() const {
  info().kept = true;
  return *this;
}

std::string Tensor::toString(bool verbose) const {
  std::ostringstream os;
  os << "Tensor(shape=" << shape().toString() << ", dtype="
     << dtypeName(dtype()) << ")";
  const auto vals = dataSync();
  const std::size_t limit = verbose ? vals.size() : std::min<std::size_t>(
                                                        vals.size(), 32);
  os << " [";
  for (std::size_t i = 0; i < limit; ++i) {
    if (i) os << ", ";
    os << vals[i];
  }
  if (limit < vals.size()) os << ", ...";
  os << "]";
  return os.str();
}

void Tensor::print(bool verbose) const {
  std::cout << toString(verbose) << "\n";
}

// ---------------------------------------------------------------- Variable

Variable::Variable(const Tensor& initial, std::string name, bool trainable) {
  TFJS_ARG_CHECK(initial.defined(), "Variable requires an initial value");
  static std::int64_t counter = 0;
  if (name.empty()) name = "variable_" + std::to_string(counter++);
  initial.keep();
  state_ = std::make_shared<State>(State{initial, std::move(name), trainable});
  Engine::get().registerVariable(state_->name, *this);
}

const Tensor& Variable::value() const {
  TFJS_ARG_CHECK(state_ != nullptr, "Use of an undefined Variable");
  TFJS_ARG_CHECK(state_->current.defined(), "Variable was disposed");
  return state_->current;
}

const std::string& Variable::name() const {
  TFJS_ARG_CHECK(state_ != nullptr, "Use of an undefined Variable");
  return state_->name;
}

bool Variable::trainable() const {
  TFJS_ARG_CHECK(state_ != nullptr, "Use of an undefined Variable");
  return state_->trainable;
}

void Variable::setTrainable(bool t) {
  TFJS_ARG_CHECK(state_ != nullptr, "Use of an undefined Variable");
  state_->trainable = t;
}

void Variable::assign(const Tensor& next) const {
  TFJS_ARG_CHECK(state_ != nullptr, "Use of an undefined Variable");
  const Tensor& cur = value();
  TFJS_ARG_CHECK(next.shape() == cur.shape(),
                 "Variable::assign shape mismatch: variable is "
                     << cur.shape().toString() << ", new value is "
                     << next.shape().toString());
  const bool quantSwap =
      (next.dtype() == DType::i8 && cur.dtype() == DType::f32) ||
      (next.dtype() == DType::f32 && cur.dtype() == DType::i8);
  TFJS_ARG_CHECK(next.dtype() == cur.dtype() || quantSwap,
                 "Variable::assign dtype mismatch");
  next.keep();
  cur.dispose();
  state_->current = next;
}

void Variable::dispose() const {
  if (!state_) return;
  if (state_->current.defined() && !state_->current.isDisposed()) {
    state_->current.dispose();
  }
  state_->current = Tensor();
}

}  // namespace tfjs
