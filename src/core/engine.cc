#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_set>

#include "core/buffer_pool.h"
#include "core/metrics.h"
#include "core/thread_pool.h"
#include "core/trace.h"

namespace tfjs {

thread_local std::vector<std::vector<std::shared_ptr<internal::TensorInfo>>>
    Engine::scopes_;

thread_local OpObserver* Engine::opObserver_ = nullptr;

void Engine::setOpObserver(OpObserver* o) { opObserver_ = o; }
OpObserver* Engine::opObserver() const { return opObserver_; }

Engine& Engine::get() {
  // Leaked singleton: backends (and their worker threads) live for the whole
  // process so tensors in static storage never dangle. Engine creation is
  // the natural process-init point, so TFJS_TRACE / TFJS_TRACE_CAPACITY are
  // honoured from here.
  static Engine* engine = [] {
    trace::initFromEnv();
    return new Engine();
  }();
  return *engine;
}

// ------------------------------------------------------------- backends

void Engine::registerBackend(const std::string& name, BackendFactory factory,
                             int priority) {
  auto& slot = backends_[name];
  slot.factory = std::move(factory);
  slot.priority = priority;
}

void Engine::setBackend(const std::string& name) {
  auto it = backends_.find(name);
  TFJS_ARG_CHECK(it != backends_.end(), "Unknown backend '" << name << "'");
  if (!it->second.instance) it->second.instance = it->second.factory();
  activeBackend_ = name;
}

Backend& Engine::backend() {
  if (activeBackend_.empty()) {
    // Elect the highest-priority registered backend (paper: webgl, then
    // node/native, then plain cpu fallback).
    TFJS_ARG_CHECK(!backends_.empty(), "No backends registered");
    const std::string* best = nullptr;
    int bestPriority = -1;
    for (const auto& [name, reg] : backends_) {
      if (reg.priority > bestPriority) {
        bestPriority = reg.priority;
        best = &name;
      }
    }
    setBackend(*best);
  }
  return *backends_.at(activeBackend_).instance;
}

const std::string& Engine::backendName() {
  backend();  // force election
  return activeBackend_;
}

std::vector<std::string> Engine::registeredBackends() const {
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& [name, reg] : backends_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void Engine::removeBackendInstance(const std::string& name) {
  auto it = backends_.find(name);
  if (it == backends_.end()) return;
  it->second.instance.reset();
  if (activeBackend_ == name) activeBackend_.clear();
}

// ------------------------------------------------- creation & tracking

void Engine::trackTensor(const std::shared_ptr<internal::TensorInfo>& info) {
  {
    std::lock_guard<std::mutex> lock(memMu_);
    ++memory_.numTensors;
  }
  // scopes_ is thread-local: the tensor joins the creating thread's
  // innermost tidy scope (if any) without synchronization.
  if (!scopes_.empty()) scopes_.back().push_back(info);
}

Tensor Engine::makeTensorFromHost(std::span<const float> values,
                                  const Shape& shape, DType dtype) {
  TFJS_ARG_CHECK(values.size() == shape.size(),
                 "Data length " << values.size() << " does not match shape "
                                << shape.toString());
  Backend& b = backend();
  const DataId id = b.write(values, shape);
  return makeTensorFromDataId(id, shape, dtype, &b);
}

Tensor Engine::makeTensorFromDataId(DataId id, const Shape& shape, DType dtype,
                                    Backend* owner) {
  if (owner == nullptr) owner = &backend();
  auto container = std::make_shared<internal::DataContainer>();
  container->backend = owner;
  container->dataId = id;
  container->sizeElems = shape.size();
  container->bytes = shape.size() * dtypeBytes(dtype);
  container->refCount = 1;

  {
    std::lock_guard<std::mutex> lock(memMu_);
    ++memory_.numDataBuffers;
    memory_.numBytes += container->bytes;
    peakBytes_ = std::max(peakBytes_, memory_.numBytes);
  }

  auto info = std::make_shared<internal::TensorInfo>();
  info->id = nextTensorId();
  info->shape = shape;
  info->dtype = dtype;
  info->container = std::move(container);
  trackTensor(info);
  return Tensor(info);
}

Tensor Engine::makeAlias(const Tensor& t, const Shape& shape, DType dtype) {
  const auto& src = t.infoPtr();
  TFJS_CHECK(src && !src->disposed);
  auto info = std::make_shared<internal::TensorInfo>();
  info->id = nextTensorId();
  info->shape = shape;
  info->dtype = dtype;
  // Quantization metadata follows int8 aliases (clone, reshape) as long as
  // the channel axis survives: per-tensor params always do; per-channel
  // params require the trailing dimension (the quantized axis of weight
  // tensors) to be unchanged — e.g. the ops layer's [k,n] -> [1,k,n]
  // normalization.
  if (dtype == DType::i8 && src->quant != nullptr) {
    const bool lastDimKept =
        shape.rank() > 0 && src->shape.rank() > 0 &&
        shape[shape.rank() - 1] == src->shape[src->shape.rank() - 1];
    if (!src->quant->perChannel() || lastDimKept) info->quant = src->quant;
  }
  info->container = src->container;
  {
    std::lock_guard<std::mutex> lock(memMu_);
    ++info->container->refCount;
  }
  trackTensor(info);
  Tensor alias(info);
  // Aliases (clone/reshape/widening cast) are differentiable identities:
  // record them centrally so gradients flow through Tensor::clone() and
  // Tensor::reshape() without each op layer re-recording.
  if (tape_ != nullptr) {
    const Tensor source(src);
    if (tape_->watched(std::span<const Tensor>(&source, 1))) {
      const Shape srcShape = src->shape;
      tape_->record("alias", std::span<const Tensor>(&source, 1), alias,
                    [srcShape](const Tensor& dy) {
                      return std::vector<Tensor>{dy.reshape(srcShape)};
                    });
    }
  }
  // Graph capture tracks aliases so value numbering follows reshape/clone
  // chains (the recorder ignores aliases made inside a composite op).
  if (opObserver_ != nullptr) opObserver_->onAlias(t, alias);
  return alias;
}

void Engine::disposeTensor(const internal::TensorInfo& constInfo) {
  auto& info = const_cast<internal::TensorInfo&>(constInfo);
  bool releaseData = false;
  auto& c = *info.container;
  {
    std::lock_guard<std::mutex> lock(memMu_);
    if (info.disposed) return;
    // A tensor referenced by the active gradient tape must stay alive until
    // backward has consumed it; the disposal request is deferred — the grad
    // API clears the flag and its scope collects the tensor afterwards.
    if (info.taped && tape_ != nullptr) return;
    info.disposed = true;
    TFJS_CHECK(memory_.numTensors > 0);
    --memory_.numTensors;

    TFJS_CHECK(c.refCount > 0);
    if (--c.refCount == 0 && !c.released) {
      c.released = true;
      releaseData = true;
      TFJS_CHECK(memory_.numDataBuffers > 0);
      --memory_.numDataBuffers;
      TFJS_CHECK(memory_.numBytes >= c.bytes);
      memory_.numBytes -= c.bytes;
    }
  }
  // The backend call happens outside the accounting lock: disposeData takes
  // the backend storage mutex and may cascade into the buffer pool, and
  // exactly one thread can reach here per container (released flips once).
  if (releaseData) c.backend->disposeData(c.dataId);
}

MemoryInfo Engine::memory() const {
  MemoryInfo m;
  {
    std::lock_guard<std::mutex> lock(memMu_);
    m = memory_;
  }
  m.pooledBytes = core::BufferPool::get().pooledBytes();
  return m;
}

bool Engine::canReuseInput(const Tensor& t) {
  if (!t.defined() || t.isDisposed()) return false;
  const auto& info = *t.infoPtr();
  if (info.kept || info.taped) return false;
  const auto& c = *info.container;
  {
    std::lock_guard<std::mutex> lock(memMu_);
    if (c.refCount != 1 || c.released) return false;
  }
  // The tape saves watched tensors for backward — overwriting one would
  // corrupt the gradient computation.
  if (tape_ != nullptr &&
      tape_->watched(std::span<const Tensor>(&t, 1))) {
    return false;
  }
  return true;
}

Tensor Engine::reuseInputAsOutput(const Tensor& t, const Shape& shape,
                                  DType dtype) {
  static metrics::Counter& inplaceReuses =
      metrics::Registry::get().counter("engine.inplace_reuses");
  const auto& src = t.infoPtr();
  TFJS_CHECK(src && !src->disposed && src->container->refCount == 1);
  TFJS_CHECK(shape.size() * dtypeBytes(dtype) == src->container->bytes);
  auto info = std::make_shared<internal::TensorInfo>();
  info->id = nextTensorId();
  info->shape = shape;
  info->dtype = dtype;
  info->container = src->container;
  {
    std::lock_guard<std::mutex> lock(memMu_);
    ++info->container->refCount;
  }
  trackTensor(info);
  disposeTensor(*src);  // refCount 2 -> 1: container and its bytes survive
  inplaceReuses.inc();
  return Tensor(info);
}

TensorSpec Engine::prepareInput(const Tensor& t) {
  TFJS_ARG_CHECK(t.defined(), "Op received a null Tensor");
  if (t.isDisposed()) {
    throw DisposedError("Op received a disposed tensor");
  }
  auto& info = *t.infoPtr();
  Backend& active = backend();
  auto& c = *info.container;
  if (c.backend != &active) {
    // Cross-backend migration: download from the owning backend and upload
    // to the active one. All aliases of the container migrate together.
    const std::vector<float> host = c.backend->read(c.dataId);
    c.backend->disposeData(c.dataId);
    c.dataId = active.write(host, info.shape);
    c.backend = &active;
  }
  return TensorSpec{c.dataId, info.shape, info.dtype,
                    info.dtype == DType::i8 ? info.quant.get() : nullptr};
}

// ----------------------------------------------------------------- scopes

void Engine::startScope() { scopes_.emplace_back(); }

void Engine::endScope(std::span<const Tensor> escaping) {
  TFJS_CHECK_MSG(!scopes_.empty(), "endScope without startScope");
  auto scope = std::move(scopes_.back());
  scopes_.pop_back();

  std::unordered_set<std::int64_t> escapeIds;
  for (const auto& t : escaping) {
    if (t.defined() && !t.isDisposed()) escapeIds.insert(t.infoPtr()->id);
  }

  for (auto& info : scope) {
    if (info->disposed) continue;
    if (info->kept || info->taped || escapeIds.count(info->id)) {
      // Survivors transfer to the parent scope (if any). Taped tensors are
      // needed by pending gradient computation; the grad API clears the
      // flag and re-collects them after backward.
      if (!scopes_.empty() && !info->kept) scopes_.back().push_back(info);
      continue;
    }
    disposeTensor(*info);
  }
}

namespace {
/// Ends the engine scope on scope exit even when f throws.
class ScopeGuard {
 public:
  explicit ScopeGuard(Engine& e) : engine_(e) { engine_.startScope(); }
  ~ScopeGuard() {
    if (!done_) engine_.endScope({});
  }
  void finish(std::span<const Tensor> escaping) {
    engine_.endScope(escaping);
    done_ = true;
  }

 private:
  Engine& engine_;
  bool done_ = false;
};
}  // namespace

Tensor Engine::tidy(const std::function<Tensor()>& f) {
  ScopeGuard guard(*this);
  Tensor result = f();
  if (result.defined() && !result.isDisposed()) {
    guard.finish(std::span<const Tensor>(&result, 1));
  } else {
    guard.finish({});
  }
  return result;
}

std::vector<Tensor> Engine::tidy(
    const std::function<std::vector<Tensor>()>& f) {
  ScopeGuard guard(*this);
  std::vector<Tensor> results = f();
  guard.finish(results);
  return results;
}

void Engine::tidyVoid(const std::function<void()>& f) {
  ScopeGuard guard(*this);
  f();
  guard.finish({});
}

// --------------------------------------------- debugging and profiling

void Engine::notifyKernel(const std::string& opName, const Tensor& output,
                          double startUs) {
  static metrics::Counter& kernelsDispatched =
      metrics::Registry::get().counter("engine.kernels_dispatched");
  kernelsDispatched.inc();
  // Consume the thread-pool parallelism watermark per kernel whether or not
  // anyone is listening, so the first traced kernel never reports a stale
  // high-water mark from earlier untraced work.
  const int threads = core::ThreadPool::get().takeLastParallelism();
  if (trace::active()) {
    trace::Event e;
    e.type = trace::Event::Type::kSpan;
    e.category = "op";
    e.name = opName;
    const double now = trace::nowUs();
    e.tsUs = startUs >= 0 ? startUs : now;
    e.durUs = startUs >= 0 ? now - startUs : 0;
    e.tid = trace::currentThreadId();
    e.shape = output.shape();
    e.bytes = output.size() * dtypeBytes(output.dtype());
    e.threads = threads;
    e.backend = activeBackend_;
    trace::Recorder::get().record(std::move(e));
  }
  if (debug_) {
    // Debug mode (section 3.8): download every kernel output and throw at
    // the first op that introduces a NaN or Inf.
    const auto vals = output.dataSync();
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (std::isnan(vals[i]) || std::isinf(vals[i])) {
        throw NumericError("Numeric instability: op '" + opName +
                           "' produced " +
                           (std::isnan(vals[i]) ? "NaN" : "Inf") +
                           " at flat index " + std::to_string(i) +
                           " (output shape " + output.shape().toString() +
                           ")");
      }
    }
  }
}

TimingInfo Engine::time(const std::function<void()>& f) {
  Backend& b = backend();
  b.flush();
  const double kernelMsBefore = b.kernelTimeMs();
  // The Scope both provides the wall clock and lands a "time" span in the
  // trace stream, so timed regions are visible in TFJS_TRACE exports.
  instrumentation::Scope scope("time");
  f();
  b.flush();
  TimingInfo t;
  t.wallMs = scope.elapsedMs();
  t.kernelMs = b.kernelTimeMs() - kernelMsBefore;
  return t;
}

ProfileInfo Engine::profile(const std::function<void()>& f) {
  ProfileInfo info;
  std::size_t tensorsBefore, bytesBefore;
  {
    std::lock_guard<std::mutex> lock(memMu_);
    tensorsBefore = memory_.numTensors;
    bytesBefore = memory_.numBytes;
    peakBytes_ = memory_.numBytes;
  }

  {
    // The Scope subscribes to the trace stream; kernel records are the "op"
    // events notifyKernel emitted while f ran. RAII unsubscribes even when
    // f throws (the former activeProfile_ pointer dance).
    instrumentation::Scope scope("profile");
    f();
    info.wallMs = scope.elapsedMs();
    for (const trace::Event& e : scope.events()) {
      if (e.type != trace::Event::Type::kSpan ||
          std::string_view(e.category) != "op") {
        continue;
      }
      ProfileInfo::KernelRecord r;
      r.name = e.name;
      r.outputShape = e.shape;
      r.outputBytes = static_cast<std::size_t>(e.bytes);
      r.threads = e.threads > 0 ? e.threads : 1;
      r.startMs = (e.tsUs - scope.beginUs()) / 1000.0;
      r.wallMs = e.durUs / 1000.0;
      r.backend = e.backend;
      info.kernels.push_back(std::move(r));
    }
  }

  {
    std::lock_guard<std::mutex> lock(memMu_);
    info.newTensors = memory_.numTensors > tensorsBefore
                          ? memory_.numTensors - tensorsBefore
                          : 0;
    info.newBytes =
        memory_.numBytes > bytesBefore ? memory_.numBytes - bytesBefore : 0;
    info.peakBytes = peakBytes_;
  }
  return info;
}

std::string ProfileInfo::toString() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "profile: %.3f ms wall, %zu new tensors, %zu new bytes, "
                "%zu peak bytes, %zu kernels\n",
                wallMs, newTensors, newBytes, peakBytes, kernels.size());
  out += buf;
  for (const auto& k : kernels) {
    std::snprintf(buf, sizeof(buf),
                  "  %-16s %-14s %8zu B  x%d  @%8.3f ms  %7.3f ms  %s\n",
                  k.name.c_str(), k.outputShape.toString().c_str(),
                  k.outputBytes, k.threads, k.startMs, k.wallMs,
                  k.backend.c_str());
    out += buf;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const ProfileInfo& p) {
  return os << p.toString();
}

void Engine::setNumThreads(int n) { core::ThreadPool::get().setNumThreads(n); }

int Engine::numThreads() const { return core::ThreadPool::get().numThreads(); }

// -------------------------------------------------------------- variables

void Engine::registerVariable(const std::string& name, const Variable& v) {
  for (auto& [n, var] : variables_) {
    if (n == name) {
      var = v;
      return;
    }
  }
  variables_.emplace_back(name, v);
}

std::vector<Variable> Engine::trainableVariables() const {
  std::vector<Variable> out;
  for (const auto& [name, v] : variables_) {
    if (v.defined() && v.trainable()) out.push_back(v);
  }
  return out;
}

}  // namespace tfjs
