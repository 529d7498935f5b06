// Engine: the global runtime of tfjs-cpp (paper sections 3.3–3.8).
//
// Responsibilities, mirroring the upstream engine:
//  * backend registry & the active backend ("webgl-sim", "cpu", "native");
//  * tensor/data-container tracking for memory() accounting;
//  * tidy() scopes that dispose intermediate tensors (section 3.7);
//  * the gradient-tape hook used by the eager autodiff engine (section 3.5);
//  * debug mode (per-kernel NaN checks) and the profiler (section 3.8).
//
// Thread-safety contract (the serving layer relies on this):
//  * tensor creation, aliasing and disposal are safe from any thread —
//    memory accounting and container refcounts are guarded by one mutex,
//    and tidy() scope stacks are thread-local, so concurrent sessions can
//    create/dispose tensors without corrupting memory() or the pool;
//  * op dispatch (prepareInput, backend kernels, the tape) is NOT
//    synchronized: all kernel execution for a given backend must stay on
//    one thread (the serving scheduler confines it to its own thread).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/backend.h"
#include "core/tensor.h"

namespace tfjs {

/// Snapshot of live-memory accounting, as returned by tf.memory().
struct MemoryInfo {
  std::size_t numTensors = 0;
  std::size_t numDataBuffers = 0;
  std::size_t numBytes = 0;
  /// Bytes parked in the CPU BufferPool: backed by no live tensor, free for
  /// the next allocation. Reported separately so numBytes stays an exact
  /// live-tensor count.
  std::size_t pooledBytes = 0;
};

/// Result of profile(f) (paper section 3.8). Since the instrumentation
/// redesign this is a view over the trace stream: profile(f) runs f under an
/// instrumentation::Scope and projects the "op" span events it captured.
struct ProfileInfo {
  std::size_t newTensors = 0;
  std::size_t newBytes = 0;
  std::size_t peakBytes = 0;
  /// Wall time of the profiled function, milliseconds.
  double wallMs = 0;
  /// One record per kernel dispatched inside f, in order.
  struct KernelRecord {
    std::string name;
    Shape outputShape;
    std::size_t outputBytes = 0;
    /// Peak intra-op parallelism the kernel achieved on the shared thread
    /// pool (1 for serial kernels and for device backends, which do not use
    /// the CPU pool).
    int threads = 1;
    /// Span timing relative to the profile start, milliseconds. wallMs is
    /// host-side dispatch time (device backends may still be executing).
    double startMs = 0;
    double wallMs = 0;
    /// Backend that served the dispatch.
    std::string backend;
  };
  std::vector<KernelRecord> kernels;

  /// Multi-line human-readable report (memory summary + kernel table).
  std::string toString() const;
};

std::ostream& operator<<(std::ostream& os, const ProfileInfo& p);

/// Computes input gradients given the output gradient. Created by the ops
/// layer as a closure over the op's saved inputs.
using GradFunc = std::function<std::vector<Tensor>(const Tensor& dy)>;

/// Tape interface implemented by the autodiff module; the engine only knows
/// how to forward op records to it.
class TapeRecorder {
 public:
  virtual ~TapeRecorder() = default;
  virtual void record(const std::string& opName,
                      std::span<const Tensor> inputs, const Tensor& output,
                      GradFunc gradFunc) = 0;
  /// True if gradients flow through any of these tensors.
  virtual bool watched(std::span<const Tensor> inputs) const = 0;
};

/// Recording hook for graph capture (src/graph). The ops layer reports
/// every public op dispatch (onOp), the engine reports metadata-only
/// aliases (onAlias), and KernelScope reports kernels that fired without an
/// op-level recording (onUnrecordedKernel — the capture layer turns those
/// into loud errors instead of silently baking wrong constants).
///
/// `opId` is an ops::OpId cast to int — the core layer stays below the ops
/// vocabulary. The observer pointer is thread-local: capture on a serving
/// scheduler thread never observes ops dispatched by other threads.
class OpObserver {
 public:
  virtual ~OpObserver() = default;
  virtual void onOp(int opId, std::span<const Tensor> inputs,
                    const Tensor& output, std::span<const double> attrs,
                    const Shape* shapeAttr) = 0;
  virtual void onAlias(const Tensor& src, const Tensor& alias) = 0;
  virtual void onUnrecordedKernel(const char* name) = 0;
};

class Engine {
 public:
  /// The process-wide engine. Never destroyed (leaked singleton) so that
  /// tensors in static storage never outlive their backends.
  static Engine& get();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- backends ------------------------------------------------------
  using BackendFactory = std::function<std::unique_ptr<Backend>()>;
  /// Registers a backend under `name`. Higher priority wins the default
  /// election (the paper's automatic fallback order: webgl > native > cpu).
  void registerBackend(const std::string& name, BackendFactory factory,
                       int priority = 0);
  /// Switches the active backend, instantiating it on first use.
  void setBackend(const std::string& name);
  Backend& backend();
  const std::string& backendName();
  std::vector<std::string> registeredBackends() const;
  /// Destroys a live backend instance (its factory stays registered). All
  /// tensors on that backend must have been disposed.
  void removeBackendInstance(const std::string& name);

  // ---- tensor creation & tracking -------------------------------------
  /// Uploads host data to the active backend and returns a tracked tensor.
  Tensor makeTensorFromHost(std::span<const float> values, const Shape& shape,
                            DType dtype = DType::f32);
  /// Wraps a backend-produced buffer (kernel output) in a tracked tensor.
  Tensor makeTensorFromDataId(DataId id, const Shape& shape, DType dtype,
                              Backend* backend = nullptr);
  /// New tensor aliasing `t`'s container with different metadata (reshape,
  /// clone, metadata-only cast).
  Tensor makeAlias(const Tensor& t, const Shape& shape, DType dtype);

  void disposeTensor(const internal::TensorInfo& info);

  MemoryInfo memory() const;

  // ---- in-place reuse (buffer-recycling fast path) ---------------------
  /// True when a kernel may overwrite `t`'s storage: the handle is its
  /// container's only owner, is not kept (Variables keep their values), and
  /// no gradient tape will read it during backward. The ops layer only asks
  /// for tensors it received by rvalue, so no caller alias can observe the
  /// overwrite.
  bool canReuseInput(const Tensor& t);
  /// Re-wraps `t`'s storage as a fresh output tensor (new id and metadata,
  /// same container) and consumes `t`. Only valid after canReuseInput(t)
  /// returned true and the kernel has written the result into the buffer;
  /// shape/dtype must describe the same byte count.
  Tensor reuseInputAsOutput(const Tensor& t, const Shape& shape, DType dtype);

  /// Ensures `t`'s data lives on the active backend, migrating (download +
  /// upload) if it was created on another backend. An int8 tensor's spec
  /// points at its quantization parameters, which live as long as `t`.
  TensorSpec prepareInput(const Tensor& t);

  // ---- scopes (tidy) ---------------------------------------------------
  void startScope();
  /// Ends the innermost scope; tensors in `escaping` (plus kept tensors)
  /// survive and transfer to the parent scope.
  void endScope(std::span<const Tensor> escaping);

  /// Runs f inside a scope and disposes every intermediate tensor except the
  /// returned one (paper section 3.7).
  Tensor tidy(const std::function<Tensor()>& f);
  std::vector<Tensor> tidy(const std::function<std::vector<Tensor>()>& f);
  /// Scope for side-effecting blocks with no surviving tensors.
  void tidyVoid(const std::function<void()>& f);

  // ---- autodiff hook ---------------------------------------------------
  TapeRecorder* tape() { return tape_; }
  void setTape(TapeRecorder* t) { tape_ = t; }

  // ---- graph-capture hook (src/graph) ----------------------------------
  /// Installs/clears the current thread's capture observer. The ops layer
  /// notifies it on every depth-0 public-op dispatch; makeAlias notifies it
  /// on every alias creation. Defined out of line: accessing the
  /// thread_local through the TLS wrapper from other TUs trips a spurious
  /// UBSan null-pointer diagnostic under GCC; the defining TU is clean.
  void setOpObserver(OpObserver* o);
  OpObserver* opObserver() const;

  // ---- debugging & profiling (section 3.8) -----------------------------
  bool debugMode() const { return debug_; }
  void setDebugMode(bool on) { debug_ = on; }

  /// Called by the ops layer (via ops::internal::KernelScope) after each
  /// kernel dispatch. Emits an "op" trace event carrying kernel metadata
  /// when tracing is active — `startUs` is the trace timestamp taken before
  /// the backend call (pass a negative value for an untimed notification) —
  /// and, in debug mode, runs the NaN check. The profiler consumes these
  /// events through an instrumentation::Scope; there is no engine-side
  /// profile state anymore.
  void notifyKernel(const std::string& opName, const Tensor& output,
                    double startUs = -1);

  /// Both are thin views over the trace stream (instrumentation::Scope).
  TimingInfo time(const std::function<void()>& f);
  ProfileInfo profile(const std::function<void()>& f);

  // ---- intra-op threading (native backend) -----------------------------
  /// Target CPU parallelism for backend kernels (the shared thread pool).
  /// Defaults to TFJS_NUM_THREADS or hardware_concurrency; 1 gives the
  /// deterministic fully-serial path. Results are bit-identical at any
  /// setting (fixed chunk partitioning).
  void setNumThreads(int n);
  int numThreads() const;

  // ---- variables -------------------------------------------------------
  void registerVariable(const std::string& name, const Variable& v);
  std::vector<Variable> trainableVariables() const;

  std::int64_t nextTensorId() {
    return nextTensorId_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Engine() = default;
  void trackTensor(const std::shared_ptr<internal::TensorInfo>& info);

  struct RegisteredBackend {
    BackendFactory factory;
    int priority = 0;
    std::unique_ptr<Backend> instance;
  };

  std::unordered_map<std::string, RegisteredBackend> backends_;
  std::string activeBackend_;

  /// Guards memory_, peakBytes_ and every DataContainer's refCount /
  /// released flag — the state concurrent creates/disposes touch.
  mutable std::mutex memMu_;
  MemoryInfo memory_;
  std::size_t peakBytes_ = 0;

  /// tidy() scope stacks are per-thread: each thread's scopes collect only
  /// the tensors that thread created, so a scheduler thread can run tidy
  /// while client threads create/dispose tensors of their own.
  static thread_local std::vector<
      std::vector<std::shared_ptr<internal::TensorInfo>>>
      scopes_;

  TapeRecorder* tape_ = nullptr;
  static thread_local OpObserver* opObserver_;
  bool debug_ = false;

  std::vector<std::pair<std::string, Variable>> variables_;

  std::atomic<std::int64_t> nextTensorId_{1};
};

/// Convenience free functions mirroring the tf.* namespace.
inline MemoryInfo memory() { return Engine::get().memory(); }
inline Tensor tidy(const std::function<Tensor()>& f) {
  return Engine::get().tidy(f);
}
inline std::vector<Tensor> tidyAll(
    const std::function<std::vector<Tensor>()>& f) {
  return Engine::get().tidy(f);
}
inline void tidyVoid(const std::function<void()>& f) {
  Engine::get().tidyVoid(f);
}
inline TimingInfo time(const std::function<void()>& f) {
  return Engine::get().time(f);
}
inline ProfileInfo profile(const std::function<void()>& f) {
  return Engine::get().profile(f);
}
inline void setBackend(const std::string& name) {
  Engine::get().setBackend(name);
}
inline const std::string& getBackendName() {
  return Engine::get().backendName();
}
inline void setNumThreads(int n) { Engine::get().setNumThreads(n); }
inline int getNumThreads() { return Engine::get().numThreads(); }

}  // namespace tfjs
